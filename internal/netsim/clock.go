package netsim

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the fabric's notion of time. The default is the wall clock;
// tests (and any harness that wants deterministic schedules) install a
// VirtualClock, under which every time-dependent behaviour of the
// fabric — latency delivery, read deadlines — becomes an event on the
// clock's heap and fires only when the test advances it. The fabric
// never calls time.Sleep: a delay is always a scheduled event, so under
// a virtual clock nothing ever blocks on wall time.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// AfterFunc schedules f to run once d has elapsed on this clock.
	// f runs without any fabric lock held. The returned timer's Stop
	// cancels a not-yet-fired f.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a cancellable pending Clock callback.
type Timer interface {
	// Stop cancels the callback, reporting whether it was still pending.
	Stop() bool
}

// ---- wall clock ----

// WallClock is wall time as a Clock: the clock every Network starts
// with, and the one the Taint Map's clients and cluster nodes run on
// unless a test injects a virtual one.
type WallClock struct{}

func (WallClock) Now() time.Time { return time.Now() }

func (WallClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// ---- virtual clock ----

// VirtualClock is a manually advanced event clock: Now stands still
// until Advance (or AdvanceToNext) moves it, and scheduled callbacks
// fire synchronously, in timestamp order, on the advancing goroutine.
// That makes every latency/deadline schedule deterministic — a test
// writes, observes that nothing was delivered, advances the clock, and
// observes the delivery, with no wall-clock sleeps anywhere.
//
// Safe for concurrent use; callbacks run without the clock lock held,
// so they may schedule further events or touch the fabric freely.
type VirtualClock struct {
	mu   sync.Mutex
	now  time.Time
	seq  uint64
	heap vtimerHeap
}

// NewVirtualClock returns a virtual clock starting at an arbitrary
// fixed epoch (the absolute value is meaningless; only differences
// matter to the fabric).
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{now: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// Now returns the clock's current (frozen) time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc schedules f at now+d. A non-positive d fires on the next
// Advance of any amount (not inline: the caller may hold fabric locks).
func (c *VirtualClock) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d < 0 {
		d = 0
	}
	t := &vtimer{clock: c, when: c.now.Add(d), seq: c.seq, fn: f}
	c.seq++
	heap.Push(&c.heap, t)
	return t
}

// Advance moves the clock forward by d, firing every callback scheduled
// within the window in (time, insertion) order. Callbacks run with the
// clock already set to their own timestamp, so a callback that re-arms
// (the latency release chain does) schedules relative to its fire time.
func (c *VirtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	c.advanceToLocked(target)
	c.now = target
	c.mu.Unlock()
}

// AdvanceToNext jumps the clock straight to the earliest pending
// callback and fires it (plus anything scheduled for the same instant),
// reporting whether there was one. This is the "virtual time when no
// real waiter needs wall time" step: a test drains a whole latency
// schedule with a loop over AdvanceToNext.
func (c *VirtualClock) AdvanceToNext() bool {
	c.mu.Lock()
	if len(c.heap) == 0 {
		c.mu.Unlock()
		return false
	}
	target := c.heap[0].when
	c.advanceToLocked(target)
	if c.now.Before(target) {
		c.now = target
	}
	c.mu.Unlock()
	return true
}

// PendingTimers reports how many callbacks are scheduled.
func (c *VirtualClock) PendingTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.heap)
}

// advanceToLocked fires, in order, every timer due at or before target.
// Called with c.mu held; releases and reacquires it around callbacks.
func (c *VirtualClock) advanceToLocked(target time.Time) {
	for len(c.heap) > 0 && !c.heap[0].when.After(target) {
		t := heap.Pop(&c.heap).(*vtimer)
		if t.stopped {
			continue
		}
		t.fired = true
		if t.when.After(c.now) {
			c.now = t.when
		}
		c.mu.Unlock()
		t.fn()
		c.mu.Lock()
	}
}

type vtimer struct {
	clock   *VirtualClock
	when    time.Time
	seq     uint64
	fn      func()
	index   int // heap position, -1 once popped
	stopped bool
	fired   bool
}

// Stop cancels the timer if it has not fired.
func (t *vtimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	if t.index >= 0 {
		heap.Remove(&t.clock.heap, t.index)
	}
	return true
}

// vtimerHeap orders timers by (when, seq) so same-instant callbacks
// fire in scheduling order — the property the determinism tests pin.
type vtimerHeap []*vtimer

func (h vtimerHeap) Len() int { return len(h) }
func (h vtimerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h vtimerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *vtimerHeap) Push(x any) {
	t := x.(*vtimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *vtimerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
