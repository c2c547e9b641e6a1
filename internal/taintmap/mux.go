package taintmap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// RemoteClient talks to a Taint Map server over a reliable stream (a
// netsim conn or a real TCP connection), pipelined: every request
// carries a tag, and so any number of goroutines share one connection
// with their requests in flight concurrently. Callers flush their own
// frames (send) and read their own replies (readReplies), so a lone call
// crosses no goroutine; a parked helper (demux) reads only for calls
// with a deadline, for a registration's requests but a lone one collected
// at once (Issue), and for calls left pending by a holder that is done.
// The id -> taint memo keeps warm lookups off the wire entirely, and is
// read under an RWMutex so they never serialize.
type RemoteClient struct {
	conn io.ReadWriteCloser
	br   *bufio.Reader // read only by the read role's holder
	front

	clk     netsim.Clock  // times the call timer and the callers' deadlines
	timeout time.Duration // the call timer's bound on each call's wait (see expire); 0: none

	// The outbound half (see send). sendMu is a leaf: it is never held
	// across conn.Write, another lock or a blocking channel operation
	// (distavet lockorder pins this).
	sendMu   sync.Mutex
	out      []byte        // request frames appended since the last write began
	spare    []byte        // the buffer the previous write used, recycled at the next swap
	flushing bool          // a caller is writing; frames appended now ride its next write
	room     chan struct{} // non-nil while a caller waits for out to drain; closed after each write

	nextTag atomic.Uint32

	// The inbound half (see readReplies), under pmu.
	pmu     sync.Mutex
	pending map[uint32]pendingCall
	reading bool          // a goroutine holds the read role
	wake    chan struct{} // hands the read role to the helper
	broken  error         // set once the connection is unusable
	armed   bool          // the call timer is running
	timer   netsim.Timer  // the call timer armed last
	idle    chan muxReply // a holder's own reply channel, empty: the next call takes it

	done   chan struct{} // closed once the client has failed every call
	helper chan struct{} // closed when the helper has exited, after done

	closeOnce sync.Once
	closeErr  error
}

var _ Client = (*RemoteClient)(nil)

// muxReply is one tagged response routed to its caller.
type muxReply struct {
	status  byte
	payload []byte
}

// pendingCall is one outstanding tagged request: the channel its caller
// waits on and the time on the client's clock it was issued (zero
// without a call timeout or deadline — the call timer never runs then).
type pendingCall struct {
	ch chan muxReply
	at time.Time
}

// ErrClientClosed reports use of a RemoteClient whose connection is
// gone — closed by the caller or lost to a transport error. Every call
// pending at the moment of failure and every call issued afterwards
// fails with an error matching it under errors.Is, so the cluster
// client's members can tell "the connection died" apart from "the server
// rejected this request".
var ErrClientClosed = errors.New("taintmap: client closed")

// ErrCallTimeout reports a call that exceeded the client's per-call
// deadline. The connection is presumed wedged (stalled peer, silent
// drop): the caller should tear the client down and reconnect.
var ErrCallTimeout = errors.New("taintmap: call timed out")

// ErrDeadlineExceeded reports a call abandoned at its caller-supplied
// deadline (see call). Unlike ErrCallTimeout it says nothing
// about the connection — the request may still complete server-side and
// its reply is silently discarded — so the resilience layer does NOT
// treat it as a connection failure.
var ErrDeadlineExceeded = errors.New("taintmap: call deadline exceeded")

// replyChans recycles the one-shot reply channels used by call: each
// channel carries exactly one response and comes back empty, so reuse
// is safe and saves an allocation per request. Channels are NOT
// returned on failure paths — the goroutine that fails the client closes
// pending channels, and a closed channel must never re-enter the pool.
// A read role holder's own channel, empty, stays with its client (idle):
// a lone caller's calls skip the pool, which under -race drops Puts.
var replyChans = sync.Pool{
	New: func() any { return make(chan muxReply, 1) },
}

// NewRemoteClient wraps an established connection to a Taint Map
// server and starts the read role's helper. Its deadlines run on the
// wall clock.
func NewRemoteClient(conn io.ReadWriteCloser, tree *taint.Tree) *RemoteClient {
	return newRemoteClientWith(conn, tree, &cache{}, 0, netsim.WallClock{})
}

// newRemoteClientWith is NewRemoteClient with an injected memo cache,
// per-call timeout and clock. A cluster client threads its one cache
// through every connection of every member, so taints resolved before a
// reconnect stay warm after it; a cluster node's peers have neither.
func newRemoteClientWith(conn io.ReadWriteCloser, tree *taint.Tree, memo *cache, timeout time.Duration, clk netsim.Clock) *RemoteClient {
	c := &RemoteClient{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, connBuffer),
		clk:     clk,
		timeout: timeout,
		pending: make(map[uint32]pendingCall),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		helper:  make(chan struct{}),
	}
	c.front = front{tree, memo, c}
	go c.demux()
	return c
}

// expire is the call timer, armed by the first call while it lapsed. It
// declares the connection wedged once the oldest pending call has waited
// timeout — broken wraps ErrCallTimeout, and the teardown fails every
// pending and future call with it — and otherwise re-arms for what that
// call has left, or lapses when none is pending: it fires about once
// per timeout however many calls go by.
func (c *RemoteClient) expire() {
	now := c.clk.Now()
	c.pmu.Lock()
	c.armed = false
	var oldest time.Time
	for _, pc := range c.pending {
		if oldest.IsZero() || pc.at.Before(oldest) {
			oldest = pc.at
		}
	}
	wedged := false
	if !oldest.IsZero() && c.broken == nil {
		if left := c.timeout - now.Sub(oldest); left > 0 {
			c.armed, c.timer = true, c.clk.AfterFunc(left, c.expire)
		} else {
			c.broken = fmt.Errorf("%w: no response within %v", ErrCallTimeout, c.timeout)
			wedged = true
		}
	}
	c.pmu.Unlock()
	if wedged {
		c.conn.Close() // the read role's holder fails every pending call
	}
}

// muxLingerSpins bounds how many scheduler yields a flusher spends
// waiting for more frames before it writes, when other calls are in
// flight. A handful of yields (~1µs) is enough to let goroutines that
// just received a batch of replies append their next request, which
// keeps the batch convoy alive; it is far below the cost of the write
// syscall it saves.
const muxLingerSpins = 16

// sendHighWater is how many unwritten bytes may sit behind a write in
// progress before further callers wait for it to finish: out never
// exceeds sendHighWater plus one frame, however slow the transport.
const sendHighWater = 64 << 10

// send puts one request frame on the connection by caller-driven group
// commit. The frame is appended to out under sendMu; a caller that finds
// a write in progress is done — its frame rides that flusher's next
// write. Otherwise the caller becomes the flusher: it swaps the buffers,
// writes with sendMu released, and repeats until out stays empty, so a
// burst of concurrent callers shares one write syscall instead of paying
// one each, and nobody hands a frame to another goroutine.
//
// alone says no other call was pending when this one registered: such a
// caller writes at once. With other calls in flight the flusher first
// lingers a few scheduler yields (callers woken by one batch of replies
// need about that long to append their next request), which is what
// lets batches sustain themselves instead of decaying to one syscall per
// frame.
//
// Only the flusher can block in conn.Write, and it does so for as long
// as the transport does: its own deadline is not consulted, and the
// call timer (or Close) releases it by closing the connection. Callers
// that merely appended stay free to give up at their deadlines. When out
// already holds sendHighWater bytes behind a write, a caller waits for
// that write before appending — giving up at expired, or when the
// connection dies — so the buffer is bounded whatever the transport
// does. A write error closes the connection and keeps the flusher role
// for good: whoever reads next fails every pending call, and frames
// appended in the moment before it does are never written.
//
// send reports false when it gave up waiting for room and appended
// nothing.
func (c *RemoteClient) send(op byte, tag uint32, payload []byte, alone bool, expired <-chan struct{}) bool {
	c.sendMu.Lock()
	for c.flushing && len(c.out) >= sendHighWater {
		if c.room == nil {
			c.room = make(chan struct{})
		}
		room := c.room
		c.sendMu.Unlock()
		select {
		case <-room:
		case <-c.done:
			return false
		case <-expired:
			return false
		}
		c.sendMu.Lock()
	}
	c.out = append(appendFrameHeader(c.out, op, tag, len(payload)), payload...)
	if c.flushing {
		c.sendMu.Unlock()
		return true
	}
	c.flushing = true
	for {
		if !alone {
			for spins, n := 0, len(c.out); spins < muxLingerSpins; spins++ {
				c.sendMu.Unlock()
				runtime.Gosched()
				c.sendMu.Lock()
				if len(c.out) != n {
					spins, n = 0, len(c.out)
				}
			}
		}
		buf := c.out
		c.out, c.spare = c.spare[:0], nil
		c.sendMu.Unlock()
		_, err := c.conn.Write(buf)
		if err != nil {
			// The next read observes the closed connection and fails
			// every pending call, this caller's included.
			c.conn.Close()
			return true
		}
		c.sendMu.Lock()
		if cap(buf) <= sendHighWater {
			c.spare = buf[:0] // an oversize frame's buffer is not kept
		}
		if c.room != nil {
			close(c.room)
			c.room = nil
		}
		if len(c.out) == 0 {
			c.flushing = false
			c.sendMu.Unlock()
			return true
		}
		alone = false // frames arrived during the write
	}
}

// demux is the read role's helper, parked until a caller hands it the
// role; it exits once the client has failed.
func (c *RemoteClient) demux() {
	defer close(c.helper)
	for {
		select {
		case <-c.wake:
			c.readReplies(nil)
		case <-c.done:
			return
		}
	}
}

// readReplies is the read role: its one holder reads replies and hands
// each to its caller, until mine has its own (mine nil, the helper:
// until no call is pending), then gives the role up — to the helper if
// calls are still pending — and returns that reply itself, ok true: a
// holder's own reply never crosses its channel. A holder that finds the
// connection torn down (Close, the call timer) fails the client, as a
// read error does: a reply drained from the buffer after the teardown
// must not leave the others waiting on a reader nobody is.
func (c *RemoteClient) readReplies(mine chan muxReply) (own muxReply, ok bool) {
	for {
		status, tag, payload, err := readTaggedFrame(c.br, nil, isReplyStatus, maxReplyFrame)
		c.pmu.Lock()
		var ch chan muxReply // nil: the caller gave up at its deadline
		if err == nil {
			ch = c.pending[tag].ch
			delete(c.pending, tag)
		} else if c.broken == nil {
			c.broken = fmt.Errorf("%w: connection lost: %v", ErrClientClosed, err)
		}
		own := ch == mine && mine != nil
		if own && c.idle == nil {
			c.idle = mine
		} else if own {
			replyChans.Put(mine)
		}
		last := c.broken != nil || own || mine == nil && len(c.pending) == 0
		switch {
		case c.broken != nil:
			c.failLocked()
		case !last:
		case mine != nil && len(c.pending) > 0:
			c.wake <- struct{}{} // buffered, and empty: the role had one holder
		default:
			c.reading = false
		}
		c.pmu.Unlock()
		reply := muxReply{status: status, payload: payload}
		switch {
		case own:
			return reply, true
		case ch != nil:
			ch <- reply // buffered, and empty
		}
		if last {
			return muxReply{}, false
		}
	}
}

// failLocked fails every pending call with c.broken, once, and retires
// the call timer; no call registers after it, and so none takes the read
// role or arms the timer. Caller holds c.pmu.
func (c *RemoteClient) failLocked() {
	if c.pending == nil {
		return
	}
	if c.timer != nil {
		c.timer.Stop()
	}
	for _, pc := range c.pending {
		close(pc.ch)
	}
	c.pending = nil
	close(c.done)
}

// call issues one request and waits for its response. A non-zero
// deadline, a time on the client's clock, is enforced inline: when it
// passes before the reply arrives, the call withdraws its pending entry
// and returns ErrDeadlineExceeded — the connection stays up, the request
// stays in flight server-side, and its late reply is discarded by whoever
// reads it. This is the hedged read's cancellation primitive: unlike the
// call timer (which declares the whole connection wedged), an expired
// deadline here says only "this caller stopped waiting". With a zero
// deadline only the call timer bounds the wait.
func (c *RemoteClient) call(op byte, payload []byte, deadline time.Time) ([]byte, error) {
	var d time.Duration
	var expired <-chan struct{} // nil (never ready) without a deadline
	if !deadline.IsZero() {
		if d = deadline.Sub(c.clk.Now()); d <= 0 {
			return nil, fmt.Errorf("%w: deadline already passed", ErrDeadlineExceeded)
		}
		fired := make(chan struct{})
		defer c.clk.AfterFunc(d, func() { close(fired) }).Stop()
		expired = fired
	}
	// A Read cannot be abandoned at a deadline: a call with one hands it on.
	tag, ch, read, err := c.issue(op, payload, expired, expired != nil)
	if err != nil {
		return nil, err
	}
	if read {
		if reply, ok := c.readReplies(ch); ok {
			return c.finishReply(nil, reply, true)
		}
	}
	select {
	case reply, ok := <-ch:
		return c.finishReply(ch, reply, ok)
	case <-expired:
		if !c.withdraw(tag) {
			// The reply raced the deadline: a reader already dequeued the
			// entry, so a send (buffered) or close is guaranteed — take it.
			reply, ok := <-ch
			return c.finishReply(ch, reply, ok)
		}
		replyChans.Put(ch)
		return nil, fmt.Errorf("%w: no response within %v", ErrDeadlineExceeded, d)
	}
}

// issue registers one pending call and puts its request on the
// connection, the first half of every call; the reply comes on ch. It
// takes the read role if it is free and the call still waits — a lone
// call crosses no goroutine — unless handoff: a caller that may give up at
// expired, or waits later, hands it to the helper, which reads as replies come.
func (c *RemoteClient) issue(op byte, payload []byte, expired <-chan struct{}, handoff bool) (tag uint32, ch chan muxReply, read bool, err error) {
	if len(payload) > maxFrame {
		return 0, nil, false, fmt.Errorf("taintmap: send request: %w: frame of %d bytes", errProtocol, len(payload))
	}
	// The timeout's entire per-call cost: one clock read.
	var at time.Time
	if c.timeout > 0 {
		at = c.clk.Now()
	}
	c.pmu.Lock()
	if c.broken != nil {
		err := c.broken
		c.pmu.Unlock()
		return 0, nil, false, err
	}
	ch, c.idle = c.idle, nil
	if ch == nil {
		ch = replyChans.Get().(chan muxReply)
	}
	tag = c.nextTag.Add(1)
	c.pending[tag] = pendingCall{ch: ch, at: at}
	alone := len(c.pending) == 1
	if c.timeout > 0 && !c.armed {
		c.armed, c.timer = true, c.clk.AfterFunc(c.timeout, c.expire)
	}
	c.pmu.Unlock()

	if !c.send(op, tag, payload, alone, expired) {
		// Never appended, so no reply can come: the entry is gone only if
		// the client failed meanwhile (and closed ch).
		if !c.withdraw(tag) {
			_, err = c.finishReply(ch, muxReply{}, false)
			return 0, nil, false, err
		}
		replyChans.Put(ch)
		return 0, nil, false, fmt.Errorf("%w: request not sent by its deadline", ErrDeadlineExceeded)
	}
	c.pmu.Lock()
	_, waiting := c.pending[tag]
	read = waiting && !c.reading
	c.reading = c.reading || read
	if read && handoff {
		c.wake <- struct{}{} // buffered, and empty: nobody held the role
		read = false
	}
	c.pmu.Unlock()
	return tag, ch, read, nil
}

// withdraw removes the pending entry of a call that stopped waiting and
// reports whether it was still there. False means a reader dequeued it
// first, or the client failed, and a send or close on its channel is
// guaranteed; true means the channel saw neither and may re-enter the
// pool.
func (c *RemoteClient) withdraw(tag uint32) bool {
	c.pmu.Lock()
	_, mine := c.pending[tag]
	delete(c.pending, tag)
	c.pmu.Unlock()
	return mine
}

// finishReply converts one received reply into the call result and
// recycles the channel, if there is one: a read role holder's own reply
// came without (readReplies kept it). ok=false means the client failed
// and closed the channel (which must then never re-enter the pool).
func (c *RemoteClient) finishReply(ch chan muxReply, reply muxReply, ok bool) ([]byte, error) {
	switch {
	case !ok:
		c.pmu.Lock()
		err := c.broken
		c.pmu.Unlock()
		return nil, err
	case ch != nil:
		replyChans.Put(ch)
	}
	if reply.status != statusTaggedOK {
		return nil, serverErr(reply.payload)
	}
	return reply.payload, nil
}

// issueRegister implements transport: the batch goes out as one request,
// unless it overflows a frame.
func (c *RemoteClient) issueRegister(r *Registration) {
	r.issueGroup(nil, c, 0, len(r.ts))
}

// lookup implements transport.
func (c *RemoteClient) lookup(ids []uint32) ([]taint.Taint, error) {
	return c.lookupDeadline(ids, time.Time{})
}

// lookupDeadline fetches and adopts ids in one round trip — a frame's
// worth of ids at a time when the list overflows one, and re-requesting
// the tail when the server answers with a partial blob list to respect
// the reply frame budget — bounded by an absolute deadline (zero = none)
// covering every request: the per-member leg of the cluster client's
// hedged reads.
func (c *RemoteClient) lookupDeadline(ids []uint32, deadline time.Time) ([]taint.Taint, error) {
	var buf [256]byte  // a small batch's payload stays off the heap
	var blobs [][]byte // the one reply's list, unless more than one answers
	for rest := ids; len(rest) > 0; {
		chunk := rest[:min(len(rest), maxIDsPerFrame)]
		reply, err := c.call(opLookupBatchTag, appendIDList(buf[:0], chunk), deadline)
		if err != nil {
			return nil, err
		}
		got, err := parseBlobList(reply)
		if err != nil {
			return nil, err
		}
		if len(got) == 0 || len(got) > len(chunk) {
			return nil, fmt.Errorf("taintmap: lookup batch returned %d of %d blobs", len(got), len(chunk))
		}
		if blobs == nil {
			blobs = got
		} else {
			blobs = append(blobs, got...)
		}
		rest = rest[len(got):]
	}
	return c.adopt(nil, ids, blobs, false)
}

// Stats fetches the server-side counters.
func (c *RemoteClient) Stats() (Stats, error) {
	reply, err := c.call(opStatsTag, nil, time.Time{})
	if err != nil {
		return Stats{}, err
	}
	if len(reply) != 24 {
		return Stats{}, fmt.Errorf("taintmap: stats reply of %d bytes", len(reply))
	}
	return Stats{
		GlobalTaints:  int(binary.BigEndian.Uint64(reply[0:8])),
		Registrations: int64(binary.BigEndian.Uint64(reply[8:16])),
		Lookups:       int64(binary.BigEndian.Uint64(reply[16:24])),
	}, nil
}

// Close implements Client: it tears down the connection, fails any
// in-flight calls — itself, or through the read role's holder — and
// waits for the helper to exit. It is idempotent — second and
// later calls return the first call's result without touching the
// connection again.
func (c *RemoteClient) Close() error {
	c.closeOnce.Do(func() {
		c.pmu.Lock()
		if c.broken == nil {
			c.broken = ErrClientClosed
		}
		if !c.reading {
			c.failLocked()
		}
		c.pmu.Unlock()
		c.closeErr = c.conn.Close()
		<-c.done
		<-c.helper
	})
	return c.closeErr
}
