package taintmap

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// This file is the member layer of the cluster client (DESIGN.md
// "Failure model"): what stands between the replica loop and the
// connections to one server —
//
//   - per-call deadlines (a wedged connection fails fast instead of
//     hanging every instrumented write behind it),
//   - transparent reconnect with jittered exponential backoff,
//   - a circuit breaker: after BreakerThreshold consecutive failed
//     reconnect attempts the member stops making callers wait and
//     enters degraded mode,
//   - degraded mode: while the server is unreachable, a register or a
//     lookup the memo cannot answer fails at once with ErrDegraded. The
//     member keeps nothing for later: a stream send defines such taints
//     inline (instrument, DESIGN.md "Failure model"), and registration
//     is content-addressed, so the next register after the outage gets
//     the id any other node got, with nothing to replay.

// ErrDegraded reports an operation the member cannot serve while its
// server is unreachable: a register, or a lookup the memo did not answer.
var ErrDegraded = errors.New("taintmap: degraded: taint map unreachable")

// ResilientOptions tunes each member's resilience layer. The zero value
// selects the documented defaults; a negative CallTimeout or JitterFrac
// disables that feature outright.
type ResilientOptions struct {
	// CallTimeout bounds every wire call. Default 2s; negative disables
	// per-call deadlines.
	CallTimeout time.Duration
	// BackoffBase is the first reconnect delay. Default 5ms.
	BackoffBase time.Duration
	// BackoffMax caps the doubling backoff. Default 1s. Once degraded,
	// this is the probe cadence for detecting a healed server.
	BackoffMax time.Duration
	// JitterFrac spreads each delay uniformly in ±frac around the
	// schedule so a fleet of clients does not reconnect in lockstep.
	// Default 0.2; negative disables jitter (deterministic schedule).
	JitterFrac float64
	// BreakerThreshold is how many consecutive failed reconnect
	// attempts trip the circuit breaker into degraded mode. Default 3.
	BreakerThreshold int
	// Seed seeds the jitter generator; 0 uses a fixed default seed.
	Seed int64

	// clk times the backoff, the retry budget, the hedge timer, the
	// operation deadline and the connections' call timeouts; nil means
	// wall time.
	clk netsim.Clock
}

func (o *ResilientOptions) withDefaults() ResilientOptions {
	opt := *o
	switch {
	case opt.CallTimeout == 0:
		opt.CallTimeout = 2 * time.Second
	case opt.CallTimeout < 0:
		opt.CallTimeout = 0
	}
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = 5 * time.Millisecond
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = time.Second
	}
	switch {
	case opt.JitterFrac == 0:
		opt.JitterFrac = 0.2
	case opt.JitterFrac < 0:
		opt.JitterFrac = 0
	}
	if opt.BreakerThreshold <= 0 {
		opt.BreakerThreshold = 3
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.clk == nil {
		opt.clk = netsim.WallClock{}
	}
	return opt
}

// backoffDelay computes the delay before reconnect attempt number
// attempt (0-based): base doubled per attempt, capped at max, spread by
// ±jitter. Pure so the schedule is unit-testable.
func backoffDelay(attempt int, base, max time.Duration, jitter float64, rng *rand.Rand) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if jitter > 0 {
		d = time.Duration(float64(d) * (1 + jitter*(2*rng.Float64()-1)))
	}
	if d < 0 {
		d = base
	}
	return d
}

// member is one ring member's handle: the failover loop and the circuit
// breaker around the connections to one server. It is handed its
// cluster client's shared parts — the tree and memo every connection
// adopts into, the dial function, the options, the retry budget.
//
// State machine: connected -> (connection failure) -> reconnecting
// (callers briefly wait) -> either connected again, or — after
// BreakerThreshold failed attempts — degraded, where a register fails
// with ErrDegraded and a lookup too unless the memo answered it.
// Reconnect attempts continue at the backoff cap.
type member struct {
	c     *ClusterClient
	addr  atomic.Pointer[string]       // replaced by redial, under mu
	inner atomic.Pointer[RemoteClient] // nil while disconnected

	mu           sync.Mutex
	cond         *sync.Cond // broadcast on every state transition
	seq          uint64     // state-change counter; waiters watch it
	degraded     bool
	reconnecting bool
	closed       bool

	rng  *rand.Rand // jitter; used only by the single reconnect loop
	done chan struct{}

	reconnects    atomic.Int64
	dialFailures  atomic.Int64
	probeFailures atomic.Int64
}

// newMember dials m and returns its handle. It never fails on the
// network: if the first dial errors the member starts reconnecting and
// callers block (bounded by the breaker) or run degraded until the
// server appears.
func (c *ClusterClient) newMember(m Member) *member {
	cm := &member{
		c:    c,
		rng:  rand.New(rand.NewSource(c.opt.Resilient.Seed)),
		done: make(chan struct{}),
	}
	cm.cond = sync.NewCond(&cm.mu)
	cm.addr.Store(&m.Addr)
	if conn, err := c.dial(m.Addr); err == nil {
		cm.inner.Store(newRemoteClientWith(conn, c.tree, c.memo, c.opt.Resilient.CallTimeout, c.opt.Resilient.clk))
	} else {
		cm.dialFailures.Add(1)
		cm.reconnecting = true
		go cm.reconnectLoop(1)
	}
	return cm
}

// isConnErr reports whether err means the connection (not the request)
// failed, so the call is worth retrying on a fresh connection.
func isConnErr(err error) bool {
	return errors.Is(err, ErrClientClosed) || errors.Is(err, ErrCallTimeout)
}

// connFailed retires a dead connection and starts the reconnect loop.
// Concurrent callers may report the same connection; only the first one
// transitions the state.
func (m *member) connFailed(old *RemoteClient) {
	m.mu.Lock()
	if m.inner.Load() == old {
		m.inner.Store(nil)
		m.seq++
		m.cond.Broadcast()
		if !m.reconnecting && !m.closed {
			m.reconnecting = true
			go m.reconnectLoop(0)
		}
	}
	m.mu.Unlock()
	old.Close()
}

// redial points the member at a new address — it was replaced — keeping
// the handle and its counters. The live connection is retired, so the
// reconnect loop dials the new address; a dial of the old address still
// in flight is discarded when it comes to publish.
func (m *member) redial(addr string) {
	m.mu.Lock()
	m.addr.Store(&addr)
	rc := m.inner.Load()
	m.mu.Unlock()
	if rc != nil {
		m.connFailed(rc)
	}
}

// reconnectLoop re-dials with jittered exponential backoff until the
// server answers, then publishes the connection. failures carries
// consecutive failed attempts (the first dial's failure counts); at
// BreakerThreshold it trips the breaker.
func (m *member) reconnectLoop(failures int) {
	opt := &m.c.opt.Resilient
	for attempt := 0; ; attempt++ {
		addr := m.addr.Load()
		rc, err := m.connect(*addr)
		if err == nil {
			m.mu.Lock()
			closed := m.closed
			if !closed && m.addr.Load() == addr {
				m.inner.Store(rc)
				m.degraded = false
				m.reconnecting = false
				m.seq++
				m.cond.Broadcast()
				m.mu.Unlock()
				m.reconnects.Add(1)
				return
			}
			m.mu.Unlock()
			rc.Close() // closed, or re-addressed while connecting
			if closed {
				return
			}
		}
		// Whatever step failed, the attempt failed: count it, trip the
		// breaker at the threshold, wait out the backoff, go again.
		failures++
		m.maybeTrip(failures)
		if !m.sleep(backoffDelay(attempt, opt.BackoffBase, opt.BackoffMax, opt.JitterFrac, m.rng)) {
			return
		}
	}
}

// connect makes one reconnect attempt: a budgeted dial and the answer
// probe. Reconnect dials are retry traffic: they spend from the shared
// budget, so a fleet-wide brownout cannot be amplified into a dial
// storm; a denied attempt fails like a refused dial.
func (m *member) connect(addr string) (*RemoteClient, error) {
	if !m.c.budget.TryTake(1) {
		return nil, errors.New("taintmap: retry budget denied the reconnect dial")
	}
	conn, err := m.c.dial(addr)
	if err != nil {
		m.dialFailures.Add(1)
		return nil, err
	}
	rc := newRemoteClientWith(conn, m.c.tree, m.c.memo, m.c.opt.Resilient.CallTimeout, m.c.opt.Resilient.clk)
	// Probe before trusting the connection: a gray-failing server
	// accepts the dial and then never answers, and publishing it would
	// hand every caller a stall. One stats round trip (bounded by the
	// call timer) proves the server is answering. Skipped when deadlines
	// are disabled — the probe itself could hang forever.
	if rc.timeout > 0 {
		if _, err := rc.call(opStatsTag, nil, time.Time{}); err != nil {
			rc.Close()
			m.probeFailures.Add(1)
			return nil, err
		}
	}
	return rc, nil
}

// maybeTrip flips the member into degraded mode once enough consecutive
// reconnect attempts have failed, releasing every waiting caller with
// ErrDegraded.
func (m *member) maybeTrip(failures int) {
	if failures < m.c.opt.Resilient.BreakerThreshold {
		return
	}
	m.mu.Lock()
	if !m.degraded && !m.closed {
		m.degraded = true
		m.seq++
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// sleep waits d on the member's clock; false means the member closed
// meanwhile and the caller must give up.
func (m *member) sleep(d time.Duration) bool {
	fired := make(chan struct{})
	t := m.c.opt.Resilient.clk.AfterFunc(d, func() { close(fired) })
	select {
	case <-fired:
		return true
	case <-m.done:
		t.Stop()
		return false
	}
}

// withConn is the failover loop every request runs in — the one place a
// reconnect is decided and the one place a caller waits on the breaker.
// try runs on the live connection; when it fails because the connection
// (not the request) died, the connection is retired, the reconnect loop
// started, and try runs again on the next one. While disconnected the
// caller waits for a state change, bounded by the breaker; once the
// breaker has tripped, degraded answers instead.
//
// A nil degraded makes the call fail-fast, for callers with somewhere
// else to go (a hedged read has other replicas; cluster maintenance
// traffic is meaningless without a server): one attempt on whatever
// connection is live right now, no reconnect wait, no breaker wait.
func (m *member) withConn(try func(*RemoteClient) error, degraded func() error) error {
	for {
		if rc := m.inner.Load(); rc != nil {
			err := try(rc)
			if err == nil || !isConnErr(err) {
				return err
			}
			m.connFailed(rc)
			if degraded == nil {
				return err
			}
			continue
		}
		if degraded == nil {
			return fmt.Errorf("%w: no connection", ErrDegraded)
		}
		m.mu.Lock()
		switch {
		case m.closed:
			m.mu.Unlock()
			return ErrClientClosed
		case m.inner.Load() != nil:
		case m.degraded:
			m.mu.Unlock()
			return degraded()
		default:
			for seq := m.seq; m.seq == seq && !m.closed; {
				m.cond.Wait()
			}
		}
		m.mu.Unlock()
	}
}

// rawCall issues one protocol op on the live connection — the cluster
// client's channel for ring fetches and read-repair pushes. Fail-fast:
// nobody waits for a reconnect.
func (m *member) rawCall(op byte, payload []byte) (reply []byte, err error) {
	err = m.withConn(func(rc *RemoteClient) (err error) {
		reply, err = rc.call(op, payload, time.Time{})
		return err
	}, nil)
	return reply, err
}

// lookup fetches real ids on the live connection, bounded by deadline
// (zero: none) without declaring the connection wedged when it passes.
// failFast gives up instead of waiting out a reconnect, for a leg with
// other replicas to go to. Degraded, only the memo could have answered,
// and it already declined these ids.
func (m *member) lookup(ids []uint32, deadline time.Time, failFast bool) (ts []taint.Taint, err error) {
	var degraded func() error
	if !failFast {
		degraded = func() error {
			return fmt.Errorf("%w: lookup of %d unknown ids", ErrDegraded, len(ids))
		}
	}
	err = m.withConn(func(rc *RemoteClient) (err error) {
		ts, err = rc.lookupDeadline(ids, deadline)
		return err
	}, degraded)
	return ts, err
}

// Health is a snapshot of one member's resilience state, for tests,
// monitoring and the degraded-mode banner.
type Health struct {
	Connected     bool  // a live connection is published
	Degraded      bool  // breaker tripped; registers fail with ErrDegraded
	Reconnects    int64 // successful reconnects
	DialFailures  int64 // failed dial attempts
	ProbeFailures int64 // dials that succeeded but failed the answer probe
}

func (m *member) health() Health {
	m.mu.Lock()
	h := Health{Connected: m.inner.Load() != nil, Degraded: m.degraded}
	m.mu.Unlock()
	h.Reconnects = m.reconnects.Load()
	h.DialFailures = m.dialFailures.Load()
	h.ProbeFailures = m.probeFailures.Load()
	return h
}

// close stops the reconnect loop, closes any live connection and fails
// later calls with ErrClientClosed.
func (m *member) close() error {
	m.mu.Lock()
	m.closed = true
	rc := m.inner.Load()
	m.inner.Store(nil)
	m.seq++
	m.cond.Broadcast()
	m.mu.Unlock()
	close(m.done)
	if rc != nil {
		return rc.Close()
	}
	return nil
}
