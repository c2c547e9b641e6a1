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
//   - idempotent replay: registration is content-addressed, so the
//     registers journaled during an outage re-issue safely after
//     reconnect and resolve to the same Global IDs any other node got,
//   - a circuit breaker: after BreakerThreshold consecutive failed
//     reconnect attempts the member stops making callers wait and
//     enters degraded local mode,
//   - degraded local mode: while the server is unreachable (or sheds
//     load), a register resolves against a local content-addressed
//     Store and returns a provisional id (high bit set), queueing the
//     registration in a bounded store-and-forward journal that drains
//     once a connection is up. Intra-node tracking and sink checks keep
//     working; only cross-node transfer must wait for a real Global ID
//     (callers see ErrGlobalIDPending, not a stall).

// provisionalBit marks ids minted by the degraded local store. Real
// Global IDs grow from 1, so the two spaces cannot collide until the
// Taint Map holds 2^31 distinct taints.
const provisionalBit uint32 = 1 << 31

// IsProvisional reports whether id was minted locally during an outage
// and is not yet backed by the Taint Map. Provisional ids are valid for
// intra-node tracking and sink checks but must not cross nodes.
func IsProvisional(id uint32) bool { return id&provisionalBit != 0 }

// Typed failures of the resilience layer, matched with errors.Is.
var (
	// ErrDegraded reports an operation the degraded client cannot serve
	// locally (e.g. looking up a Global ID never seen on this node).
	ErrDegraded = errors.New("taintmap: degraded: taint map unreachable")
	// ErrJournalFull reports a degraded-mode registration rejected
	// because the store-and-forward journal hit its bound. It matches
	// ErrDegraded under errors.Is.
	ErrJournalFull = fmt.Errorf("%w: journal full", ErrDegraded)
	// ErrGlobalIDPending reports a taint that is tracked (present,
	// checkable at sinks) but whose Global ID is provisional, so it
	// cannot be transferred to another node yet.
	ErrGlobalIDPending = errors.New("taintmap: taint present, global ID pending")
)

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
	// JournalLimit bounds the degraded-mode store-and-forward journal;
	// registrations past it fail with ErrJournalFull. Default 4096.
	JournalLimit int
	// Seed seeds the jitter generator; 0 uses a fixed default seed.
	Seed int64

	// clk times the backoff, the drain wait, the retry budget, the hedge
	// timer and the operation deadline; nil means wall time.
	clk netsim.Clock
}

// callTimeout resolves CallTimeout: the 2s default for zero, zero
// (disabled) for negative.
func (o *ResilientOptions) callTimeout() time.Duration {
	switch {
	case o.CallTimeout == 0:
		return 2 * time.Second
	case o.CallTimeout < 0:
		return 0
	}
	return o.CallTimeout
}

func (o *ResilientOptions) withDefaults() ResilientOptions {
	opt := *o
	opt.CallTimeout = o.callTimeout()
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
	if opt.JournalLimit <= 0 {
		opt.JournalLimit = 4096
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

// journalEntry is one degraded-mode registration awaiting replay.
type journalEntry struct {
	blob []byte      // serialized taint (the content address)
	prov uint32      // provisional id handed to the caller
	t    taint.Taint // node the drain stamps with the real Global ID
}

// member is one ring member's handle: the failover loop, the circuit
// breaker and the journal around the connections to one server. It is
// handed its cluster client's shared parts — the tree and memo every
// connection adopts into, the dial function, the options, the retry
// budget — and a store of its own partition that mints its provisional
// ids, so even those carry the partition that will own them.
//
// State machine: connected -> (connection failure) -> reconnecting
// (callers briefly wait) -> either connected again, or — after
// BreakerThreshold failed attempts — degraded, where a register journals
// locally and a lookup fails unless the memo answered it. Reconnect
// attempts continue at the backoff cap; once a connection is published
// the journal drains behind it (idempotent content-addressed replay) and
// the provisional ids are remapped.
type member struct {
	c     *ClusterClient
	addr  atomic.Pointer[string]       // replaced by redial, under mu
	local *Store                       // mints the provisional ids
	inner atomic.Pointer[RemoteClient] // nil while disconnected

	mu           sync.Mutex
	cond         *sync.Cond // broadcast on every state transition
	seq          uint64     // state-change counter; waiters watch it
	degraded     bool
	reconnecting bool
	draining     bool // the one drain goroutine is running
	closed       bool
	queued       []journalEntry
	journaled    map[uint32]struct{} // provisional ids currently queued
	remap        map[uint32]uint32   // provisional -> real Global ID

	rng  *rand.Rand // jitter; used only by the single reconnect loop
	done chan struct{}

	reconnects     atomic.Int64
	dialFailures   atomic.Int64
	probeFailures  atomic.Int64
	journaledTotal atomic.Int64
	drainedTotal   atomic.Int64
}

// newMember dials m and returns its handle. It never fails on the
// network: if the first dial errors the member starts reconnecting and
// callers block (bounded by the breaker) or run degraded until the
// server appears.
func (c *ClusterClient) newMember(m Member) (*member, error) {
	local, err := NewPartitionStore(m.Part)
	if err != nil {
		return nil, err
	}
	cm := &member{
		c:         c,
		local:     local,
		journaled: make(map[uint32]struct{}),
		remap:     make(map[uint32]uint32),
		rng:       rand.New(rand.NewSource(c.opt.Resilient.Seed)),
		done:      make(chan struct{}),
	}
	cm.cond = sync.NewCond(&cm.mu)
	cm.addr.Store(&m.Addr)
	if conn, err := c.dial(m.Addr); err == nil {
		cm.inner.Store(newRemoteClientWith(conn, c.tree, c.memo, c.opt.Resilient.CallTimeout))
	} else {
		cm.dialFailures.Add(1)
		cm.reconnecting = true
		go cm.reconnectLoop(1)
	}
	return cm, nil
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
// everything else: the journal, the remap table and the provisional ids
// the local store has minted stay valid. The live connection is retired,
// so the reconnect loop dials the new address and drains there; a dial
// of the old address still in flight is discarded when it comes to
// publish.
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
// server answers, then publishes the connection and starts the journal
// drain behind it. failures carries consecutive failed attempts (the
// first dial's failure counts); at BreakerThreshold it trips the breaker.
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
				m.drainLocked()
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
	rc := newRemoteClientWith(conn, m.c.tree, m.c.memo, m.c.opt.Resilient.CallTimeout)
	// Probe before trusting the connection: a gray-failing server
	// accepts the dial and then never answers, and publishing it would
	// hand every caller a stall. One stats round trip (bounded by the
	// watchdog) proves the server is answering. Skipped when deadlines
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
// reconnect attempts have failed, releasing every waiting caller into
// the local path.
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

// drainLocked starts the journal drain unless it is running already or
// has nothing to do. Caller holds m.mu.
func (m *member) drainLocked() {
	if !m.draining && !m.closed && len(m.queued) > 0 && m.inner.Load() != nil {
		m.draining = true
		go m.drain()
	}
}

// drain replays the journal on the live connection — everything queued
// at once, through the batch register (chunked under the frame limit) —
// and remaps each provisional id to the real Global ID the register
// stamped on its taint. Replay is idempotent: registration is
// content-addressed, so a blob the server already has (from a pre-crash
// send or another node) gets its old id back. One drain runs at a time
// (draining), behind a published connection, so no caller waits for it.
// A dead connection ends it — the reconnect loop starts the next one
// when it publishes — and so does a refused replay (the owner still
// sheds load) once the retry budget stops paying for another try after
// the backoff cap; the journal then waits for the next fallback or
// reconnect.
func (m *member) drain() {
	for {
		m.mu.Lock()
		rc, batch := m.inner.Load(), m.queued
		if m.closed || rc == nil || len(batch) == 0 {
			m.draining = false
			m.mu.Unlock()
			return
		}
		m.mu.Unlock()
		ts, blobs := make([]taint.Taint, len(batch)), make([][]byte, len(batch))
		for i, e := range batch {
			ts[i], blobs[i] = e.t, e.blob
		}
		ids := make([]uint32, len(batch))
		err := rc.register(ids, ts, blobs)
		if err == nil {
			m.mu.Lock()
			for i, e := range batch {
				m.remap[e.prov] = ids[i]
				delete(m.journaled, e.prov)
			}
			// New entries may have been appended behind the batch; keep them.
			m.queued = m.queued[len(batch):]
			m.drainedTotal.Add(int64(len(batch)))
			m.mu.Unlock()
			continue
		}
		if isConnErr(err) {
			m.connFailed(rc)
		} else if m.c.budget.TryTake(1) && m.sleep(m.c.opt.Resilient.BackoffMax) {
			continue
		}
		m.mu.Lock()
		m.draining = false
		m.mu.Unlock()
		return
	}
}

// journalLocked registers each taint (serialized: blobs) against the
// local store, queues those the journal does not hold yet and writes the
// parallel provisional ids to ids. Caller holds m.mu.
func (m *member) journalLocked(ids []uint32, ts []taint.Taint, blobs [][]byte) error {
	for i, t := range ts {
		prov := provisionalBit | m.local.RegisterBlob(blobs[i])
		if gid, ok := m.remap[prov]; ok {
			// Seen and drained in an earlier outage: the real id is known.
			t.SetGlobalID(gid)
			m.c.memo.put(gid, t)
			ids[i] = gid
			continue
		}
		if _, ok := m.journaled[prov]; !ok {
			if len(m.queued) >= m.c.opt.Resilient.JournalLimit {
				return fmt.Errorf("%w (%d queued)", ErrJournalFull, len(m.queued))
			}
			m.queued = append(m.queued, journalEntry{blob: blobs[i], prov: prov, t: t})
			m.journaled[prov] = struct{}{}
			m.journaledTotal.Add(1)
			// Memoize under the provisional id so sink-side lookups resolve
			// locally. The real Global ID is NOT stamped on t: cross-node
			// transfer must keep failing with ErrGlobalIDPending until drain.
			m.c.memo.put(prov, t)
		}
		ids[i] = prov
	}
	return nil
}

// withConn is the failover loop every request runs in — the one place a
// reconnect is decided and the one place a caller waits on the breaker.
// try runs on the live connection; when it fails because the connection
// (not the request) died, the connection is retired, the reconnect loop
// started, and try runs again on the next one. While disconnected the
// caller waits for a state change, bounded by the breaker; once the
// breaker has tripped, degraded (called with m.mu held) answers instead.
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
			err := degraded()
			m.mu.Unlock()
			return err
		default:
			for seq := m.seq; m.seq == seq && !m.closed; {
				m.cond.Wait()
			}
		}
		m.mu.Unlock()
	}
}

// register is the member's half of the cluster client's register: the
// live connection's batch, stamped there. Disconnected, it waits for the
// reconnect, bounded by the breaker. Degraded — or answered
// ErrOverloaded by an owner shedding load — every entry journals and
// gets a provisional id (not stamped on the taint, per the
// ErrGlobalIDPending contract); a shedding owner's journal drains as soon
// as the live connection absorbs it, without a reconnect.
func (m *member) register(ids []uint32, ts []taint.Taint, blobs [][]byte) error {
	err := m.withConn(func(rc *RemoteClient) error {
		return rc.register(ids, ts, blobs)
	}, func() error {
		return m.journalLocked(ids, ts, blobs)
	})
	if !errors.Is(err, ErrOverloaded) {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClientClosed
	}
	if err = m.journalLocked(ids, ts, blobs); err == nil {
		m.drainLocked()
	}
	return err
}

// rawCall issues one protocol op on the live connection — the cluster
// client's channel for ring fetches and read-repair pushes. Fail-fast:
// there is nothing to journal and nobody to wait for.
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

// lookupProvisional resolves provisional ids this member minted: through
// the remap table when a drain already assigned the real Global ID, else
// from the local store.
func (m *member) lookupProvisional(ids []uint32) ([]taint.Taint, error) {
	ts := make([]taint.Taint, len(ids))
	for i, id := range ids {
		m.mu.Lock()
		gid, remapped := m.remap[id]
		m.mu.Unlock()
		var err error
		if remapped {
			ts[i], err = m.c.Lookup(gid)
		} else {
			var blob []byte
			if blob, err = m.local.LookupBlob(id &^ provisionalBit); err == nil {
				ts[i], err = m.c.tree.UnmarshalTaint(blob)
			}
			// No SetGlobalID: the node must not carry a provisional id into
			// the cross-node transfer path.
			m.c.memo.put(id, ts[i])
		}
		if err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// Health is a snapshot of one member's resilience state, for tests,
// monitoring and the degraded-mode banner.
type Health struct {
	Connected     bool  // a live connection is published
	Degraded      bool  // breaker tripped; registers journal locally
	JournalLen    int   // registrations queued for replay
	Reconnects    int64 // successful reconnects
	DialFailures  int64 // failed dial attempts
	ProbeFailures int64 // dials that succeeded but failed the answer probe
	Journaled     int64 // registrations ever journaled
	Drained       int64 // journaled registrations replayed
}

func (m *member) health() Health {
	m.mu.Lock()
	h := Health{
		Connected:  m.inner.Load() != nil,
		Degraded:   m.degraded,
		JournalLen: len(m.queued),
		Drained:    m.drainedTotal.Load(), // moves with JournalLen, under mu
	}
	m.mu.Unlock()
	h.Reconnects = m.reconnects.Load()
	h.DialFailures = m.dialFailures.Load()
	h.ProbeFailures = m.probeFailures.Load()
	h.Journaled = m.journaledTotal.Load()
	return h
}

// close stops the reconnect loop and the drain, closes any live
// connection and fails later calls with ErrClientClosed. Journaled
// registrations that never drained are dropped — their taints live on in
// this process but were never assigned Global IDs.
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
