package taintmap

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/core/taint"
)

// This file implements the resilience layer around the Taint Map client
// path (DESIGN.md "Failure model"). A ResilientClient wraps the
// multiplexed RemoteClient with:
//
//   - per-call deadlines (a wedged connection fails fast instead of
//     hanging every instrumented write behind it),
//   - transparent reconnect with jittered exponential backoff,
//   - idempotent replay: registration is content-addressed, so the
//     registers journaled during an outage re-issue safely after
//     reconnect and resolve to the same Global IDs any other node got,
//   - a circuit breaker: after BreakerThreshold consecutive failed
//     reconnect attempts the client stops making callers wait and
//     enters degraded local mode,
//   - degraded local mode: while the server is unreachable, Register
//     resolves against a local content-addressed Store and returns a
//     provisional id (high bit set), queueing the registration in a
//     bounded store-and-forward journal that drains on reconnect.
//     Intra-node tracking and sink checks keep working; only
//     cross-node transfer must wait for a real Global ID (callers see
//     ErrGlobalIDPending, not a stall).

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

// DialFunc opens one connection to the Taint Map server. The
// ResilientClient calls it for the initial connection and again on
// every reconnect attempt.
type DialFunc func() (io.ReadWriteCloser, error)

// clock abstracts time for the backoff loop so tests can drive it with
// a fake instead of sleeping.
type clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// ResilientOptions tunes a ResilientClient. The zero value selects the
// documented defaults; a negative CallTimeout or JitterFrac disables
// that feature outright.
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

	// clk injects a fake clock in tests; nil means real time.
	clk clock
	// memo injects a shared id -> taint cache; nil allocates a private
	// one. The cluster client threads one memo through every member so a
	// taint resolved via any replica is warm for all of them.
	memo *cache
	// local injects the degraded-mode provisional-id store; nil
	// allocates a standalone (partition 0) one. The cluster client hands
	// each member a store of that member's partition, so even
	// provisional ids carry the partition that will eventually own them.
	local *Store
	// budget injects the shared retry budget gating reconnect dials
	// (and, at the cluster layer, hedges); nil means unbudgeted. The
	// cluster client threads one budget through every member so a
	// cluster-wide brownout cannot multiply into per-member dial storms.
	budget *Budget
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
		opt.clk = realClock{}
	}
	if opt.memo == nil {
		opt.memo = &cache{}
	}
	if opt.local == nil {
		opt.local = NewStore()
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
	blob string      // serialized taint (the content address)
	prov uint32      // provisional id handed to the caller
	t    taint.Taint // node to stamp with the real Global ID on drain
}

// ResilientClient is a Client that survives Taint Map outages. The
// healthy hot path is one atomic load plus the wrapped RemoteClient
// call; all resilience machinery sits on the failure paths.
//
// State machine: connected -> (connection failure) -> reconnecting
// (callers briefly wait) -> either connected again, or — after
// BreakerThreshold failed attempts — degraded, where Register journals
// locally and Lookup serves from the memo. Reconnect attempts continue
// at the backoff cap; on success the journal drains (idempotent
// content-addressed replay), provisional ids are remapped, and the
// client is connected again.
type ResilientClient struct {
	dial  atomic.Pointer[DialFunc] // replaced by redial, under mu
	opt   ResilientOptions
	front // the memo is shared across connection epochs

	inner atomic.Pointer[RemoteClient] // nil while disconnected

	mu           sync.Mutex
	cond         *sync.Cond // broadcast on every state transition
	seq          uint64     // state-change counter; waiters watch it
	degraded     bool
	reconnecting bool
	draining     bool // a background drainLoop is running
	closed       bool
	queued       []journalEntry
	journaled    map[uint32]struct{} // provisional ids currently queued
	remap        map[uint32]uint32   // provisional -> real Global ID

	// drainMu serializes journal drains: the reconnect loop and the
	// background drainLoop both replay c.queued, and two concurrent
	// drains would each truncate the queue by their own batch length.
	drainMu sync.Mutex

	rng  *rand.Rand // jitter; used only by the single reconnect loop
	done chan struct{}

	reconnects     atomic.Int64
	dialFailures   atomic.Int64
	probeFailures  atomic.Int64
	journaledTotal atomic.Int64
	drainedTotal   atomic.Int64
}

var _ Client = (*ResilientClient)(nil)

// NewResilientClient dials the Taint Map and returns a client that
// keeps itself connected. Construction never fails: if the first dial
// errors the client starts in the reconnecting state and callers block
// (bounded by the breaker) or run degraded until the server appears.
func NewResilientClient(dial DialFunc, tree *taint.Tree, opt ResilientOptions) *ResilientClient {
	c := &ResilientClient{
		opt:       opt.withDefaults(),
		journaled: make(map[uint32]struct{}),
		remap:     make(map[uint32]uint32),
		done:      make(chan struct{}),
	}
	c.dial.Store(&dial)
	c.front = front{tree, c.opt.memo, c}
	c.cond = sync.NewCond(&c.mu)
	c.rng = rand.New(rand.NewSource(c.opt.Seed))
	if conn, err := dial(); err == nil {
		c.inner.Store(newRemoteClientWith(conn, tree, c.memo, c.opt.CallTimeout))
	} else {
		c.dialFailures.Add(1)
		c.reconnecting = true
		go c.reconnectLoop(1)
	}
	return c
}

// isConnErr reports whether err means the connection (not the request)
// failed, so the call is worth retrying on a fresh connection.
func isConnErr(err error) bool {
	return errors.Is(err, ErrClientClosed) || errors.Is(err, ErrCallTimeout)
}

// connFailed retires a dead inner client and starts the reconnect loop.
// Concurrent callers may report the same client; only the first one
// transitions the state.
func (c *ResilientClient) connFailed(old *RemoteClient) {
	c.mu.Lock()
	if c.inner.Load() == old {
		c.inner.Store(nil)
		c.seq++
		c.cond.Broadcast()
		if !c.reconnecting && !c.closed {
			c.reconnecting = true
			go c.reconnectLoop(0)
		}
	}
	c.mu.Unlock()
	old.Close()
}

// redial points the client at a new address — its member was replaced —
// keeping everything else: the journal, the remap table and the
// provisional ids the local store has minted stay valid. The live
// connection is retired, so the reconnect loop dials the new address and
// drains there; a dial of the old address still in flight is discarded
// when it comes to publish.
func (c *ResilientClient) redial(dial DialFunc) {
	c.mu.Lock()
	c.dial.Store(&dial)
	rc := c.inner.Load()
	c.mu.Unlock()
	if rc != nil {
		c.connFailed(rc)
	}
}

// reconnectLoop re-dials with jittered exponential backoff until the
// server answers, then drains the journal and republishes the client.
// failures carries consecutive failed attempts (the constructor's
// failed first dial counts); at BreakerThreshold it trips the breaker.
func (c *ResilientClient) reconnectLoop(failures int) {
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if c.closed {
			c.reconnecting = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		dial := c.dial.Load()
		rc, err := c.connect(*dial)
		for err == nil {
			if err = c.drainJournal(rc); err != nil {
				rc.Close()
				break
			}
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				rc.Close()
				return
			}
			if c.dial.Load() != dial {
				c.mu.Unlock()
				rc.Close()
				err = errors.New("taintmap: re-addressed while connecting")
				break
			}
			if len(c.queued) == 0 {
				c.inner.Store(rc)
				c.degraded = false
				c.reconnecting = false
				c.seq++
				c.cond.Broadcast()
				c.mu.Unlock()
				c.reconnects.Add(1)
				return
			}
			// A degraded caller journaled between the drain and here;
			// drain again before publishing.
			c.mu.Unlock()
		}
		// Whatever step failed, the attempt failed: count it, trip the
		// breaker at the threshold, wait out the backoff, go again.
		failures++
		c.maybeTrip(failures)
		if !c.sleep(attempt) {
			return
		}
	}
}

// connect makes one reconnect attempt: a budgeted dial and the answer
// probe. Reconnect dials are retry traffic: they spend from the shared
// budget, so a fleet-wide brownout cannot be amplified into a dial
// storm; a denied attempt fails like a refused dial.
func (c *ResilientClient) connect(dial DialFunc) (*RemoteClient, error) {
	if !c.opt.budget.TryTake(1) {
		return nil, errors.New("taintmap: retry budget denied the reconnect dial")
	}
	conn, err := dial()
	if err != nil {
		c.dialFailures.Add(1)
		return nil, err
	}
	rc := newRemoteClientWith(conn, c.tree, c.memo, c.opt.CallTimeout)
	// Probe before trusting the connection: a gray-failing server
	// accepts the dial and then never answers, and publishing it
	// would hand every caller a stall. One stats round trip (bounded
	// by the watchdog) proves the server is answering. Skipped when
	// deadlines are disabled — the probe itself could hang forever.
	if c.opt.CallTimeout > 0 {
		if _, err := rc.call(opStatsTag, nil, time.Time{}); err != nil {
			rc.Close()
			c.probeFailures.Add(1)
			return nil, err
		}
	}
	return rc, nil
}

// maybeTrip flips the client into degraded mode once enough consecutive
// reconnect attempts have failed, releasing every waiting caller into
// the local path.
func (c *ResilientClient) maybeTrip(failures int) {
	if failures < c.opt.BreakerThreshold {
		return
	}
	c.mu.Lock()
	if !c.degraded && !c.closed {
		c.degraded = true
		c.seq++
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// sleep waits out the backoff delay for attempt; false means the client
// closed and the loop must exit.
func (c *ResilientClient) sleep(attempt int) bool {
	d := backoffDelay(attempt, c.opt.BackoffBase, c.opt.BackoffMax, c.opt.JitterFrac, c.rng)
	select {
	case <-c.opt.clk.After(d):
		return true
	case <-c.done:
		c.mu.Lock()
		c.reconnecting = false
		c.mu.Unlock()
		return false
	}
}

// drainJournal replays every queued registration through rc. Replay is
// idempotent: registration is content-addressed, so re-sending a blob
// the server already has (from a pre-crash send or another node)
// returns the same Global ID. Each drained entry remaps its provisional
// id and stamps the real id onto the taint node.
func (c *ResilientClient) drainJournal(rc *RemoteClient) error {
	c.drainMu.Lock()
	defer c.drainMu.Unlock()
	for {
		c.mu.Lock()
		batch := c.queued
		c.mu.Unlock()
		if len(batch) == 0 {
			return nil
		}
		ids := make([]uint32, len(batch))
		for i, e := range batch {
			id, err := rc.registerBlob(e.t, []byte(e.blob))
			if err != nil {
				return err
			}
			ids[i] = id
		}
		c.mu.Lock()
		for i, e := range batch {
			c.remap[e.prov] = ids[i]
			e.t.SetGlobalID(ids[i])
			c.memo.put(ids[i], e.t)
			delete(c.journaled, e.prov)
		}
		// New entries may have been appended behind the batch; keep them.
		c.queued = c.queued[len(batch):]
		c.mu.Unlock()
		c.drainedTotal.Add(int64(len(batch)))
	}
}

// journalLocked registers t (serialized as blob) against the local store
// and queues the registration for replay, returning a provisional id.
// Caller holds c.mu.
func (c *ResilientClient) journalLocked(t taint.Taint, blob []byte) (uint32, error) {
	prov := provisionalBit | c.opt.local.RegisterBlob(blob)
	if gid, ok := c.remap[prov]; ok {
		// Seen and drained in an earlier outage: the real id is known.
		t.SetGlobalID(gid)
		c.memo.put(gid, t)
		return gid, nil
	}
	if _, ok := c.journaled[prov]; ok {
		return prov, nil
	}
	if len(c.queued) >= c.opt.JournalLimit {
		return 0, fmt.Errorf("%w (%d queued)", ErrJournalFull, len(c.queued))
	}
	c.queued = append(c.queued, journalEntry{blob: string(blob), prov: prov, t: t})
	c.journaled[prov] = struct{}{}
	c.journaledTotal.Add(1)
	// Memoize under the provisional id so sink-side lookups resolve
	// locally. The real Global ID is NOT stamped on t: cross-node
	// transfer must keep failing with ErrGlobalIDPending until drain.
	c.memo.put(prov, t)
	return prov, nil
}

// journalAllLocked journals every registration of a batch, returning the
// parallel provisional ids. Caller holds c.mu.
func (c *ResilientClient) journalAllLocked(ts []taint.Taint, blobs [][]byte) (ids []uint32, err error) {
	ids = make([]uint32, len(ts))
	for i, t := range ts {
		if ids[i], err = c.journalLocked(t, blobs[i]); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// journalFallback journals a batch regardless of breaker state: the
// partition-scoped degraded path. The cluster client calls it when a
// whole partition is effectively unavailable — every replica down, the
// retry budget empty, or the owner shedding load (ErrOverloaded) — so the
// caller gets provisional ids now instead of an error, and a background
// drain replays the journal as soon as this member's connection can
// absorb it, without waiting for a full disconnect/reconnect cycle.
func (c *ResilientClient) journalFallback(ts []taint.Taint, blobs [][]byte) ([]uint32, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	ids, err := c.journalAllLocked(ts, blobs)
	kick := err == nil && !c.draining && c.inner.Load() != nil
	if kick {
		c.draining = true
	}
	c.mu.Unlock()
	if kick {
		go c.drainLoop()
	}
	return ids, err
}

// drainLoop replays journalFallback entries in the background while the
// client stays connected. On any drain failure it stops: the entries
// stay queued and the reconnect loop replays them before republishing a
// fresh connection.
func (c *ResilientClient) drainLoop() {
	ok := true
	defer func() {
		c.mu.Lock()
		again := ok && !c.closed && len(c.queued) > 0 && c.inner.Load() != nil
		c.draining = again
		c.mu.Unlock()
		if again {
			// An entry landed between the last pass and here; keep going
			// so it does not sit until the next fallback or reconnect.
			go c.drainLoop()
		}
	}()
	for {
		rc := c.inner.Load()
		c.mu.Lock()
		done := c.closed || len(c.queued) == 0
		c.mu.Unlock()
		if done || rc == nil {
			return
		}
		if err := c.drainJournal(rc); err != nil {
			if isConnErr(err) {
				c.connFailed(rc)
				ok = false
				return
			}
			// The server answered but refused the replay — most likely
			// still shedding (ErrOverloaded). Retry after a full backoff
			// while the budget allows; once it denies, the journal waits
			// for the next fallback kick or reconnect drain.
			if !c.opt.budget.TryTake(1) {
				ok = false
				return
			}
			select {
			case <-c.opt.clk.After(c.opt.BackoffMax):
			case <-c.done:
				ok = false
				return
			}
		}
	}
}

// withConn is the failover loop every request runs in — the one place a
// reconnect is decided and the one place a caller waits on the breaker.
// try runs on the live connection; when it fails because the connection
// (not the request) died, the connection is retired, the reconnect loop
// started, and try runs again on the next one. While disconnected the
// caller waits for a state change, bounded by the breaker; once the
// breaker has tripped, degraded (called with c.mu held) answers instead.
//
// A nil degraded makes the call fail-fast, for callers with somewhere
// else to go (a hedged read has other replicas; cluster maintenance
// traffic is meaningless without a server): one attempt on whatever
// connection is live right now, no reconnect wait, no breaker wait.
func (c *ResilientClient) withConn(try func(*RemoteClient) error, degraded func() error) error {
	for {
		if rc := c.inner.Load(); rc != nil {
			err := try(rc)
			if err == nil || !isConnErr(err) {
				return err
			}
			c.connFailed(rc)
			if degraded == nil {
				return err
			}
			continue
		}
		if degraded == nil {
			return fmt.Errorf("%w: no connection", ErrDegraded)
		}
		c.mu.Lock()
		switch {
		case c.closed:
			c.mu.Unlock()
			return ErrClientClosed
		case c.inner.Load() != nil:
		case c.degraded:
			err := degraded()
			c.mu.Unlock()
			return err
		default:
			for seq := c.seq; c.seq == seq && !c.closed; {
				c.cond.Wait()
			}
		}
		c.mu.Unlock()
	}
}

// register implements transport. Healthy: the live connection's batch,
// stamped there. Disconnected: waits for reconnect, bounded by the
// breaker. Degraded: every entry journals and gets a provisional id (not
// stamped on the taint, per the ErrGlobalIDPending contract).
func (c *ResilientClient) register(ts []taint.Taint, blobs [][]byte) (ids []uint32, err error) {
	err = c.withConn(func(rc *RemoteClient) (err error) {
		ids, err = rc.register(ts, blobs)
		return err
	}, func() (err error) {
		ids, err = c.journalAllLocked(ts, blobs)
		return err
	})
	return ids, err
}

// rawCall issues one protocol op on the live connection — the cluster
// client's channel for ring fetches and read-repair pushes. Fail-fast:
// there is nothing to journal and nobody to wait for.
func (c *ResilientClient) rawCall(op byte, payload []byte) (reply []byte, err error) {
	err = c.withConn(func(rc *RemoteClient) (err error) {
		reply, err = rc.call(op, payload, time.Time{})
		return err
	}, nil)
	return reply, err
}

// lookup implements transport: the same healthy/wait/degraded paths as
// register. Provisional ids never reach the wire: a batch holding any
// goes id by id, those through the remap table or the local store.
func (c *ResilientClient) lookup(ids []uint32) ([]taint.Taint, error) {
	if !slices.ContainsFunc(ids, IsProvisional) {
		return c.lookupLeg(ids, time.Time{}, false)
	}
	ts := make([]taint.Taint, len(ids))
	for i, id := range ids {
		var err error
		if IsProvisional(id) {
			ts[i], err = c.lookupProvisional(id)
		} else {
			ts[i], err = c.Lookup(id)
		}
		if err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// lookupLeg fetches real ids on the live connection. A non-zero deadline
// bounds the wire wait inline, without declaring the connection wedged,
// and failFast gives up instead of waiting out a reconnect — together the
// per-member leg of the cluster client's hedged reads. Degraded, only the
// memo can answer, and it already declined these ids.
func (c *ResilientClient) lookupLeg(ids []uint32, deadline time.Time, failFast bool) (ts []taint.Taint, err error) {
	var degraded func() error
	if !failFast {
		degraded = func() error {
			return fmt.Errorf("%w: lookup of %d unknown ids", ErrDegraded, len(ids))
		}
	}
	err = c.withConn(func(rc *RemoteClient) (err error) {
		ts, err = rc.lookupDeadline(ids, deadline)
		return err
	}, degraded)
	return ts, err
}

// lookupProvisional resolves a provisional id: through the remap table
// when a drain already assigned the real Global ID, else from the local
// store the id was minted by.
func (c *ResilientClient) lookupProvisional(id uint32) (taint.Taint, error) {
	c.mu.Lock()
	gid, remapped := c.remap[id]
	c.mu.Unlock()
	if remapped {
		return c.Lookup(gid)
	}
	blob, err := c.opt.local.LookupBlob(id &^ provisionalBit)
	if err != nil {
		return taint.Taint{}, err
	}
	t, err := c.tree.UnmarshalTaint(blob)
	if err != nil {
		return taint.Taint{}, err
	}
	// No SetGlobalID: the node must not carry a provisional id into the
	// cross-node transfer path.
	c.memo.put(id, t)
	return t, nil
}

// Health is a snapshot of the resilience state, for tests, monitoring
// and the degraded-mode banner.
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

// Health reports the client's current resilience state.
func (c *ResilientClient) Health() Health {
	c.mu.Lock()
	h := Health{
		Connected:  c.inner.Load() != nil,
		Degraded:   c.degraded,
		JournalLen: len(c.queued),
	}
	c.mu.Unlock()
	h.Reconnects = c.reconnects.Load()
	h.DialFailures = c.dialFailures.Load()
	h.ProbeFailures = c.probeFailures.Load()
	h.Journaled = c.journaledTotal.Load()
	h.Drained = c.drainedTotal.Load()
	return h
}

// Close implements Client: it stops the reconnect loop, closes any live
// connection and fails subsequent calls with ErrClientClosed. Journaled
// registrations that never drained are dropped — their taints live on
// in this process but were never assigned Global IDs.
func (c *ResilientClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	rc := c.inner.Load()
	c.inner.Store(nil)
	c.seq++
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.done)
	if rc != nil {
		return rc.Close()
	}
	return nil
}
