package taintmap

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/bench/hist"
	"dista/internal/core/taint"
)

// ClusterClient is a Client over a partitioned, replicated Taint Map:
// one handle that makes N taintmapd instances look like the single
// logical map the rest of the tracker was written against.
//
// Routing is stateless on both axes. Registrations hash the serialized
// taint (the blobs are content-addressed, so the hash is stable across
// nodes and retries) onto the ring to find the owning partition;
// lookups read the partition index straight out of the id's high bits
// (see idspace.go) and may be served by the owner or any ring successor
// replicating it — the client rotates across them to spread load, falls
// through on a replica that does not (yet) hold the id, and pushes the
// entries back to such replicas once resolved (read-repair).
//
// Every member is fronted by its own ResilientClient, so the PR 3
// failure machinery applies per partition: a dead member's traffic
// journals against a partition-local store (provisional ids carry the
// partition that will own them) and drains when the member returns,
// while the other partitions stay healthy. A membership change is just
// a new ring: in-flight registrations complete against the members that
// accepted them, and only future registrations re-route.
type ClusterClient struct {
	dial  func(addr string) (io.ReadWriteCloser, error)
	opt   ClusterOptions
	front // the memo is shared by every member client

	ring atomic.Pointer[Ring]

	// table is the lock-free member snapshot the request paths route
	// through, indexed by partition. Rebuilt from members under mu on
	// every membership change; readers only Load. Keeping the hot path
	// off mu matters: every miss resolves its owner handle, and eight
	// workload goroutines serializing on a mutex just to index a
	// read-mostly map measurably dents register throughput.
	table atomic.Pointer[[MaxPartitions]*clusterMember]

	mu      sync.Mutex
	members map[uint32]*clusterMember
	closed  bool

	rr       atomic.Uint32 // lookup replica rotation
	repaired atomic.Int64  // entries pushed back to stale replicas

	// budget is the shared retry budget: one bucket gating every
	// member's reconnect dials and this layer's hedges, so a brownout
	// cannot multiply into a cluster-wide retry storm.
	budget *Budget
	hedge  hist.Hist

	hedges       atomic.Int64 // hedge attempts launched
	hedgeWins    atomic.Int64 // lookups won by the hedged attempt
	budgetDenied atomic.Int64 // hedges suppressed by the empty budget
}

var _ Client = (*ClusterClient)(nil)

// ClusterOptions tunes a ClusterClient.
type ClusterOptions struct {
	// Resilient configures each member's resilience layer (defaults as
	// in ResilientOptions).
	Resilient ResilientOptions

	// HedgeDelay is the initial replica-lookup hedge delay: how long the
	// first attempt may run before the next replica is raced against it.
	// Once the latency tracker has warmed up, the observed p99 replaces
	// this value, so it only matters for the first few dozen lookups.
	// Zero means the 20ms default; negative disables hedging entirely
	// and restores sequential replica rotation.
	HedgeDelay time.Duration

	// OpTimeout bounds one whole lookup operation — all replica
	// attempts and hedges together. Zero means no operation deadline
	// (each attempt is still bounded by Resilient.CallTimeout).
	OpTimeout time.Duration

	// BudgetRate and BudgetBurst configure the shared retry budget in
	// tokens per second and bucket capacity. Reconnect dials and hedges
	// each cost one token; first attempts are free. Zero means the
	// defaults (50/s, burst 100); negative disables budgeting.
	BudgetRate  float64
	BudgetBurst float64
}

// withClusterDefaults fills the zero values in, the clock every member and
// the shared budget run on included.
func (o ClusterOptions) withClusterDefaults() ClusterOptions {
	if o.Resilient.clk == nil {
		o.Resilient.clk = realClock{}
	}
	if o.HedgeDelay == 0 {
		o.HedgeDelay = 20 * time.Millisecond
	}
	if o.BudgetRate == 0 {
		o.BudgetRate = 50
	}
	if o.BudgetBurst == 0 {
		o.BudgetBurst = 100
	}
	return o
}

// DialClusterAddrs builds a Client from a flat endpoint list — the form
// a deployment writes in its agent args, where the addresses are known
// but the partition layout is the cluster's own business. One address
// is the degenerate deployment and gets the plain single-server
// resilient client (no routing layer to pay for). Several addresses
// bootstrap a ClusterClient: the ring (partition indices, replication
// factor, any members missing from the list) is fetched from the first
// address that answers, so the list only has to name enough live
// members to find the cluster, not describe it.
func DialClusterAddrs(addrs []string, dial func(addr string) (io.ReadWriteCloser, error), tree *taint.Tree, opt ClusterOptions) (Client, error) {
	switch len(addrs) {
	case 0:
		return nil, errors.New("taintmap: no taint map addresses")
	case 1:
		addr := addrs[0]
		opt = opt.withClusterDefaults()
		ropt := opt.Resilient
		ropt.budget = newBudgetClock(opt.BudgetRate, opt.BudgetBurst, ropt.clk)
		return NewResilientClient(func() (io.ReadWriteCloser, error) { return dial(addr) }, tree, ropt), nil
	}
	// The ring fetch runs under the members' call timeout: a gray seed
	// (accepts the dial, never answers) costs one timeout and the next
	// address gets its turn.
	timeout := opt.Resilient.callTimeout()
	ring, err := fetchRing(len(addrs), func(i int) ([]byte, error) {
		conn, err := dial(addrs[i])
		if err != nil {
			return nil, err
		}
		rc := newRemoteClientWith(conn, tree, &cache{}, timeout)
		defer rc.Close()
		return rc.call(opRingTag, nil, time.Time{})
	})
	if err != nil {
		return nil, fmt.Errorf("taintmap: cluster bootstrap from %d addresses: %w", len(addrs), err)
	}
	return NewClusterClient(ring, dial, tree, opt)
}

// fetchRing asks up to n sources for the ring, in order, and returns the
// first answer that parses.
func fetchRing(n int, ask func(i int) ([]byte, error)) (*Ring, error) {
	var lastErr error = ErrDegraded
	for i := 0; i < n; i++ {
		reply, err := ask(i)
		if err == nil {
			var r *Ring
			if r, err = parseRing(reply); err == nil {
				return r, nil
			}
		}
		lastErr = err
	}
	return nil, lastErr
}

// clusterMember is one ring member's client handle.
type clusterMember struct {
	addr string
	rc   *ResilientClient
}

// NewClusterClient builds a client over the given membership. dial
// opens a connection to a member address; it is called per member and
// again on every reconnect.
func NewClusterClient(ring *Ring, dial func(addr string) (io.ReadWriteCloser, error), tree *taint.Tree, opt ClusterOptions) (*ClusterClient, error) {
	opt = opt.withClusterDefaults()
	c := &ClusterClient{
		dial:    dial,
		opt:     opt,
		members: make(map[uint32]*clusterMember),
	}
	c.front = front{tree, &cache{}, c}
	c.budget = newBudgetClock(opt.BudgetRate, opt.BudgetBurst, opt.Resilient.clk)
	c.ring.Store(ring)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range ring.Members() {
		if err := c.addMemberLocked(m); err != nil {
			return nil, err
		}
	}
	c.publishLocked()
	return c, nil
}

// publishLocked rebuilds the lock-free member table from c.members.
// Caller holds c.mu.
func (c *ClusterClient) publishLocked() {
	var t [MaxPartitions]*clusterMember
	for part, cm := range c.members {
		t[part] = cm
	}
	c.table.Store(&t)
}

// addMemberLocked creates the client handle for one member: a
// ResilientClient sharing the cluster-wide memo, journaling against a
// store of the member's own partition. Caller holds c.mu.
func (c *ClusterClient) addMemberLocked(m Member) error {
	local, err := NewPartitionStore(m.Part)
	if err != nil {
		return err
	}
	ropt := c.opt.Resilient
	ropt.memo = c.memo
	ropt.local = local
	ropt.budget = c.budget
	c.members[m.Part] = &clusterMember{addr: m.Addr, rc: NewResilientClient(c.dialer(m.Addr), c.tree, ropt)}
	return nil
}

// dialer is a member's DialFunc: c.dial at its address.
func (c *ClusterClient) dialer(addr string) DialFunc {
	return func() (io.ReadWriteCloser, error) { return c.dial(addr) }
}

// member returns the handle for a partition, nil when the partition has
// no member (e.g. ids minted under an older ring by a departed server —
// the caller falls through to the partition's replicas).
func (c *ClusterClient) member(part uint32) *clusterMember {
	if part >= MaxPartitions {
		return nil
	}
	return c.table.Load()[part]
}

// Ring returns the membership snapshot the client is routing on.
func (c *ClusterClient) Ring() *Ring { return c.ring.Load() }

// Repaired reports how many entries this client pushed back to stale
// replicas.
func (c *ClusterClient) Repaired() int64 { return c.repaired.Load() }

// UpdateRing installs a newer membership snapshot: handles are created
// for new members, re-dialed for re-addressed ones — the handle, and with
// it the journal, the remap table and the provisional ids it has handed
// out, survives; only the connection is replaced — and kept for departed
// ones (their partition's ids stay resolvable and any journaled
// registrations still drain if the server returns). Rings with a stale
// epoch are ignored.
func (c *ClusterClient) UpdateRing(r *Ring) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	if r.Epoch < c.ring.Load().Epoch {
		return nil
	}
	for _, m := range r.Members() {
		cm := c.members[m.Part]
		if cm == nil {
			if err := c.addMemberLocked(m); err != nil {
				return err
			}
			continue
		}
		if cm.addr != m.Addr {
			cm.addr = m.Addr
			cm.rc.redial(c.dialer(m.Addr))
		}
	}
	c.publishLocked()
	c.ring.Store(r)
	return nil
}

// Refresh fetches the ring from the first member that answers and
// installs it — how a client learns that a server joined.
func (c *ClusterClient) Refresh() (*Ring, error) {
	c.mu.Lock()
	handles := make([]*clusterMember, 0, len(c.members))
	for _, cm := range c.members {
		handles = append(handles, cm)
	}
	c.mu.Unlock()
	r, err := fetchRing(len(handles), func(i int) ([]byte, error) {
		return handles[i].rc.rawCall(opRingTag, nil)
	})
	if err != nil {
		return nil, fmt.Errorf("taintmap: ring refresh: %w", err)
	}
	if err := c.UpdateRing(r); err != nil {
		return nil, err
	}
	return c.ring.Load(), nil
}

// replicaOrder appends to cms (the caller's stack array: a replica set
// is a handful) the live member handles of a partition's replica set,
// rotated so successive lookups start on different replicas.
func (c *ClusterClient) replicaOrder(part uint32, cms []*clusterMember) []*clusterMember {
	reps := c.ring.Load().Replicas(part)
	start := int(c.rr.Add(1)) % len(reps)
	for i := range reps {
		if cm := c.member(reps[(start+i)%len(reps)]); cm != nil {
			cms = append(cms, cm)
		}
	}
	return cms
}

// hedgeWarmup is the observation count below which the latency
// histogram is considered too sparse to trust and the configured
// initial hedge delay is used instead.
const hedgeWarmup = 32

// hedgeDelay is the delay before a lookup's first attempt gets raced by
// the next replica: the tracked p99 once warm, the configured initial
// delay before that.
func (c *ClusterClient) hedgeDelay() time.Duration {
	if c.hedge.Count() >= hedgeWarmup {
		if d, ok := c.hedge.Quantile(0.99); ok {
			return d
		}
	}
	return c.opt.HedgeDelay
}

// hedgedCall runs one fail-fast lookup leg (the call closure) against the
// replicas in order, hedging: the first attempt runs alone until the
// tracked p99 elapses, then — if the retry budget grants a token — the
// next replica is raced against it and the first success wins. A
// *failed* attempt falls through to the next replica immediately and
// for free; that is rotation, not hedging, and charging it would let a
// dead replica drain the budget. Losing attempts are abandoned (their
// goroutines park on the member's own call timeout and deliver into a
// buffered channel), and replicas that answered ErrUnknownGlobalID are
// returned for read-repair beside the winner's taints.
func (c *ClusterClient) hedgedCall(cms []*clusterMember, call func(cm *clusterMember, deadline time.Time) ([]taint.Taint, error)) (ts []taint.Taint, stale []*clusterMember, err error) {
	var deadline time.Time
	if c.opt.OpTimeout > 0 {
		deadline = time.Now().Add(c.opt.OpTimeout)
	}
	type outcome struct {
		cm     *clusterMember
		ts     []taint.Taint
		err    error
		took   time.Duration
		hedged bool
	}
	results := make(chan outcome, len(cms))
	next, inflight := 0, 0
	launch := func(hedged bool) {
		cm := cms[next]
		next++
		inflight++
		go func() {
			start := time.Now()
			ts, e := call(cm, deadline)
			results <- outcome{cm: cm, ts: ts, err: e, took: time.Since(start), hedged: hedged}
		}()
	}
	launch(false)
	var timerC <-chan time.Time
	if next < len(cms) {
		timer := time.NewTimer(c.hedgeDelay())
		defer timer.Stop()
		timerC = timer.C
	}
	lastErr := error(ErrDegraded)
	for inflight > 0 {
		select {
		case out := <-results:
			inflight--
			if out.err == nil {
				c.hedge.Observe(out.took)
				if out.hedged {
					c.hedgeWins.Add(1)
				}
				return out.ts, stale, nil
			}
			lastErr = out.err
			if errors.Is(out.err, ErrUnknownGlobalID) {
				stale = append(stale, out.cm)
			}
			if next < len(cms) {
				launch(false)
			}
		case <-timerC:
			timerC = nil
			if next < len(cms) {
				if c.budget.TryTake(1) {
					c.hedges.Add(1)
					launch(true)
				} else {
					c.budgetDenied.Add(1)
				}
			}
		}
	}
	return nil, stale, lastErr
}

// register implements transport: the taints are routed by content hash
// to their owning partitions, and each partition's group goes to its
// owner as one batch (so a cluster-wide batch costs one round trip per
// partition, not per taint). A batch with a single owner — every batch of
// one, every batch on a one-member ring — is its own group and is not
// regrouped.
func (c *ClusterClient) register(ts []taint.Taint, blobs [][]byte) ([]uint32, error) {
	ring := c.ring.Load()
	var ownerBuf [16]uint32 // keeps small batches off the heap
	owners := ownerBuf[:0]
	oneOwner := true
	for _, blob := range blobs {
		owners = append(owners, ring.OwnerOfBlob(blob))
		oneOwner = oneOwner && owners[len(owners)-1] == owners[0]
	}
	if oneOwner {
		return c.registerGroup(owners[0], ts, blobs)
	}
	ids := make([]uint32, len(ts))
	for part := uint32(0); part < MaxPartitions; part++ {
		var gts []taint.Taint
		var gblobs [][]byte
		for i, owner := range owners {
			if owner == part {
				gts = append(gts, ts[i])
				gblobs = append(gblobs, blobs[i])
			}
		}
		if len(gts) == 0 {
			continue
		}
		got, err := c.registerGroup(part, gts, gblobs)
		if err != nil {
			return nil, err
		}
		for i, owner := range owners {
			if owner == part {
				ids[i], got = got[0], got[1:]
			}
		}
	}
	return ids, nil
}

// registerGroup registers one owner partition's distinct pre-marshaled
// taints with that owner, journaling locally if the member is down.
func (c *ClusterClient) registerGroup(part uint32, ts []taint.Taint, blobs [][]byte) ([]uint32, error) {
	cm := c.member(part)
	if cm == nil {
		return nil, fmt.Errorf("%w: no member for owner partition %d", ErrDegraded, part)
	}
	ids, err := cm.rc.register(ts, blobs)
	if errors.Is(err, ErrOverloaded) {
		// The owner is shedding load, not down: journal the group into
		// that partition's degraded mode instead of failing the caller —
		// the provisional ids remap when the drain replays them.
		return cm.rc.journalFallback(ts, blobs)
	}
	return ids, err
}

// lookup implements transport: the ids are grouped by their partition
// bits (provisional ids apart — they resolve via the minting member's
// journal and never reach the wire or the replica set) and resolved per
// group. A batch with a single group — every batch of one, every batch
// read back from one partition — is its own group and is not regrouped.
func (c *ClusterClient) lookup(ids []uint32) ([]taint.Taint, error) {
	// A group's key is everything of an id but its sequence: the
	// partition field plus the provisional bit.
	var keyBuf [16]uint32 // keeps small batches off the heap
	keys := keyBuf[:0]
	oneGroup := true
	for _, id := range ids {
		keys = append(keys, id&^seqMask)
		oneGroup = oneGroup && keys[len(keys)-1] == keys[0]
	}
	if oneGroup {
		return c.lookupGroup(keys[0], ids)
	}
	ts := make([]taint.Taint, len(ids))
	const taken = seqMask // no key has sequence bits set
	for i, key := range keys {
		if key == taken {
			continue
		}
		var group []uint32
		for j := i; j < len(keys); j++ {
			if keys[j] == key {
				group = append(group, ids[j])
			}
		}
		got, err := c.lookupGroup(key, group)
		if err != nil {
			return nil, err
		}
		for j := i; j < len(keys); j++ {
			if keys[j] == key {
				ts[j], got = got[0], got[1:]
				keys[j] = taken
			}
		}
	}
	return ts, nil
}

// lookupGroup resolves the ids of one group. Provisional ids go through
// the journal of the member that minted them. Real ids rotate across the
// partition's replicas: a replica that does not hold the ids falls through
// to the next and is healed afterwards by read-repair. With several
// replicas the rotation is hedged (see hedgedCall) and every leg is
// fail-fast; with one replica, or hedging disabled, the legs run in
// sequence, each with its member's full resilience machinery.
func (c *ClusterClient) lookupGroup(key uint32, group []uint32) ([]taint.Taint, error) {
	part := PartitionOf(key)
	if IsProvisional(key) {
		cm := c.member(part)
		if cm == nil {
			return nil, fmt.Errorf("%w: provisional ids of unknown member", ErrDegraded)
		}
		return cm.rc.lookup(group)
	}
	var buf [MaxPartitions]*clusterMember
	cms := c.replicaOrder(part, buf[:0])
	if len(cms) == 0 {
		return nil, fmt.Errorf("%w: no member for partition %d", ErrDegraded, part)
	}
	hedge := len(cms) > 1 && c.opt.HedgeDelay >= 0
	leg := func(cm *clusterMember, deadline time.Time) ([]taint.Taint, error) {
		return cm.rc.lookupLeg(group, deadline, hedge)
	}
	var ts []taint.Taint
	var stale []*clusterMember
	var err error
	if hedge {
		ts, stale, err = c.hedgedCall(cms, leg)
	} else {
		err = ErrDegraded
		for _, cm := range cms {
			if ts, err = leg(cm, time.Time{}); err == nil {
				break
			}
			if errors.Is(err, ErrUnknownGlobalID) {
				// This replica is missing the entries, not down: remember
				// it for read-repair once another replica resolves them.
				stale = append(stale, cm)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	c.repairTo(stale, group, ts)
	return ts, nil
}

// repairTo pushes resolved (id, taint) entries to replicas that were
// observed missing them. Best-effort: a failed push leaves the replica
// for the next reader (or the owner's hinted entries) to heal.
func (c *ClusterClient) repairTo(stale []*clusterMember, ids []uint32, ts []taint.Taint) {
	if len(stale) == 0 {
		return
	}
	blobs := make([][]byte, 0, len(ts))
	okIDs := make([]uint32, 0, len(ts))
	for i, t := range ts {
		blob, err := taint.MarshalTaint(t)
		if err != nil {
			continue
		}
		okIDs = append(okIDs, ids[i])
		blobs = append(blobs, blob)
	}
	if len(okIDs) == 0 {
		return
	}
	payload := appendEntries(nil, okIDs, blobs)
	for _, cm := range stale {
		if _, err := cm.rc.rawCall(opRepairTag, payload); err == nil {
			c.repaired.Add(int64(len(okIDs)))
		}
	}
}

// Healths reports each member's resilience state, keyed by partition.
func (c *ClusterClient) Healths() map[uint32]Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint32]Health, len(c.members))
	for part, cm := range c.members {
		out[part] = cm.rc.Health()
	}
	return out
}

// ClusterHealth is a cluster-wide snapshot: per-member resilience
// state plus the hedge, budget and degradation gauges that only exist
// at this layer.
type ClusterHealth struct {
	Members            map[uint32]Health
	DegradedPartitions []uint32 // partitions journaling locally (breaker tripped)

	Hedges       int64         // hedge attempts launched
	HedgeWins    int64         // lookups won by the hedged attempt
	BudgetDenied int64         // hedges suppressed by an empty budget
	BudgetTokens float64       // tokens currently in the shared budget
	HedgeDelay   time.Duration // delay the next hedge would use
	Repaired     int64         // entries pushed back to stale replicas
}

// Health reports the cluster client's current state.
func (c *ClusterClient) Health() ClusterHealth {
	h := ClusterHealth{
		Members:      c.Healths(),
		Hedges:       c.hedges.Load(),
		HedgeWins:    c.hedgeWins.Load(),
		BudgetDenied: c.budgetDenied.Load(),
		BudgetTokens: c.budget.Tokens(),
		HedgeDelay:   c.hedgeDelay(),
		Repaired:     c.repaired.Load(),
	}
	for part, mh := range h.Members {
		if mh.Degraded {
			h.DegradedPartitions = append(h.DegradedPartitions, part)
		}
	}
	sort.Slice(h.DegradedPartitions, func(i, j int) bool {
		return h.DegradedPartitions[i] < h.DegradedPartitions[j]
	})
	return h
}

// Close implements Client: it closes every member handle.
func (c *ClusterClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	handles := make([]*clusterMember, 0, len(c.members))
	for _, cm := range c.members {
		handles = append(handles, cm)
	}
	c.mu.Unlock()
	var first error
	for _, cm := range handles {
		if err := cm.rc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
