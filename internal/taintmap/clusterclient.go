package taintmap

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/core/taint"
	"dista/internal/hist"
)

// ClusterClient is the Client over Taint Map servers: one handle that
// makes N taintmapd instances — or one — look like the single logical
// map the rest of the tracker was written against. Under the front
// (client.go) it is a stack of layers with the same two methods, each
// handed the work of the one above it (DESIGN.md §4):
//
//   - route (register, lookup): registrations hash the serialized taint
//     (content-addressed, so the hash is stable across nodes and
//     retries) onto the ring to find the owning partition, and each
//     owner gets its group as one batch; lookups read the partition
//     straight out of an id's high bits (idspace.go), provisional ids
//     apart — they go to the member whose journal minted them;
//   - replicas: one loop over a partition's replica set, rotated to
//     spread load — inline on a single replica, hedged after the tracked
//     p99 on several — that falls through a replica not (yet) holding
//     the ids and pushes them back to it once resolved (read-repair);
//   - member (resilient.go): failover, breaker and journal per server, so
//     a dead member's registrations journal against a store of its
//     partition and drain when it returns, while the other partitions
//     stay healthy;
//   - conn (mux.go): the multiplexed RemoteClient.
//
// A single server is a cluster of one: a ring of one member owns every
// blob and answers for every id, whatever its partition bits. A
// membership change is just a new ring: in-flight registrations complete
// against the members that accepted them, and only future registrations
// re-route.
type ClusterClient struct {
	dial  func(addr string) (io.ReadWriteCloser, error)
	opt   ClusterOptions // defaults applied
	front                // every member's connections adopt into its memo

	ring atomic.Pointer[Ring]

	// table holds the member handles by partition. A membership change
	// copies it, edits the copy and publishes it under mu; the request
	// paths only Load. Keeping the hot path off mu matters: every miss
	// resolves its owner handle, and eight workload goroutines
	// serializing on a mutex just to index a read-mostly table
	// measurably dents register throughput.
	table atomic.Pointer[[MaxPartitions]*member]

	mu     sync.Mutex // membership changes and Close
	closed bool

	rr       atomic.Uint32 // lookup replica rotation
	repaired atomic.Int64  // entries pushed back to stale replicas

	// budget is the shared retry budget: one bucket gating every
	// member's reconnect dials and drain retries and the replica loop's
	// hedges, so a brownout cannot multiply into a cluster-wide retry
	// storm.
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
	// Zero or negative means the 20ms default.
	HedgeDelay time.Duration

	// OpTimeout bounds one whole lookup operation — every replica
	// attempt and hedge together, on a single replica as on several.
	// Zero means no operation deadline (each attempt is still bounded by
	// Resilient.CallTimeout).
	OpTimeout time.Duration

	// BudgetRate and BudgetBurst configure the shared retry budget in
	// tokens per second and bucket capacity. Reconnect dials and hedges
	// each cost one token; first attempts are free. Zero means the
	// defaults (50/s, burst 100); negative disables budgeting.
	BudgetRate  float64
	BudgetBurst float64
}

// withClusterDefaults fills the zero values in, the members' options and
// the clock everything runs on included.
func (o ClusterOptions) withClusterDefaults() ClusterOptions {
	o.Resilient = o.Resilient.withDefaults()
	if o.HedgeDelay <= 0 {
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
// but the partition layout is the cluster's own business. One address is
// a cluster of one: its ring — that address as partition 0 — is built
// here without a fetch, so construction cannot fail on the network.
// Several addresses bootstrap the ring (partition indices, replication
// factor, any members missing from the list) from the first address
// that answers, so the list only has to name enough live members to find
// the cluster, not describe it.
func DialClusterAddrs(addrs []string, dial func(addr string) (io.ReadWriteCloser, error), tree *taint.Tree, opt ClusterOptions) (Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("taintmap: no taint map addresses")
	}
	ring, err := NewRing(0, 1, []Member{{Part: 0, Addr: addrs[0]}})
	if len(addrs) > 1 {
		// The ring fetch runs under the members' call timeout: a gray
		// seed (accepts the dial, never answers) costs one timeout and
		// the next address gets its turn.
		timeout := opt.Resilient.callTimeout()
		ring, err = fetchRing(len(addrs), func(i int) ([]byte, error) {
			conn, err := dial(addrs[i])
			if err != nil {
				return nil, err
			}
			rc := newRemoteClientWith(conn, tree, &cache{}, timeout)
			defer rc.Close()
			return rc.call(opRingTag, nil, time.Time{})
		})
	}
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

// NewClusterClient builds a client over the given membership. dial
// opens a connection to a member address; it is called per member and
// again on every reconnect.
func NewClusterClient(ring *Ring, dial func(addr string) (io.ReadWriteCloser, error), tree *taint.Tree, opt ClusterOptions) (*ClusterClient, error) {
	opt = opt.withClusterDefaults()
	c := &ClusterClient{dial: dial, opt: opt}
	c.front = front{tree, &cache{}, c}
	c.budget = newBudgetClock(opt.BudgetRate, opt.BudgetBurst, opt.Resilient.clk)
	c.ring.Store(ring)
	c.table.Store(new([MaxPartitions]*member))
	if err := c.UpdateRing(ring); err != nil {
		return nil, err
	}
	return c, nil
}

// member returns the handle for a partition, nil when the partition has
// no member (e.g. ids minted under an older ring by a departed server —
// the caller falls through to the partition's replicas).
func (c *ClusterClient) member(part uint32) *member {
	if part >= MaxPartitions {
		return nil
	}
	return c.table.Load()[part]
}

// members lists the member handles in partition order.
func (c *ClusterClient) members() []*member {
	var cms []*member
	for _, cm := range c.table.Load() {
		if cm != nil {
			cms = append(cms, cm)
		}
	}
	return cms
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
	table := *c.table.Load()
	for _, m := range r.Members() {
		if cm := table[m.Part]; cm == nil {
			var err error
			if table[m.Part], err = c.newMember(m); err != nil {
				return err
			}
		} else if *cm.addr.Load() != m.Addr {
			cm.redial(m.Addr)
		}
	}
	c.table.Store(&table)
	c.ring.Store(r)
	return nil
}

// Refresh fetches the ring from the first member that answers and
// installs it — how a client learns that a server joined.
func (c *ClusterClient) Refresh() (*Ring, error) {
	cms := c.members()
	r, err := fetchRing(len(cms), func(i int) ([]byte, error) {
		return cms[i].rawCall(opRingTag, nil)
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
// rotated so successive lookups start on different replicas. A ring of
// one answers for every partition: a single server is a cluster of one,
// whatever partition minted the id.
func (c *ClusterClient) replicaOrder(part uint32, cms []*member) []*member {
	r := c.ring.Load()
	if m := r.Members(); len(m) == 1 {
		return append(cms, c.member(m[0].Part))
	}
	var buf [MaxPartitions]uint32
	reps := r.appendReplicas(buf[:0], part)
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

// replicas is the replica loop: it resolves one partition's real ids on
// the replica handles cms, in rotation order, every attempt bounded by
// the operation deadline. A single replica runs inline, with its
// member's full wait-for-reconnect machinery. Several are hedged, every
// attempt fail-fast: the first runs alone until the tracked p99 elapses,
// then — if the retry budget grants a token — the next replica is raced
// against it and the first success wins. A *failed* attempt falls
// through to the next replica immediately and for free; that is
// rotation, not hedging, and charging it would let a dead replica drain
// the budget. Losing attempts are abandoned (their goroutines park on
// the member's own call timeout and deliver into a buffered channel),
// and the replicas that answered ErrUnknownGlobalID get the winner's
// entries pushed back (read-repair).
func (c *ClusterClient) replicas(cms []*member, ids []uint32) ([]taint.Taint, error) {
	clk := c.opt.Resilient.clk
	var deadline time.Time
	if c.opt.OpTimeout > 0 {
		deadline = clk.Now().Add(c.opt.OpTimeout)
	}
	if len(cms) == 1 {
		return cms[0].lookup(ids, deadline, false)
	}
	type outcome struct {
		cm     *member
		ts     []taint.Taint
		err    error
		took   time.Duration
		hedged bool
		tick   bool // the hedge timer fired; no attempt ended
	}
	// A slot per attempt and one for the timer's tick: no sender ever
	// blocks on a loop that has returned.
	results := make(chan outcome, len(cms)+1)
	next, inflight := 0, 0
	launch := func(hedged bool) {
		cm := cms[next]
		next++
		inflight++
		go func() {
			start := clk.Now()
			ts, err := cm.lookup(ids, deadline, true)
			results <- outcome{cm: cm, ts: ts, err: err, took: clk.Now().Sub(start), hedged: hedged}
		}()
	}
	launch(false)
	timer := clk.AfterFunc(c.hedgeDelay(), func() { results <- outcome{tick: true} })
	defer timer.Stop()
	var stale []*member
	lastErr := error(ErrDegraded)
	for inflight > 0 {
		out := <-results
		switch {
		case out.tick:
			switch {
			case next == len(cms):
			case c.budget.TryTake(1):
				c.hedges.Add(1)
				launch(true)
			default:
				c.budgetDenied.Add(1)
			}
		case out.err == nil:
			c.hedge.Observe(out.took)
			if out.hedged {
				c.hedgeWins.Add(1)
			}
			c.repairTo(stale, ids, out.ts)
			return out.ts, nil
		default:
			inflight--
			lastErr = out.err
			if errors.Is(out.err, ErrUnknownGlobalID) {
				stale = append(stale, out.cm)
			}
			if next < len(cms) {
				launch(false)
			}
		}
	}
	return nil, lastErr
}

// register implements transport: the taints are routed by content hash
// to their owning partitions, and each partition's group goes to its
// owner as one batch (so a cluster-wide batch costs one round trip per
// partition, not per taint). A batch with a single owner — every batch of
// one, every batch on a one-member ring — is its own group and is not
// regrouped.
func (c *ClusterClient) register(ids []uint32, ts []taint.Taint, blobs [][]byte) error {
	ring := c.ring.Load()
	var ownerBuf [16]uint32 // keeps small batches off the heap
	owners := ownerBuf[:0]
	oneOwner := true
	for _, blob := range blobs {
		owners = append(owners, ring.OwnerOfBlob(blob))
		oneOwner = oneOwner && owners[len(owners)-1] == owners[0]
	}
	if oneOwner {
		return c.registerGroup(owners[0], ids, ts, blobs)
	}
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
		got := make([]uint32, len(gts))
		if err := c.registerGroup(part, got, gts, gblobs); err != nil {
			return err
		}
		for i, owner := range owners {
			if owner == part {
				ids[i], got = got[0], got[1:]
			}
		}
	}
	return nil
}

// registerGroup registers one owner partition's distinct pre-marshaled
// taints with that owner's member.
func (c *ClusterClient) registerGroup(part uint32, ids []uint32, ts []taint.Taint, blobs [][]byte) error {
	cm := c.member(part)
	if cm == nil {
		return fmt.Errorf("%w: no member for owner partition %d", ErrDegraded, part)
	}
	return cm.register(ids, ts, blobs)
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

// lookupGroup resolves the ids of one group: provisional ids through the
// member that minted them, real ids on their partition's replicas.
func (c *ClusterClient) lookupGroup(key uint32, group []uint32) ([]taint.Taint, error) {
	part := PartitionOf(key)
	if IsProvisional(key) {
		cm := c.member(part)
		if cm == nil {
			return nil, fmt.Errorf("%w: provisional ids of unknown member", ErrDegraded)
		}
		return cm.lookupProvisional(group)
	}
	var buf [MaxPartitions]*member
	cms := c.replicaOrder(part, buf[:0])
	if len(cms) == 0 {
		return nil, fmt.Errorf("%w: no member for partition %d", ErrDegraded, part)
	}
	return c.replicas(cms, group)
}

// repairTo pushes resolved (id, taint) entries to replicas that were
// observed missing them. Best-effort: a failed push leaves the replica
// for the next reader (or the owner's hinted entries) to heal.
func (c *ClusterClient) repairTo(stale []*member, ids []uint32, ts []taint.Taint) {
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
		if _, err := cm.rawCall(opRepairTag, payload); err == nil {
			c.repaired.Add(int64(len(okIDs)))
		}
	}
}

// ClusterHealth is the client's snapshot: each member's resilience state
// plus the hedge, budget and degradation gauges of the replica loop.
type ClusterHealth struct {
	Members            map[uint32]Health // by partition
	DegradedPartitions []uint32          // partitions journaling locally (breaker tripped), ascending

	Hedges       int64         // hedge attempts launched
	HedgeWins    int64         // lookups won by the hedged attempt
	BudgetDenied int64         // hedges suppressed by an empty budget
	BudgetTokens float64       // tokens currently in the shared budget
	HedgeDelay   time.Duration // delay the next hedge would use
	Repaired     int64         // entries pushed back to stale replicas
}

// Health reports the client's current state.
func (c *ClusterClient) Health() ClusterHealth {
	h := ClusterHealth{
		Members:      make(map[uint32]Health),
		Hedges:       c.hedges.Load(),
		HedgeWins:    c.hedgeWins.Load(),
		BudgetDenied: c.budgetDenied.Load(),
		BudgetTokens: c.budget.Tokens(),
		HedgeDelay:   c.hedgeDelay(),
		Repaired:     c.repaired.Load(),
	}
	for part, cm := range c.table.Load() {
		if cm == nil {
			continue
		}
		mh := cm.health()
		h.Members[uint32(part)] = mh
		if mh.Degraded {
			h.DegradedPartitions = append(h.DegradedPartitions, uint32(part))
		}
	}
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
	c.mu.Unlock()
	var first error
	for _, cm := range c.members() {
		if err := cm.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
