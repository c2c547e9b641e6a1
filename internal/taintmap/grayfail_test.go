package taintmap

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// grayOpts is the fast-failure tuning the gray-failure tests run the
// cluster client with: short call timeouts, tight backoff, an eager
// hedge and a generous budget, so a stalled replica costs milliseconds
// instead of the production-default seconds.
func grayOpts() ClusterOptions {
	return ClusterOptions{
		Resilient: ResilientOptions{
			CallTimeout:      200 * time.Millisecond,
			BackoffBase:      time.Millisecond,
			BackoffMax:       20 * time.Millisecond,
			BreakerThreshold: 2,
		},
		HedgeDelay:  5 * time.Millisecond,
		BudgetRate:  500,
		BudgetBurst: 1000,
	}
}

// stallSet picks which member hosts to stall: a subset that leaves
// every partition at least one healthy replica while stalling a replica
// of as many partitions as possible. The replica sets come from the
// consistent-hash ring (successors are hash-order, not part+1), so the
// choice is a small brute force over host subsets rather than a
// pattern.
func stallSet(r *Ring) []uint32 {
	parts := make([]uint32, 0, len(r.Members()))
	for _, m := range r.Members() {
		parts = append(parts, m.Part)
	}
	n := len(parts)
	best, bestScore := []uint32(nil), -1
	for mask := 1; mask < 1<<n; mask++ {
		stalled := make(map[uint32]bool)
		for i, p := range parts {
			if mask&(1<<i) != 0 {
				stalled[p] = true
			}
		}
		score := 0
		ok := true
		for _, p := range parts {
			healthy, hit := 0, 0
			for _, rep := range r.appendReplicas(nil, p) {
				if stalled[rep] {
					hit++
				} else {
					healthy++
				}
			}
			if healthy == 0 {
				ok = false
				break
			}
			if hit > 0 {
				score++
			}
		}
		if !ok {
			continue
		}
		if score > bestScore {
			bestScore = score
			best = best[:0]
			for p := range stalled {
				best = append(best, p)
			}
		}
	}
	sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
	return best
}

// TestStallSetCoversCluster sanity-checks the brute force on the ring
// the chaos test uses.
func TestStallSetCoversCluster(t *testing.T) {
	members := make([]Member, 4)
	for i := range members {
		members[i] = Member{Part: uint32(i), Addr: simMemberAddr(uint32(i))}
	}
	r, err := NewRing(1, 2, members)
	if err != nil {
		t.Fatal(err)
	}
	set := stallSet(r)
	if len(set) == 0 {
		t.Fatal("stallSet found nothing to stall")
	}
	stalled := make(map[uint32]bool)
	for _, p := range set {
		stalled[p] = true
	}
	for _, m := range members {
		healthy := 0
		for _, rep := range r.appendReplicas(nil, m.Part) {
			if !stalled[rep] {
				healthy++
			}
		}
		if healthy == 0 {
			t.Fatalf("partition %d left with no healthy replica by stall set %v", m.Part, set)
		}
	}
}

// TestHedgedLookupStalledReplica: with one of two replicas stalled
// (alive, accepting, never answering), every memo-cold lookup must
// still resolve fast — the hedge races the healthy replica after the
// hedge delay instead of waiting out the stalled one's full timeout.
func TestHedgedLookupStalledReplica(t *testing.T) {
	e := newClusterEnv(t, 2, 2)
	seedTree := taint.NewTree()
	seed, err := DialSimCluster(e.net, "seed:1", e.ring, seedTree, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const N = 48
	ts := make([]taint.Taint, N)
	for i := range ts {
		ts[i] = seedTree.NewSource(fmt.Sprintf("hedged-%d", i), "seed:1")
	}
	ids, err := seed.RegisterBatch(ts)
	if err != nil {
		t.Fatal(err)
	}
	seed.Close()

	c, err := DialSimCluster(e.net, "app:1", e.ring, taint.NewTree(), grayOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	e.net.SetHostStall("tm0", true)
	defer e.net.SetHostStall("tm0", false)

	start := time.Now()
	for i, id := range ids {
		one := time.Now()
		got, err := c.Lookup(id)
		if err != nil {
			t.Fatalf("lookup %d under stall: %v", i, err)
		}
		if got.Empty() {
			t.Fatalf("lookup %d returned empty taint", i)
		}
		if took := time.Since(one); took > 2*time.Second {
			t.Fatalf("lookup %d took %v under a single-replica stall", i, took)
		}
	}
	total := time.Since(start)
	// Sequential rotation would pay the 200ms call timeout for every
	// lookup that starts on the stalled replica (~half of 48 -> ~4.8s
	// minimum). The hedge must keep the whole sweep well under that.
	if total > 4*time.Second {
		t.Fatalf("48 lookups took %v with one stalled replica", total)
	}

	h := c.Health()
	if h.Hedges == 0 {
		t.Fatal("no hedges launched against a stalled replica")
	}
	if h.HedgeWins == 0 {
		t.Fatal("no lookup won by its hedge")
	}
}

// TestPeerLinkStalledReplica pins what a stalled replica costs its
// owner's registrations: the first push waits out one peer timeout and
// hints, the pushes inside peerCooldown hint at once, and once the stall
// lifts and the cooldown passes replication resumes on a fresh link.
func TestPeerLinkStalledReplica(t *testing.T) {
	const d = 100 * time.Millisecond
	e := newClusterEnv(t, 2, 2)
	owner := e.nodes[0]
	owner.SetPeerTimeout(d)
	// A plain client of member 0: it registers there whatever the ring
	// says, and never talks to the stalled member itself.
	tree := taint.NewTree()
	c, err := DialSim(e.net, simMemberAddr(0), tree)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	next := 0
	register := func() time.Duration {
		t.Helper()
		next++
		start := time.Now()
		if _, err := c.Register(tree.NewSource(fmt.Sprintf("stalled-%d", next), "app:1")); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	register()
	if p := owner.Pushed(); p != 1 {
		t.Fatalf("Pushed = %d after a healthy register, want 1", p)
	}

	e.net.SetHostStall("tm1", true)
	if took := register(); took < d || took >= 2*d {
		t.Fatalf("first register past a stalled replica took %v, want one peer timeout (%v)", took, d)
	}
	if h := owner.Hinted(); h != 1 {
		t.Fatalf("Hinted = %d after the timed-out push, want 1", h)
	}
	for i := 0; i < 4; i++ {
		if took := register(); took >= d/2 {
			t.Fatalf("register %d inside the cooldown took %v: it waited for the stalled replica", i, took)
		}
	}
	if h := owner.Hinted(); h != 5 {
		t.Fatalf("Hinted = %d after four cooled-down pushes, want 5", h)
	}

	e.net.SetHostStall("tm1", false)
	time.Sleep(peerCooldown)
	pushed := owner.Pushed()
	register()
	if p := owner.Pushed(); p != pushed+1 {
		t.Fatalf("Pushed = %d after the stall lifted, want %d", p, pushed+1)
	}

	// The call timer: one per peer client, not one per push, and none
	// left armed once the node closes. On a clock that never moves it is
	// never due, so what it holds is the client's state alone.
	e = newClusterEnv(t, 2, 2)
	vc := netsim.NewVirtualClock()
	owner = e.nodes[0]
	owner.clk = vc
	vcc, err := DialSim(e.net, simMemberAddr(0), tree)
	if err != nil {
		t.Fatal(err)
	}
	defer vcc.Close()
	for i := 0; i < 3; i++ {
		if _, err := vcc.Register(tree.NewSource(fmt.Sprintf("virtual-%d", i), "app:1")); err != nil {
			t.Fatal(err)
		}
	}
	if p, n := owner.Pushed(), vc.PendingTimers(); p != 3 || n != 1 {
		t.Fatalf("%d pushes armed %d timers, want 3 pushes and one timer", p, n)
	}
	owner.Close()
	if n := vc.PendingTimers(); n != 0 {
		t.Fatalf("the closed node left %d timers armed", n)
	}
}

// TestClusterRegisterOverloadedRefuses: a shedding owner (admission
// gate saturated) fails its partition's registrations with the typed
// ErrOverloaded at once, keeping nothing — a stream send defines such a
// taint inline — while other partitions are unaffected: degradation is
// partition-scoped. Once the owner stops shedding, the same taint
// registers on the same connection to an id a fresh client resolves.
func TestClusterRegisterOverloadedRefuses(t *testing.T) {
	e := newClusterEnvOpts(t, 2, 2, WithAdmission(1, 0))
	tree := taint.NewTree()
	c, err := DialSimCluster(e.net, "app:1", e.ring, tree, grayOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Find a taint owned by partition 0 and one owned by partition 1.
	byOwner := map[uint32]taint.Taint{}
	for i := 0; len(byOwner) < 2 && i < 256; i++ {
		tt := tree.NewSource(fmt.Sprintf("shedload-%d", i), "app:1")
		blob, err := taint.MarshalTaint(tt)
		if err != nil {
			t.Fatal(err)
		}
		owner := e.ring.OwnerOfBlob(blob)
		if _, dup := byOwner[owner]; !dup {
			byOwner[owner] = tt
		}
	}
	if len(byOwner) < 2 {
		t.Fatal("could not find taints for both partitions")
	}

	// Saturate partition 0's gate from the outside: its register traffic
	// sheds while partition 1 keeps serving.
	e.srvs[0].adm.admit()
	if id, err := c.Register(byOwner[0]); !errors.Is(err, ErrOverloaded) || byOwner[0].GlobalID() != 0 {
		t.Fatalf("register against shedding owner = %#x (node %#x), %v; want ErrOverloaded", id, byOwner[0].GlobalID(), err)
	}
	id1, err := c.Register(byOwner[1])
	if err != nil || id1 == 0 || IsStreamScoped(id1) {
		t.Fatalf("register to healthy partition = %#x, %v", id1, err)
	}

	// Stop shedding: the next register reaches the owner on the same
	// connection.
	e.srvs[0].adm.release()
	real0, err := c.Register(byOwner[0])
	if err != nil || real0 == 0 || PartitionOf(real0) != 0 || byOwner[0].GlobalID() != real0 {
		t.Fatalf("register after the gate freed = %#x, %v", real0, err)
	}
	if h := c.Health().Members[0]; !h.Connected || h.Reconnects != 0 {
		t.Fatalf("the shed needed a reconnect: %+v", h)
	}
	check, err := DialSimCluster(e.net, "verify:1", e.ring, taint.NewTree(), ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	got, err := check.Lookup(real0)
	if err != nil {
		t.Fatal(err)
	}
	wantBlob, _ := taint.MarshalTaint(byOwner[0])
	gotBlob, err := taint.MarshalTaint(got)
	if err != nil || string(gotBlob) != string(wantBlob) {
		t.Fatalf("id %d resolved to different bytes (%v)", real0, err)
	}
}

// TestOneAddressOverloadRefuses: a single server is a cluster of one,
// so a one-address client does what a cluster member does — a register
// the server sheds fails with ErrOverloaded, stamping nothing, and the
// next one after the gate frees registers on the same connection.
func TestOneAddressOverloadRefuses(t *testing.T) {
	n := netsim.New()
	l, err := n.Listen("tm:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewStore(), simAcceptor{l: l, clk: n.Clock()}, nil, WithAdmission(1, 0))
	srv.Start()
	defer srv.Close()
	tree := taint.NewTree()
	c := dialOne("tm:1", simDialer(n, "app:1"), tree, grayOpts().Resilient)
	defer c.Close()

	srv.adm.admit()
	tt := tree.NewSource("shed", "app:1")
	if id, err := c.Register(tt); !errors.Is(err, ErrOverloaded) || tt.GlobalID() != 0 {
		t.Fatalf("register against a shedding server = %#x (node stamped %#x), %v", id, tt.GlobalID(), err)
	}
	srv.adm.release()
	id, err := c.Register(tt)
	if err != nil || id == 0 || IsStreamScoped(id) || tt.GlobalID() != id {
		t.Fatalf("register after the gate freed = %#x, %v", id, err)
	}
	if h := c.Health().Members[0]; !h.Connected || h.Reconnects != 0 {
		t.Fatalf("the shed needed a reconnect: %+v", h)
	}
	if got, err := c.Lookup(id); err != nil || got != tt {
		t.Fatalf("lookup of %#x = %v, %v", id, got, err)
	}
}

// TestClusterBootstrapGraySeed: a seed that accepts the dial and never
// answers costs the bootstrap one call timeout and the next address gets
// its turn; with every seed gray the dial fails as a call timeout. It
// never hangs.
func TestClusterBootstrapGraySeed(t *testing.T) {
	e := newClusterEnv(t, 3, 2)
	opt := grayOpts()
	timeout := opt.Resilient.CallTimeout
	addrs := []string{simMemberAddr(0), simMemberAddr(1), simMemberAddr(2)}
	dial := func(addr string) (io.ReadWriteCloser, error) { return e.net.DialFrom("app:1", addr) }

	// bootstrap runs the dial off the test goroutine so that a hang
	// fails the test instead of the package.
	bootstrap := func(tree *taint.Tree) (Client, time.Duration, error) {
		t.Helper()
		type result struct {
			c   Client
			err error
		}
		done := make(chan result, 1)
		start := time.Now()
		go func() {
			c, err := DialClusterAddrs(addrs, dial, tree, opt)
			done <- result{c, err}
		}()
		select {
		case r := <-done:
			return r.c, time.Since(start), r.err
		case <-time.After(20 * timeout):
			t.Fatal("cluster bootstrap hung on a gray seed")
			return nil, 0, nil
		}
	}

	e.net.SetHostStall("tm0", true)
	tree := taint.NewTree()
	c, took, err := bootstrap(tree)
	e.net.SetHostStall("tm0", false)
	if err != nil {
		t.Fatalf("bootstrap past a gray first seed: %v", err)
	}
	defer c.Close()
	// One timeout, with room for a loaded scheduler.
	if took > 2*timeout {
		t.Fatalf("bootstrap past one gray seed took %v, call timeout is %v", took, timeout)
	}
	tt := tree.NewSource("bootstrapped", "app:1")
	id, err := c.Register(tt)
	if err != nil || id == 0 {
		t.Fatalf("register on the bootstrapped client = %d, %v", id, err)
	}
	check := e.client("verify:1", ClusterOptions{})
	if got, err := check.Lookup(id); err != nil || !taint.SameSet(got, tt) {
		t.Fatalf("lookup of %d = %v, %v", id, got, err)
	}

	for _, h := range []string{"tm0", "tm1", "tm2"} {
		e.net.SetHostStall(h, true)
		defer e.net.SetHostStall(h, false)
	}
	if c, _, err := bootstrap(taint.NewTree()); !errors.Is(err, ErrCallTimeout) {
		if err == nil {
			c.Close()
		}
		t.Fatalf("bootstrap with every seed gray = %v, want ErrCallTimeout", err)
	}
}

// TestChaosGrayFailure is the acceptance scenario: a 4-member RF-2
// cluster where one replica of (nearly) every partition stalls — alive,
// accepting, absorbing requests, never answering — under the
// 8-goroutine mixed workload. Forward progress must continue through
// hedges and partition-scoped fast failure, mid-stall lookups must stay
// bounded, and after the stall lifts every submitted taint must resolve
// to byte-identical content with no duplicate or lost ids.
func TestChaosGrayFailure(t *testing.T) {
	e := newClusterEnv(t, 4, 2)
	for _, node := range e.nodes {
		node.SetPeerTimeout(150 * time.Millisecond)
	}
	tree := taint.NewTree()
	c, err := DialSimCluster(e.net, "app:1", e.ring, tree, grayOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The lookup leg runs on its own client with a cold memo: registered
	// ids are warm in c's cache, and a memo hit would bypass the wire —
	// the whole point is to drive hedged reads through stalled replicas.
	lc, err := DialSimCluster(e.net, "reader:1", e.ring, taint.NewTree(), grayOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	stalls := stallSet(e.ring)
	if len(stalls) == 0 {
		t.Fatal("no stall set")
	}
	t.Logf("stalling members %v", stalls)

	const goroutines = 8
	const perG = 300

	var ops atomic.Int64
	var inStall atomic.Bool
	var latMu sync.Mutex
	var stallLats []time.Duration
	var pubMu sync.Mutex
	var pub []published
	submitted := make([][]taint.Taint, goroutines)
	gate := make(chan struct{})

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		submitted[g] = make([]taint.Taint, 0, perG)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i == perG/3 {
					<-gate
				}
				ops.Add(1)
				if i%10 == 9 {
					pubMu.Lock()
					var p published
					if len(pub) > 0 {
						p = pub[(g*2654435761+i)%len(pub)]
					}
					pubMu.Unlock()
					if p.id == 0 {
						continue
					}
					start := time.Now()
					got, err := lc.Lookup(p.id)
					if took := time.Since(start); inStall.Load() {
						latMu.Lock()
						stallLats = append(stallLats, took)
						latMu.Unlock()
					}
					if err != nil {
						if tolerableClusterLookup(err) || errors.Is(err, ErrDeadlineExceeded) {
							continue
						}
						errs <- fmt.Errorf("worker %d lookup %d: %w", g, p.id, err)
						return
					}
					blob, err := taint.MarshalTaint(got)
					if err != nil || string(blob) != p.blob {
						errs <- fmt.Errorf("worker %d: id %d resolved to wrong taint (%v)", g, p.id, err)
						return
					}
					continue
				}
				// Register leg: reachable owners register, a stalled
				// owner's fail with ErrDegraded and are registered again
				// once the stall has lifted.
				tt := tree.NewSource(fmt.Sprintf("gray-%d-%d", g, i), "app:1")
				submitted[g] = append(submitted[g], tt)
				id, err := c.Register(tt)
				if errors.Is(err, ErrDegraded) {
					continue
				}
				if err != nil || id == 0 || IsStreamScoped(id) {
					errs <- fmt.Errorf("worker %d register %d = %#x, %w", g, i, id, err)
					return
				}
				blob, err := taint.MarshalTaint(tt)
				if err != nil {
					errs <- err
					return
				}
				pubMu.Lock()
				pub = append(pub, published{id: id, blob: string(blob)})
				pubMu.Unlock()
			}
		}(g)
	}

	// The gray-failure injector: wait for a healthy warmup, stall the
	// chosen replica of every partition, demand forward progress under
	// the stall, then lift it and wait for full recovery.
	go func() {
		for ops.Load() < 300 {
			time.Sleep(time.Millisecond)
		}
		inStall.Store(true)
		for _, p := range stalls {
			e.net.SetHostStall(fmt.Sprintf("tm%d", p), true)
		}
		close(gate)
		down := ops.Load()
		deadline := time.Now().Add(30 * time.Second)
		for ops.Load() < down+300 {
			if !time.Now().Before(deadline) {
				t.Errorf("no workload progress with members %v stalled", stalls)
				break
			}
			time.Sleep(time.Millisecond)
		}
		inStall.Store(false)
		for _, p := range stalls {
			e.net.SetHostStall(fmt.Sprintf("tm%d", p), false)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Settle: every member connected.
	deadline := time.Now().Add(30 * time.Second)
	for {
		all := true
		for part, h := range c.Health().Members {
			if !h.Connected || h.Degraded {
				all = false
				if !time.Now().Before(deadline) {
					t.Fatalf("member %d still unhealthy after the stall lifted: %+v", part, h)
				}
			}
		}
		if all {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Mid-stall lookups must have been bounded: hedges (or instant
	// degraded fall-through) cap the tail far below the sequential
	// worst case of replicas x call timeout.
	latMu.Lock()
	lats := append([]time.Duration(nil), stallLats...)
	latMu.Unlock()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p99 := lats[len(lats)*99/100]
		if p99 > 2*time.Second {
			t.Fatalf("mid-stall lookup p99 = %v over %d lookups", p99, len(lats))
		}
		t.Logf("mid-stall lookups: %d, p99 %v", len(lats), p99)
	}

	h := lc.Health()
	t.Logf("reader hedges %d (wins %d), budget denied %d, repaired %d",
		h.Hedges, h.HedgeWins, h.BudgetDenied, h.Repaired)

	// Zero lost, zero wrong: every submitted taint re-registers to a
	// real id resolving byte-identically from a fresh client, one id
	// per blob, and the partitions together hold exactly the distinct
	// blobs.
	checkTree := taint.NewTree()
	check, err := DialSimCluster(e.net, "verify:1", e.ring, checkTree, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	idOf := make(map[string]uint32)
	total := 0
	for g := range submitted {
		for _, tt := range submitted[g] {
			total++
			id, err := c.Register(tt)
			if err != nil {
				t.Fatalf("post-chaos register: %v", err)
			}
			if id == 0 || IsStreamScoped(id) {
				t.Fatalf("taint still unresolved after the stall lifted: id %d", id)
			}
			blob, err := taint.MarshalTaint(tt)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := idOf[string(blob)]; ok && prev != id {
				t.Fatalf("blob resolved to ids %d and %d", prev, id)
			}
			idOf[string(blob)] = id
			got, err := check.Lookup(id)
			if err != nil {
				t.Fatalf("fresh-client lookup of id %d: %v", id, err)
			}
			gotBlob, err := taint.MarshalTaint(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotBlob) != string(blob) {
				t.Fatalf("id %d resolved to different bytes after the chaos run", id)
			}
		}
	}
	if total != goroutines*(perG-perG/10) {
		t.Fatalf("submitted %d taints, want %d", total, goroutines*(perG-perG/10))
	}
	minted := 0
	for _, s := range e.stores {
		minted += s.Stats().GlobalTaints
	}
	if minted != len(idOf) {
		t.Fatalf("partitions minted %d ids for %d distinct blobs", minted, len(idOf))
	}
}
