package instrument

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// TestDialTaintMapSingle wires the one-address agent-args form: a single
// server is a cluster of one — a ring of one member at that address,
// built without a fetch — and every register and lookup goes there.
func TestDialTaintMapSingle(t *testing.T) {
	network := netsim.New()
	srv, err := taintmap.StartSimServer(network, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	args, err := tracker.ParseAgentArgs("mode=dista,taintmap=tm:1")
	if err != nil {
		t.Fatal(err)
	}
	tree := taint.NewTree()
	client, err := DialTaintMap(args, tree, func(addr string) (io.ReadWriteCloser, error) {
		return network.DialFrom("agent:1", addr)
	}, taintmap.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cc, ok := client.(*taintmap.ClusterClient)
	if !ok {
		t.Fatalf("single-address client is %T, want *taintmap.ClusterClient", client)
	}
	if m := cc.Ring().Members(); len(m) != 1 || m[0].Addr != "tm:1" {
		t.Fatalf("single-address ring = %+v, want one member at tm:1", m)
	}

	src := tree.NewSource("single", "agent:1")
	id, err := client.Register(src)
	if err != nil || id == 0 {
		t.Fatalf("Register = %d, %v", id, err)
	}
	got, err := client.Lookup(id)
	if err != nil || !sameTaint(got, src) {
		t.Fatalf("Lookup(%d) = %v, %v; want the registered taint", id, got, err)
	}
}

// sameTaint reports whether two taints have byte-identical content — the
// canonical wire blob is the Taint Map's identity, so it is ours too.
func sameTaint(a, b taint.Taint) bool {
	ab, aerr := taint.MarshalTaint(a)
	bb, berr := taint.MarshalTaint(b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// TestDialTaintMapCluster wires the multi-address form against a live
// 3-member cluster: the ring must be bootstrapped from the listed
// members and registrations must spread across partitions — the agent
// never names a partition, only addresses.
func TestDialTaintMapCluster(t *testing.T) {
	network := netsim.New()
	servers, ring, err := taintmap.StartSimCluster(network, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	args, err := tracker.ParseAgentArgs("mode=dista,taintmap=tm0:1;tm1:1;tm2:1")
	if err != nil {
		t.Fatal(err)
	}
	if got := args.TaintMapAddrs(); len(got) != 3 {
		t.Fatalf("TaintMapAddrs = %q, want 3 addresses", got)
	}
	tree := taint.NewTree()
	client, err := DialTaintMap(args, tree, func(addr string) (io.ReadWriteCloser, error) {
		return network.DialFrom("agent:1", addr)
	}, taintmap.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cc, ok := client.(*taintmap.ClusterClient)
	if !ok {
		t.Fatalf("multi-address client is %T, want *taintmap.ClusterClient", client)
	}
	if got := cc.Ring(); got.Epoch != ring.Epoch || len(got.Members()) != 3 {
		t.Fatalf("bootstrapped ring epoch %d with %d members, want epoch %d with 3",
			got.Epoch, len(got.Members()), ring.Epoch)
	}

	parts := make(map[uint32]bool)
	ids := make([]uint32, 0, 64)
	srcs := make([]taint.Taint, 0, 64)
	for i := 0; i < 64; i++ {
		src := tree.NewSource(fmt.Sprintf("clustered-%d", i), "agent:1")
		id, err := client.Register(src)
		if err != nil {
			t.Fatalf("Register %d: %v", i, err)
		}
		parts[taintmap.PartitionOf(id)] = true
		ids = append(ids, id)
		srcs = append(srcs, src)
	}
	if len(parts) < 2 {
		t.Fatalf("64 registrations landed on partitions %v; want spread over several", parts)
	}
	for i, id := range ids {
		got, err := client.Lookup(id)
		if err != nil || !sameTaint(got, srcs[i]) {
			t.Fatalf("Lookup(%d) = %v, %v; want taint %d back", id, got, err, i)
		}
	}
}

// TestDialTaintMapDeadline: the deadline= agent arg bounds a memo-cold
// lookup against a server that takes requests and never answers, on one
// address and on an RF-1 ring alike — where there is no replica to hedge
// to, the operation deadline is the only bound short of the 2 s call
// timeout.
func TestDialTaintMapDeadline(t *testing.T) {
	const deadline = 50 * time.Millisecond
	network := netsim.New()
	single, err := taintmap.StartSimServer(network, "tm:1")
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	servers, _, err := taintmap.StartSimCluster(network, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	dial := func(addr string) (io.ReadWriteCloser, error) { return network.DialFrom("agent:1", addr) }
	for _, tc := range []struct{ name, addrs string }{
		{"OneAddress", "tm:1"},
		{"RF1Ring", "tm0:1;tm1:1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args, err := tracker.ParseAgentArgs("taintmap=" + tc.addrs + ",deadline=" + deadline.String())
			if err != nil {
				t.Fatal(err)
			}
			seedTree := taint.NewTree()
			seed, err := DialTaintMap(args, seedTree, dial, taintmap.ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer seed.Close()
			id, err := seed.Register(seedTree.NewSource("stalled", "agent:1"))
			if err != nil {
				t.Fatal(err)
			}
			reader, err := DialTaintMap(args, taint.NewTree(), dial, taintmap.ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer reader.Close()
			host := "tm"
			if tc.name == "RF1Ring" {
				host = fmt.Sprintf("tm%d", taintmap.PartitionOf(id))
			}
			network.SetHostStall(host, true)
			defer network.SetHostStall(host, false)
			start := time.Now()
			_, err = reader.Lookup(id)
			if took := time.Since(start); !errors.Is(err, taintmap.ErrDeadlineExceeded) || took > 4*deadline {
				t.Fatalf("memo-cold lookup of a stalled server = %v after %v, want ErrDeadlineExceeded within %v", err, took, 4*deadline)
			}
		})
	}
}

// TestDialTaintMapBootstrapSkipsDeadSeed cuts the first listed member
// off the network: bootstrap must fall through to a live member instead
// of failing on the dead seed.
func TestDialTaintMapBootstrapSkipsDeadSeed(t *testing.T) {
	network := netsim.New()
	servers, _, err := taintmap.StartSimCluster(network, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	network.Partition("tm0", "*")

	args, err := tracker.ParseAgentArgs("taintmap=tm0:1;tm1:1;tm2:1")
	if err != nil {
		t.Fatal(err)
	}
	tree := taint.NewTree()
	client, err := DialTaintMap(args, tree, func(addr string) (io.ReadWriteCloser, error) {
		return network.DialFrom("agent:1", addr)
	}, taintmap.ClusterOptions{})
	if err != nil {
		t.Fatalf("bootstrap with a dead seed: %v", err)
	}
	client.Close()
}

// TestDialTaintMapNoAddresses pins the error contract: an empty
// taintmap value is ErrNoTaintMap, same as a dista-mode agent with no
// client at all.
func TestDialTaintMapNoAddresses(t *testing.T) {
	args, err := tracker.ParseAgentArgs("mode=dista")
	if err != nil {
		t.Fatal(err)
	}
	_, err = DialTaintMap(args, taint.NewTree(), func(string) (io.ReadWriteCloser, error) {
		t.Fatal("dial must not be called with no addresses")
		return nil, nil
	}, taintmap.ClusterOptions{})
	if !errors.Is(err, ErrNoTaintMap) {
		t.Fatalf("DialTaintMap with no addresses = %v, want ErrNoTaintMap", err)
	}
}

// freshExchange is the sim_fresh_cluster op on two nodes of a 3-member
// RF-2 sim cluster: node A labels a 64-byte field of a 4 KiB request with
// a taint it never sent, B relabels the field with the union of what it
// received and its own tag and echoes the request. stores and batches
// are the members' stores and the 'b' (register) requests each served.
type freshExchange struct {
	a, b    *tracker.Agent
	echo    taint.Bytes
	fresh   taint.Taint
	round   func()
	stores  [3]*taintmap.Store
	batches [3]atomic.Int64
}

func newFreshExchange(t *testing.T) *freshExchange {
	network := netsim.New()
	x := &freshExchange{}
	members := make([]taintmap.Member, len(x.stores))
	for i := range members {
		members[i] = taintmap.Member{Part: uint32(i), Addr: fmt.Sprintf("tm%d:1", i)}
	}
	ring, err := taintmap.NewRing(1, 2, members)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.stores {
		if x.stores[i], err = taintmap.NewPartitionStore(uint32(i)); err != nil {
			t.Fatal(err)
		}
		srv, _, err := taintmap.StartSimClusterMember(network, ring, uint32(i), x.stores[i],
			taintmap.WithServiceModel(func(op byte, _ int) {
				if op == 'b' {
					x.batches[i].Add(1)
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
	}
	agent := func(node string) *tracker.Agent {
		c, err := taintmap.DialSimCluster(network, node+":1", ring, taint.NewTree(), taintmap.ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return tracker.New(node, tracker.ModeDista, tracker.WithTaintMap(c))
	}
	x.a, x.b, x.echo = agent("a"), agent("b"), taint.MakeBytes(4<<10)
	ca, cb := network.Pipe()
	ea, eb := NewAdaptiveEndpoint(x.a, ca), NewAdaptiveEndpoint(x.b, cb)
	req, got := taint.MakeBytes(4<<10), taint.MakeBytes(4<<10)
	mine := x.b.Source("reply", "r")
	x.round = func() {
		x.fresh = x.a.SourceSeq("field", "f")
		req.ResetLabels()
		req.SetRange(64, 128, x.fresh)
		exchange(t, ea, eb, req, &got)
		got.SetRange(64, 128, taint.Combine(got.LabelAt(64), mine))
		exchange(t, eb, ea, got, &x.echo)
	}
	for i := 0; i < 50; i++ {
		x.round()
	}
	return x
}

// check fails unless the echoed field carries the op's fresh tag and B's.
func (x *freshExchange) check(t *testing.T) {
	if l := x.echo.LabelAt(64); l.Len() != 2 || !l.Has(x.fresh.Values()[0]) || !l.Has("r") || !x.echo.LabelAt(128).Empty() {
		t.Fatalf("the echoed field carries %v, the byte after it %v", l, x.echo.LabelAt(128))
	}
}

// TestFreshExchangeTaintMapTraffic pins what a fresh exchange asks of
// the Taint Map, counted at the stores, without timing: each of the two
// fresh taints is registered once, nothing is looked up — both cross
// under stream-scoped ids, defined inline — and the registrations leave
// in batches of tracker.RegisterQueueLen, so no owner serves more register requests than the
// batches the exchanges fill.
func TestFreshExchangeTaintMapTraffic(t *testing.T) {
	x := newFreshExchange(t)
	flush := func() {
		for _, ag := range []*tracker.Agent{x.a, x.b} {
			if err := ag.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	count := func() (regs, lookups int64, batches [3]int64) {
		for i, st := range x.stores {
			s := st.Stats()
			regs, lookups, batches[i] = regs+s.Registrations, lookups+s.Lookups, x.batches[i].Load()
		}
		return
	}
	flush()
	regs0, lookups0, batches0 := count()
	const rounds = 128
	for range rounds {
		x.round()
	}
	x.check(t)
	flush()
	regs, lookups, batches := count()
	if regs-regs0 != 2*rounds || lookups != lookups0 {
		t.Fatalf("%d fresh exchanges: %d registrations and %d lookups at the stores, want %d and 0",
			rounds, regs-regs0, lookups-lookups0, 2*rounds)
	}
	most := (2*rounds + tracker.RegisterQueueLen - 1) / tracker.RegisterQueueLen
	t.Logf("%d fresh exchanges: register requests per owner %v (from %v)", rounds, batches, batches0)
	for i := range batches {
		if n := batches[i] - batches0[i]; n > int64(most) {
			t.Fatalf("owner %d served %d register requests for %d fresh taints, want at most %d", i, n, 2*rounds, most)
		}
	}
}

// TestFreshExchangeAllocations pins what one fresh exchange allocates in
// the whole process, servers included: no lookup and, in the steady
// state, no round trip at all — each fresh taint crosses under a
// stream-scoped id, its definition built from the blob its registration
// reuses a batch later (a 64th of a batch with its replica pushes). What
// is left is what the stores and the memos keep, the definitions and the
// receivers' scoped tables: a tree node is a share of a chunk (13 while
// each was an object with its strings, 23 while each node kept a second
// tree and the store a string and a pointer per blob, 7 while each
// exchange waited for two registrations).
func TestFreshExchangeAllocations(t *testing.T) {
	x := newFreshExchange(t)
	allocs := testing.AllocsPerRun(200, x.round)
	x.check(t)
	t.Logf("%.1f allocs per fresh exchange", allocs)
	if allocs > 7 && !raceEnabled {
		t.Fatalf("a fresh exchange allocates %.1f times, want <= 7", allocs)
	}
}

// TestFreshExchangeTreeNodes: a node keeps one tag tree — its agent's
// is its Taint Map client's — so a fresh exchange grows each node's tree
// by two nodes. A interns its fresh tag, and B's tag under it when the
// echo defines their union; B interns the fresh tag when the request
// defines it, and its own under it in the union (5 nodes over three
// trees while the client's tree was not the agent's).
func TestFreshExchangeTreeNodes(t *testing.T) {
	x := newFreshExchange(t)
	for _, ag := range []*tracker.Agent{x.a, x.b} {
		if ag.Tree() != ag.TaintMap().Tree() {
			t.Fatalf("node %s keeps two trees", ag.Node())
		}
	}
	const n = 100
	a0, b0 := x.a.Tree().NodeCount(), x.b.Tree().NodeCount()
	for i := 0; i < n; i++ {
		x.round()
	}
	x.check(t)
	if da, db := x.a.Tree().NodeCount()-a0, x.b.Tree().NodeCount()-b0; da != 2*n || db != 2*n {
		t.Fatalf("%d fresh exchanges grew A's tree by %d nodes and B's by %d, want %d each", n, da, db, 2*n)
	}
}
