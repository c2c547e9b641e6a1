package dista

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// BenchmarkTaintMapConcurrent measures the Taint Map *service* (store +
// wire protocol + client) under concurrent load: 8 goroutines sharing
// one client connection to one server over real loopback TCP, issuing a
// mixed 90/10 hit/miss register+lookup stream. This is the §III-D-2
// single-point-bottleneck scenario: the hits model taints already known
// to the node (free, per-node caches), the misses pay a Taint Map round
// trip.
//
// A miss must stay a miss no matter how many iterations the harness
// runs, or the fast client would exhaust any finite pool of unseen
// taints and quietly degrade into measuring cache hits. So each miss
// re-registers a taint from a fixed per-goroutine pool with its cached
// Global ID cleared: the client has no shortcut and pays the full wire
// round trip, while the server-side store dedups, keeping the heap and
// the miss rate constant at every b.N.
//
// Sub-benchmarks:
//
//	Mux8        — 8 goroutines, one multiplexed client
//	Serialized8 — 8 goroutines, the same multiplexed client behind a
//	              mutex, so one request is in flight at a time: the
//	              ablation of pipelining, and the in-run baseline Mux8
//	              must beat 3x
//	Single      — 1 goroutine, pure register round-trip latency (held to
//	              1.3x of the seed's single-client latency)
const (
	benchClients = 8
	benchHotN    = 64
	benchMissN   = 1 << 12 // distinct miss-path taints per goroutine
)

type tmBenchEnv struct {
	addr string
	srv  *taintmap.Server
}

type tcpAcceptor struct{ l net.Listener }

func (a tcpAcceptor) Accept() (io.ReadWriteCloser, error) { return a.l.Accept() }
func (a tcpAcceptor) Close() error                        { return a.l.Close() }

// newTMBenchEnv starts a Taint Map server on loopback TCP.
func newTMBenchEnv(b *testing.B) *tmBenchEnv {
	b.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Skipf("no loopback TCP available: %v", err)
	}
	srv := taintmap.NewServer(taintmap.NewStore(), tcpAcceptor{l: l}, nil)
	srv.Start()
	env := &tmBenchEnv{addr: l.Addr().String(), srv: srv}
	b.Cleanup(func() { srv.Close() })
	return env
}

func (e *tmBenchEnv) dial(b *testing.B) io.ReadWriteCloser {
	b.Helper()
	conn, err := net.Dial("tcp", e.addr)
	if err != nil {
		b.Fatal(err)
	}
	return conn
}

// runMixed drives the 90/10 workload through one shared client: per 10
// ops, 9 hits (a GlobalID-cached register alternating with a
// memo-cached lookup) and 1 miss (a register whose Global ID cache is
// cleared, forcing the full wire round trip). All taints are minted
// before the clock starts so the timed loop measures the Taint Map
// service, not the taint constructor.
func runMixed(b *testing.B, env *tmBenchEnv, client taintmap.Client, tree *taint.Tree, goroutines int) {
	b.Helper()
	hot := make([]taint.Taint, benchHotN)
	hotIDs := make([]uint32, benchHotN)
	for i := range hot {
		hot[i] = tree.NewSource(fmt.Sprintf("hot-%d", i), "bench:1")
		id, err := client.Register(hot[i])
		if err != nil {
			b.Fatal(err)
		}
		hotIDs[i] = id
	}
	// Per-goroutine miss pools: names are distinct across goroutines so
	// the mux client's singleflight table cannot collapse two misses
	// into one request.
	miss := make([][]taint.Taint, goroutines)
	for g := range miss {
		miss[g] = make([]taint.Taint, benchMissN)
		for i := range miss[g] {
			miss[g][i] = tree.NewSource(fmt.Sprintf("miss-%d-%d", g, i), "bench:1")
		}
	}
	perG := b.N / goroutines
	if perG == 0 {
		perG = 1
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nextMiss := 0
			for i := 0; i < perG; i++ {
				k := i*goroutines + g
				var err error
				if i%10 == 7 { // miss: uncached register round trip
					t := miss[g][nextMiss%benchMissN]
					nextMiss++
					t.SetGlobalID(0)
					_, err = client.Register(t)
				} else if k%2 == 0 { // hit: register of an already-known taint
					_, err = client.Register(hot[k%benchHotN])
				} else { // hit: lookup of a memo-resident id
					_, err = client.Lookup(hotIDs[k%benchHotN])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
}

// serialized is the pipelining ablation: one client, one wire request in
// flight. Only a Register that has to reach the wire takes the mutex —
// hits stay as free as they are on the bare client, and runMixed's
// lookups are all memo hits.
type serialized struct {
	taintmap.Client
	mu sync.Mutex
}

func (s *serialized) Register(t taint.Taint) (uint32, error) {
	if t.Empty() || t.GlobalID() != 0 {
		return s.Client.Register(t)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Client.Register(t)
}

func BenchmarkTaintMapConcurrent(b *testing.B) {
	b.Run("Mux8", func(b *testing.B) {
		env := newTMBenchEnv(b)
		tree := taint.NewTree()
		client := taintmap.NewRemoteClient(env.dial(b), tree)
		defer client.Close()
		runMixed(b, env, client, tree, benchClients)
	})
	b.Run("Serialized8", func(b *testing.B) {
		env := newTMBenchEnv(b)
		tree := taint.NewTree()
		client := &serialized{Client: taintmap.NewRemoteClient(env.dial(b), tree)}
		defer client.Close()
		runMixed(b, env, client, tree, benchClients)
	})
	b.Run("Single", func(b *testing.B) {
		env := newTMBenchEnv(b)
		tree := taint.NewTree()
		client := taintmap.NewRemoteClient(env.dial(b), tree)
		defer client.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Register(tree.NewSource(fmt.Sprintf("lat-%d", i), "bench:1")); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Cluster8 is the tentpole's latency criterion: the ClusterClient
	// pointed at ONE standalone server over the same loopback TCP and
	// workload as Mux8 — the stack every one-address deployment runs.
	// The cluster layer (ring routing, per-member resilience) must cost
	// <= 1.05x the bare mux client, so a single server pays nothing for
	// being a cluster of one.
	b.Run("Cluster8", func(b *testing.B) {
		env := newTMBenchEnv(b)
		tree := taint.NewTree()
		ring, err := taintmap.NewRing(1, 1, []taintmap.Member{{Part: 0, Addr: env.addr}})
		if err != nil {
			b.Fatal(err)
		}
		client, err := taintmap.NewClusterClient(ring, func(addr string) (io.ReadWriteCloser, error) {
			return net.Dial("tcp", addr)
		}, tree, taintmap.ClusterOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		runMixed(b, env, client, tree, benchClients)
	})
}

// The scaling series: the same 8-goroutine mixed workload against 1, 2
// and 4 cluster members. This host has a single CPU, so real parallel
// speedup cannot be measured directly; instead each simulated server
// carries a service-cost model (WithServiceModel) — a per-server mutex
// under which modeled per-request processing time is slept — so N
// members behave like N fixed-capacity single-threaded machines whose
// service times overlap in wall-clock. Registration is the expensive
// op; accepting a replicated entry is modeled at an order less (the
// adopt-only replica path is one atomic publish — no dedup map, no id
// allocation), which is what keeps RF-2 replication from eating the
// scaling headroom.
const (
	benchRegisterCost = 400 * time.Microsecond
	benchAdoptCost    = 10 * time.Microsecond
	benchLookupCost   = 80 * time.Microsecond
)

// svcModel bills modeled service time against one server. Debt is
// slept in >= 1ms slices (holding the server's one-request-at-a-time
// mutex) so timer granularity amortizes over many requests instead of
// inflating every individual charge.
//
// Replication/repair adoptions ('p'/'w') are billed asynchronously: the
// adopt runs on the replica's peer connection while the OWNER awaits
// the ack, so sleeping it inline would stall the owner's pipeline on
// the replica's modeled busy-time and couple every member's capacity to
// its successor's — serializing the very servers the model is supposed
// to overlap. The debt is still paid in full, folded into the replica's
// own next flush.
type svcModel struct {
	mu       sync.Mutex
	debt     time.Duration
	peerDebt atomic.Int64 // ns billed by 'p'/'w' handlers, slept at the next flush
}

func (m *svcModel) cost(op byte, items int) {
	var d time.Duration
	switch op {
	case 'r':
		d = benchRegisterCost
	case 'b':
		d = benchRegisterCost * time.Duration(items)
	case 'p', 'w':
		m.peerDebt.Add(int64(items) * int64(benchAdoptCost))
		return
	case 'm':
		d = benchLookupCost * time.Duration(items)
	default:
		return
	}
	m.mu.Lock()
	m.debt += d + time.Duration(m.peerDebt.Swap(0))
	if m.debt >= 100*time.Microsecond {
		want := m.debt
		start := time.Now()
		time.Sleep(want)
		// The kernel overshoots small sleeps by hundreds of
		// microseconds on this class of host; carry the overshoot as
		// credit so modeled capacity stays exact instead of shrinking
		// by the timer error.
		m.debt = want - time.Since(start)
	}
	m.mu.Unlock()
}

func benchClusterScale(b *testing.B, n int) {
	network := netsim.New()
	members := make([]taintmap.Member, n)
	for i := range members {
		members[i] = taintmap.Member{Part: uint32(i), Addr: fmt.Sprintf("tm%d:1", i)}
	}
	ring, err := taintmap.NewRing(1, taintmap.DefaultReplication, members)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		store, err := taintmap.NewPartitionStore(uint32(i))
		if err != nil {
			b.Fatal(err)
		}
		model := &svcModel{} // one model per member: capacities are independent
		srv, node, err := taintmap.StartSimClusterMember(network, ring, uint32(i), store,
			taintmap.WithServiceModel(model.cost))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close(); node.Close() })
	}
	tree := taint.NewTree()
	client, err := taintmap.DialSimCluster(network, "bench:1", ring, tree, taintmap.ClusterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	runMixed(b, nil, client, tree, benchClients)
}

func BenchmarkTaintMapCluster(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("Scale%d", n), func(b *testing.B) { benchClusterScale(b, n) })
	}
}
