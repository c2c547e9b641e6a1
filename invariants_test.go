// Package dista's root holds the design invariants: in-run ratios that
// pin a design decision, each between two sides measured in the same
// process. `make invariants` runs them all:
//
//	go test -run=NONE -bench=Invariant -benchtime=1x .
//
// They are benchmarks so that `go test ./...` does not pay for them.
// Each one ignores b.N: it runs its two sides in alternating pairs at
// fixed iteration counts (a time-calibrated b.N would pick a different
// count per side, which skews per-op cost), takes the median of the
// per-pair ratios, logs it against its bound and fails past it. End-to-
// end overhead is priced by ./benchmark and `make bench-ab`, not here.
package dista

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dista/internal/analysis"
	"dista/internal/analysis/loader"
	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/instrument"
	"dista/internal/jni"
	"dista/internal/load"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// ratioBound is one invariant: over pairs alternating pairs, the median
// of num's measurement over den's stays at or under bound (atMost) or
// at or over it.
type ratioBound struct {
	num, den string
	pairs    int
	atMost   bool
	bound    float64
}

// measure runs the two sides r.pairs times, alternating which goes first
// so that neither always inherits the other's heap and warm caches, and
// returns the median num/den ratio, the per-pair ratios and whether the
// median meets the bound.
func (r ratioBound) measure(num, den func() float64) (median float64, ratios []float64, ok bool) {
	ratios = make([]float64, r.pairs)
	for i := range ratios {
		var n, d float64
		if i%2 == 0 {
			n = num()
			d = den()
		} else {
			d = den()
			n = num()
		}
		ratios[i] = n / d
	}
	sorted := append([]float64(nil), ratios...)
	sort.Float64s(sorted)
	median = sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		median = (sorted[len(sorted)/2-1] + median) / 2
	}
	if r.atMost {
		return median, ratios, median <= r.bound
	}
	return median, ratios, median >= r.bound
}

// check measures r and fails b when the median breaks the bound.
func (r ratioBound) check(b *testing.B, num, den func() float64) {
	median, ratios, ok := r.measure(num, den)
	op := ">="
	if r.atMost {
		op = "<="
	}
	b.ReportMetric(median, "x")
	b.Logf("%s / %s = %.3fx (want %s %.2fx; median of %.3f)", r.num, r.den, median, op, r.bound, ratios)
	if !ok {
		b.Fatalf("%s / %s = %.3fx breaks the bound %s %.2fx", r.num, r.den, median, op, r.bound)
	}
}

// TestRatioBound feeds the gate synthetic measurements on each side of
// its bounds: the pairs alternate which side runs first, the verdict is
// the median ratio's, and one outlying pair moves neither.
func TestRatioBound(t *testing.T) {
	var order []string
	side := func(name string, vals ...float64) func() float64 {
		return func() float64 {
			order = append(order, name)
			v := vals[0]
			vals = vals[1:]
			return v
		}
	}
	for _, tc := range []struct {
		r          ratioBound
		num, den   []float64
		wantMedian float64
		wantOK     bool
	}{
		{ratioBound{pairs: 3, atMost: true, bound: 1.05}, []float64{104, 300, 103}, []float64{100, 100, 100}, 1.04, true},
		{ratioBound{pairs: 3, atMost: true, bound: 1.05}, []float64{106, 50, 107}, []float64{100, 100, 100}, 1.06, false},
		{ratioBound{pairs: 4, atMost: true, bound: 1.05}, []float64{100, 104, 106, 120}, []float64{100, 100, 100, 100}, 1.05, true},
		{ratioBound{pairs: 3, bound: 3}, []float64{31, 29, 90}, []float64{10, 10, 10}, 3.1, true},
		{ratioBound{pairs: 3, bound: 3}, []float64{29, 31, 1}, []float64{10, 10, 10}, 2.9, false},
	} {
		order = nil
		median, ratios, ok := tc.r.measure(side("num", tc.num...), side("den", tc.den...))
		if math.Abs(median-tc.wantMedian) > 1e-9 || ok != tc.wantOK {
			t.Errorf("%+v over %v: median %v ok %v, want %v %v", tc.r, ratios, median, ok, tc.wantMedian, tc.wantOK)
		}
		for i := 0; i < len(order); i += 2 {
			if first := []string{"num", "den"}[i/2%2]; order[i] != first {
				t.Fatalf("pair %d ran %s first, want %s (order %v)", i/2, order[i], first, order)
			}
		}
	}
}

// perOp times f, which runs n operations, from a freshly collected heap
// and returns ns per operation.
func perOp(n int, f func()) float64 {
	runtime.GC()
	start := time.Now()
	f()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// ---- Taint Map service: pipelining and the cluster of one ----

// The 90/10 mixed workload of the Taint Map service (§III-D-2's
// single-point bottleneck): 8 goroutines share one client, 9 ops in 10
// are hits (a register of a known taint or a memo-resident lookup) and
// 1 is a miss that pays the wire round trip.
const (
	mixedClients = 8
	mixedHotN    = 64
	mixedMissN   = 1 << 12 // distinct miss-path taints per goroutine
)

type tcpAcceptor struct{ l net.Listener }

func (a tcpAcceptor) Accept() (io.ReadWriteCloser, error) { return a.l.Accept() }
func (a tcpAcceptor) Close() error                        { return a.l.Close() }

// tcpServer starts a Taint Map server on loopback TCP.
func tcpServer(b *testing.B) (addr string, srv *taintmap.Server) {
	b.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Skipf("no loopback TCP available: %v", err)
	}
	srv = taintmap.NewServer(taintmap.NewStore(), tcpAcceptor{l: l}, nil)
	srv.Start()
	return l.Addr().String(), srv
}

func dialTCP(addr string) (io.ReadWriteCloser, error) { return net.Dial("tcp", addr) }

// runMixed drives n ops of the mixed workload through client and
// returns ns/op. A miss re-registers a taint from a fixed per-goroutine
// pool with its cached Global ID cleared, so it stays a miss at any n
// while the server's store dedups. Taints are minted before the clock
// starts.
func runMixed(b *testing.B, client taintmap.Client, tree *taint.Tree, n int) float64 {
	b.Helper()
	hot := make([]taint.Taint, mixedHotN)
	hotIDs := make([]uint32, mixedHotN)
	for i := range hot {
		hot[i] = tree.NewSource(fmt.Sprintf("hot-%d", i), "bench:1")
		id, err := client.Register(hot[i])
		if err != nil {
			b.Fatal(err)
		}
		hotIDs[i] = id
	}
	// Names are distinct across goroutines, so every miss is a request
	// of its own.
	miss := make([][]taint.Taint, mixedClients)
	for g := range miss {
		miss[g] = make([]taint.Taint, mixedMissN)
		for i := range miss[g] {
			miss[g][i] = tree.NewSource(fmt.Sprintf("miss-%d-%d", g, i), "bench:1")
		}
	}
	perG := n / mixedClients
	errs := make(chan error, mixedClients)
	ns := perOp(n, func() {
		var wg sync.WaitGroup
		for g := 0; g < mixedClients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					k := i*mixedClients + g
					var err error
					if i%10 == 7 {
						t := miss[g][(i/10)%mixedMissN]
						t.SetGlobalID(0)
						_, err = client.Register(t)
					} else if k%2 == 0 {
						_, err = client.Register(hot[k%mixedHotN])
					} else {
						_, err = client.Lookup(hotIDs[k%mixedHotN])
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	return ns
}

// serialized is the pipelining ablation: one client, one wire request in
// flight. Only a Register that has to reach the wire takes the mutex —
// hits stay as free as on the bare client, and runMixed's lookups are
// all memo hits.
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

// mixedSide runs n ops of the mixed workload against a fresh loopback
// server through the client built by dial.
func mixedSide(b *testing.B, n int, dial func(addr string, tree *taint.Tree) (taintmap.Client, error)) func() float64 {
	return func() float64 {
		addr, srv := tcpServer(b)
		defer srv.Close()
		tree := taint.NewTree()
		client, err := dial(addr, tree)
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		return runMixed(b, client, tree, n)
	}
}

func muxClient(addr string, tree *taint.Tree) (taintmap.Client, error) {
	conn, err := dialTCP(addr)
	if err != nil {
		return nil, err
	}
	return taintmap.NewRemoteClient(conn, tree), nil
}

// BenchmarkInvariantMuxPipelining: the multiplexed client, 8 goroutines
// on one connection, beats the same client held to one request in
// flight by at least 3x.
func BenchmarkInvariantMuxPipelining(b *testing.B) {
	const n = 500_000
	ratioBound{num: "Serialized8", den: "Mux8", pairs: 5, bound: 3}.check(b,
		mixedSide(b, n, func(addr string, tree *taint.Tree) (taintmap.Client, error) {
			c, err := muxClient(addr, tree)
			if err != nil {
				return nil, err
			}
			return &serialized{Client: c}, nil
		}),
		mixedSide(b, n, muxClient))
}

// BenchmarkInvariantClusterOfOne: the cluster client pointed at one
// plain server — the stack every one-address deployment runs — costs
// at most 1.05x the bare multiplexed client. A 5% bound sits inside one
// short sample's noise, hence long sides and the median of eight pairs.
func BenchmarkInvariantClusterOfOne(b *testing.B) {
	const n = 1_000_000
	ratioBound{num: "Cluster8", den: "Mux8", pairs: 8, atMost: true, bound: 1.05}.check(b,
		mixedSide(b, n, func(addr string, tree *taint.Tree) (taintmap.Client, error) {
			ring, err := taintmap.NewRing(1, 1, []taintmap.Member{{Part: 0, Addr: addr}})
			if err != nil {
				return nil, err
			}
			return taintmap.NewClusterClient(ring, dialTCP, tree, taintmap.ClusterOptions{})
		}),
		mixedSide(b, n, muxClient))
}

// ---- Taint Map cluster: scaling ----

// Modeled service costs. The scaling series runs the mixed workload
// against 1 and 4 netsim members, each carrying a service-cost model (a
// per-server mutex under which the modeled processing time is slept),
// so N members behave like N fixed-capacity single-threaded machines
// whatever the host's core count. Accepting a replicated entry is
// modeled an order cheaper than a registration: the adopt-only replica
// path is one atomic publish, which is what keeps RF-2 replication from
// eating the scaling headroom.
const (
	svcRegisterCost = 400 * time.Microsecond
	svcAdoptCost    = 10 * time.Microsecond
	svcLookupCost   = 80 * time.Microsecond
	scaleOps        = 8000
)

// svcModel bills modeled service time against one server, slept in
// >= 100µs slices under the server's one-request-at-a-time mutex so
// timer granularity amortizes over many requests.
//
// Replication adoptions ('p', read-repairs included) are billed
// asynchronously: the adopt runs on the replica's peer connection while
// the owner awaits the ack, so sleeping it inline would couple every
// member's capacity to its successor's and serialize the servers the
// model is meant to overlap. The debt is folded into the replica's own
// next flush.
type svcModel struct {
	mu       sync.Mutex
	debt     time.Duration
	peerDebt atomic.Int64 // ns billed by 'p' handlers, slept at the next flush
}

func (m *svcModel) cost(op byte, items int) {
	var d time.Duration
	switch op {
	case 'b':
		d = svcRegisterCost * time.Duration(items)
	case 'p':
		m.peerDebt.Add(int64(items) * int64(svcAdoptCost))
		return
	case 'm':
		d = svcLookupCost * time.Duration(items)
	default:
		return
	}
	m.mu.Lock()
	m.debt += d + time.Duration(m.peerDebt.Swap(0))
	if m.debt >= 100*time.Microsecond {
		want := m.debt
		start := time.Now()
		time.Sleep(want)
		// Carry the kernel's sleep overshoot as credit so modeled
		// capacity stays exact instead of shrinking by the timer error.
		m.debt = want - time.Since(start)
	}
	m.mu.Unlock()
}

// simCluster starts members netsim Taint Map members at RF 2, each with
// its own service-cost model when modeled, and returns the network, the
// ring and a func that stops them.
func simCluster(b *testing.B, members int, modeled bool) (*netsim.Network, *taintmap.Ring, func()) {
	network := netsim.New()
	ms := make([]taintmap.Member, members)
	for i := range ms {
		ms[i] = taintmap.Member{Part: uint32(i), Addr: fmt.Sprintf("tm%d:1", i)}
	}
	ring, err := taintmap.NewRing(1, taintmap.DefaultReplication, ms)
	if err != nil {
		b.Fatal(err)
	}
	var stops []func()
	for i := range ms {
		store, err := taintmap.NewPartitionStore(uint32(i))
		if err != nil {
			b.Fatal(err)
		}
		var opts []taintmap.ServerOption
		if modeled {
			opts = append(opts, taintmap.WithServiceModel((&svcModel{}).cost))
		}
		srv, node, err := taintmap.StartSimClusterMember(network, ring, uint32(i), store, opts...)
		if err != nil {
			b.Fatal(err)
		}
		stops = append(stops, func() { srv.Close(); node.Close() })
	}
	return network, ring, func() {
		for _, stop := range stops {
			stop()
		}
	}
}

func scaleSide(b *testing.B, members int) func() float64 {
	return func() float64 {
		network, ring, stop := simCluster(b, members, true)
		defer stop()
		tree := taint.NewTree()
		client, err := taintmap.DialSimCluster(network, "bench:1", ring, tree, taintmap.ClusterOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		return runMixed(b, client, tree, scaleOps)
	}
}

// BenchmarkInvariantClusterScaling: the same workload registers at least
// 2.5x faster on 4 members than on 1 — the members do not serialize.
func BenchmarkInvariantClusterScaling(b *testing.B) {
	ratioBound{num: "Scale1", den: "Scale4", pairs: 5, bound: 2.5}.check(b, scaleSide(b, 1), scaleSide(b, 4))
}

// ---- Clean path and wire tiers ----

const (
	bulkSize = 64 << 10
	bulkOps  = 10_000
)

// newAgent builds a dista-mode agent on a shared local Taint Map.
func newAgent(name string, store *taintmap.Store) *tracker.Agent {
	a := tracker.New(name, tracker.ModeDista)
	return tracker.New(name, tracker.ModeDista,
		tracker.WithTaintMap(taintmap.NewLocalClient(store, a.Tree())))
}

// writes times bulkOps writes through the writer w builds on a pipe
// whose peer a goroutine drains.
func writes(b *testing.B, w func(*netsim.Conn) func() error) func() float64 {
	return func() float64 {
		cs, cr := netsim.New().Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for buf := make([]byte, bulkSize); ; {
				if _, err := cr.Read(buf); err != nil {
					return
				}
			}
		}()
		defer func() { cs.Close(); <-done }()
		write := w(cs)
		for i := 0; i < 4; i++ { // warm the endpoint scratch and the pipe
			if err := write(); err != nil {
				b.Fatal(err)
			}
		}
		return perOp(bulkOps, func() {
			for i := 0; i < bulkOps; i++ {
				if err := write(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// exchange round-trips the payload mk builds through an endpoint pair,
// the receiver reading into a reused buffer, and returns ns/op.
func exchange(b *testing.B, mk func(*tracker.Agent) taint.Bytes) func() float64 {
	return func() float64 {
		store := taintmap.NewStore()
		sAgent, rAgent := newAgent("s", store), newAgent("r", store)
		cs, cr := netsim.New().Pipe()
		sender := instrument.NewAdaptiveEndpoint(sAgent, cs)
		receiver := instrument.NewAdaptiveEndpoint(rAgent, cr)
		payload := mk(sAgent)
		done := make(chan error, 1)
		go func() {
			buf := taint.MakeBytes(bulkSize)
			for {
				if _, err := receiver.Read(&buf); err != nil {
					if err == io.EOF {
						err = nil
					}
					done <- err
					return
				}
			}
		}()
		// Register the labels and size the scratch, so steady state is
		// what gets measured.
		for i := 0; i < 2; i++ {
			if err := sender.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
		ns := perOp(bulkOps, func() {
			for i := 0; i < bulkOps; i++ {
				if err := sender.Write(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
		cs.Close()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		return ns
	}
}

// alwaysEncode pushes the identical clean payload across with every
// byte a group — what the paper's format charges traffic that carries
// no taint. No endpoint does this any more, so the comparator is the
// codec on the raw natives: EncodeRuns into a reused buffer and one
// socket write; socket reads into the group decoder, popped into a
// reused buffer. At ~15x the passthrough's cost per op, a quarter of
// the ops keeps its side about as long as the others.
func alwaysEncode(b *testing.B) func() float64 {
	const n = bulkOps / 4
	return func() float64 {
		cs, cr := netsim.New().Pipe()
		payload := make([]byte, bulkSize)
		done := make(chan error, 1)
		go func() {
			var dec wire.StreamDecoder
			raw, into := make([]byte, wire.WireLen(bulkSize)), make([]byte, bulkSize)
			for {
				n, err := jni.SocketRead0(cr, raw)
				dec.Feed(raw[:n])
				for dec.Buffered() > 0 {
					dec.NextRunsInto(into)
				}
				if err != nil {
					if err == io.EOF {
						err = nil
					}
					done <- err
					return
				}
			}
		}()
		var enc []byte
		ns := perOp(n, func() {
			for i := 0; i < n; i++ {
				enc = wire.EncodeRuns(enc[:0], payload, nil)
				if err := jni.SocketWrite0(cs, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		cs.Close()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		return ns
	}
}

func clean(*tracker.Agent) taint.Bytes { return taint.MakeBytes(bulkSize) }

// BenchmarkInvariantPassthrough: an untainted 64 KiB exchange on the
// passthrough frame is at least 5x cheaper than group-encoding it.
func BenchmarkInvariantPassthrough(b *testing.B) {
	ratioBound{num: "AlwaysEncode", den: "PassthroughExchange", pairs: 5, bound: 5}.check(b,
		alwaysEncode(b), exchange(b, clean))
}

// BenchmarkInvariantCleanWrite: a clean endpoint write — clean gate,
// frame header, two socket writes — costs at most 1.5x the raw netsim
// copy it wraps.
func BenchmarkInvariantCleanWrite(b *testing.B) {
	ratioBound{num: "PassthroughWrite", den: "NetsimCopy", pairs: 5, atMost: true, bound: 1.5}.check(b,
		writes(b, func(c *netsim.Conn) func() error {
			sender := instrument.NewAdaptiveEndpoint(newAgent("s", taintmap.NewStore()), c)
			payload := taint.MakeBytes(bulkSize)
			return func() error { return sender.Write(payload) }
		}),
		writes(b, func(c *netsim.Conn) func() error {
			payload := make([]byte, bulkSize)
			return func() error { _, err := c.Write(payload); return err }
		}))
}

// BenchmarkInvariantUniformTier: a uniformly tainted 64 KiB exchange
// rides the 4-byte uniform frame, at most 1.3x the clean one.
func BenchmarkInvariantUniformTier(b *testing.B) {
	uniform := func(a *tracker.Agent) taint.Bytes {
		p := taint.MakeBytes(bulkSize)
		p.SetRange(0, bulkSize, a.Source("vu", "u"))
		return p
	}
	ratioBound{num: "UniformExchange", den: "CleanExchange", pairs: 5, atMost: true, bound: 1.3}.check(b,
		exchange(b, uniform), exchange(b, clean))
}

// BenchmarkInvariantSparseTier: four 256-byte dirty islands in 64 KiB
// pay only for the islands, at most 1.5x the clean exchange.
func BenchmarkInvariantSparseTier(b *testing.B) {
	sparse := func(a *tracker.Agent) taint.Bytes {
		p := taint.MakeBytes(bulkSize)
		src := a.Source("vs", "s")
		for off := 0; off < bulkSize; off += bulkSize / 4 {
			p.SetRange(off, off+256, src)
		}
		return p
	}
	ratioBound{num: "SparseExchange", den: "CleanExchange", pairs: 5, atMost: true, bound: 1.5}.check(b,
		exchange(b, sparse), exchange(b, clean))
}

// ---- Gray failure ----

// A 2-member RF-2 netsim cluster whose reader looks up memo-cold ids,
// each exactly once, so every lookup pays a real round trip.
const (
	grayWarmIDs  = 128
	grayLookups  = 5000
	grayRegChunk = 2048
	grayTripWait = 10 * time.Second
)

// grayOpts keeps the fault reaction fast enough to reach steady state in
// a short run: short call timeout, a two-strike breaker, and a budget
// generous enough that hedges and reconnect probes are never denied.
var grayOpts = taintmap.ClusterOptions{
	Resilient: taintmap.ResilientOptions{
		CallTimeout:      25 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		BreakerThreshold: 2,
	},
	HedgeDelay:  2 * time.Millisecond,
	BudgetRate:  1000,
	BudgetBurst: 2000,
}

// mintIDs registers n distinct taints through w in batches and returns
// their Global IDs.
func mintIDs(b *testing.B, w taintmap.Client, tree *taint.Tree, prefix string, n int) []uint32 {
	b.Helper()
	ids := make([]uint32, 0, n)
	for off := 0; off < n; off += grayRegChunk {
		ts := make([]taint.Taint, min(grayRegChunk, n-off))
		for i := range ts {
			ts[i] = tree.NewSource(fmt.Sprintf("%s-%d", prefix, off+i), "bench:1")
		}
		got, err := w.RegisterBatch(ts)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, got...)
	}
	return ids
}

// grayLookupP99 returns the p99 of grayLookups memo-cold lookups, with
// member 0 gray-failed when stall is set: it accepts dials and absorbs
// requests, but its replies freeze. The breaker is tripped before the
// clock starts, so the tail is steady-state fall-through plus the
// occasional hedge, not first-contact timeouts.
func grayLookupP99(b *testing.B, stall bool) func() float64 {
	return func() float64 {
		network, ring, stop := simCluster(b, 2, false)
		defer stop()
		wtree := taint.NewTree()
		writer, err := taintmap.DialSimCluster(network, "writer:1", ring, wtree, grayOpts)
		if err != nil {
			b.Fatal(err)
		}
		defer writer.Close()
		warm := mintIDs(b, writer, wtree, "graywarm", grayWarmIDs)
		ids := mintIDs(b, writer, wtree, "gray", grayLookups)

		reader, err := taintmap.DialSimCluster(network, "reader:1", ring, taint.NewTree(), grayOpts)
		if err != nil {
			b.Fatal(err)
		}
		defer reader.Close()
		if stall {
			network.SetHostStall("tm0", true)
			defer network.SetHostStall("tm0", false)
		}
		// Warm the hedge tracker and, when stalled, let the watchdog
		// timeouts trip the stalled member's breaker.
		for _, id := range warm {
			if _, err := reader.Lookup(id); err != nil && !errors.Is(err, taintmap.ErrDegraded) {
				b.Fatal(err)
			}
		}
		for deadline := time.Now().Add(grayTripWait); stall && !reader.Health().Members[0].Degraded; {
			if time.Now().After(deadline) {
				b.Fatal("stalled member never tripped the breaker")
			}
			time.Sleep(time.Millisecond)
		}

		lat := make([]time.Duration, len(ids))
		for i, id := range ids {
			start := time.Now()
			if _, err := reader.Lookup(id); err != nil {
				b.Fatal(err)
			}
			lat[i] = time.Since(start)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return float64(lat[(99*len(lat)+99)/100-1]) // ceil(0.99n)-th
	}
}

// BenchmarkInvariantGrayFailTail: with one replica stalled, the lookup
// p99 stays within 3x the healthy p99 — the breaker and hedge turn the
// stall into instant fall-through.
func BenchmarkInvariantGrayFailTail(b *testing.B) {
	ratioBound{num: "StalledP99", den: "HealthyP99", pairs: 5, atMost: true, bound: 3}.check(b,
		grayLookupP99(b, true), grayLookupP99(b, false))
}

// ---- Load plane ----

// soakP999 returns the per-op round-trip p999 of one closed-loop run of
// conns connections, ops ops each, 512 B per op over the default mixes.
func soakP999(b *testing.B, conns, ops int) func() float64 {
	return func() float64 {
		r, err := load.Run(load.Config{Conns: conns, Ops: ops, Payload: 512})
		if err != nil {
			b.Fatal(err)
		}
		return float64(r.P999)
	}
}

// BenchmarkInvariantSoakTail: 50,000 connections keep their p999 within
// 12x of 1,000 connections'. Both runs carry the same per-op work, so the
// ratio prices the fabric's scaling alone (run queues, accept rings,
// credit backpressure). The baseline runs more ops per session so its
// quantiles come from steady-state samples, not the setup burst.
func BenchmarkInvariantSoakTail(b *testing.B) {
	ratioBound{num: "Soak50k", den: "Soak1k", pairs: 3, atMost: true, bound: 12}.check(b,
		soakP999(b, 50_000, 2), soakP999(b, 1000, 16))
}

// ---- distavet ----

// vetModule is the module parsed and type-checked with its stdlib
// closure, loaded once per invariant: the invariants price analysis, not
// loading, and nothing of it outlives the invariant.
type vetModule struct {
	prog *loader.Program
	pkgs []*loader.Package
}

func loadModule(b *testing.B) vetModule {
	root, err := loader.FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := loader.New(root, true)
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := prog.ModulePackages()
	if err != nil {
		b.Fatal(err)
	}
	return vetModule{prog, pkgs}
}

// side returns a side that runs the analyzers n times over the module,
// with the interprocedural index rebuilt every time so each run pays the
// full cost.
func (m vetModule) side(b *testing.B, as []*analysis.Analyzer, n int) func() float64 {
	return func() float64 {
		return perOp(n, func() {
			for i := 0; i < n; i++ {
				analysis.ResetIndexCache()
				if diags := analysis.Run(m.prog, m.pkgs, as); len(diags) != 0 {
					b.Fatalf("module is not distavet-clean: %s", diags[0])
				}
			}
		})
	}
}

// BenchmarkInvariantDistavetSuite: the whole interprocedural suite
// costs at most 1.5x the original five-analyzer core — the call
// graph and summaries ride one shared index build.
func BenchmarkInvariantDistavetSuite(b *testing.B) {
	core, err := analysis.ByName("shadowdrop,labelcopy,errcmp,lockorder,mustcheck")
	if err != nil {
		b.Fatal(err)
	}
	m := loadModule(b)
	ratioBound{num: "Suite", den: "Core", pairs: 3, atMost: true, bound: 1.5}.check(b,
		m.side(b, analysis.All(), 1), m.side(b, core, 1))
}
