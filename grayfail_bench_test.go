package dista

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// BenchmarkGrayFail measures the PR 8 gray-failure criteria on a
// 2-member RF-2 netsim cluster:
//
//	LookupHealthy — memo-cold wire lookups against two healthy replicas;
//	                every id is looked up exactly once, so each
//	                iteration pays a real round trip. The per-lookup
//	                latency distribution's p99 is reported as p99-ns/op.
//	LookupStalled — the same workload with one replica gray-failed
//	                (SetHostStall: it accepts dials and absorbs requests
//	                but its replies freeze). The breaker is tripped
//	                before the clock starts, so this measures steady
//	                state: rotation fall-through plus the occasional
//	                hedge, not first-contact timeout storms. The
//	                acceptance bound is p99 <= 3x the healthy p99.
//
// Run with fixed iteration counts (-benchtime=Nx) so the id pool is
// minted once per run and every measured lookup stays memo-cold.
const (
	grayMembers   = 2
	grayWarmIDs   = 128
	grayRegChunk  = 2048
	grayTripWait  = 10 * time.Second
	grayCallTO    = 25 * time.Millisecond
	grayHedgeInit = 2 * time.Millisecond
)

func startGrayCluster(b *testing.B) (*netsim.Network, *taintmap.Ring) {
	b.Helper()
	network := netsim.New()
	members := make([]taintmap.Member, grayMembers)
	for i := range members {
		members[i] = taintmap.Member{Part: uint32(i), Addr: fmt.Sprintf("tm%d:1", i)}
	}
	ring, err := taintmap.NewRing(1, 2, members)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < grayMembers; i++ {
		store, err := taintmap.NewPartitionStore(uint32(i))
		if err != nil {
			b.Fatal(err)
		}
		srv, node, err := taintmap.StartSimClusterMember(network, ring, uint32(i), store)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close(); node.Close() })
	}
	return network, ring
}

// grayLookupOpts keeps the fault reaction fast enough to reach steady
// state inside a benchmark run: short call timeout, a two-strike
// breaker, and a budget generous enough that hedges and reconnect
// probes are never denied (the bench measures latency, not starvation).
func grayLookupOpts() taintmap.ClusterOptions {
	return taintmap.ClusterOptions{
		Resilient: taintmap.ResilientOptions{
			CallTimeout:      grayCallTO,
			BackoffBase:      time.Millisecond,
			BackoffMax:       50 * time.Millisecond,
			BreakerThreshold: 2,
		},
		HedgeDelay:  grayHedgeInit,
		BudgetRate:  1000,
		BudgetBurst: 2000,
	}
}

// mintGrayIDs registers n distinct taints through the writer and
// returns their Global IDs. Chunked so a large -benchtime stays one
// batch round trip per chunk per partition.
func mintGrayIDs(b *testing.B, w taintmap.Client, tree *taint.Tree, prefix string, n int) []uint32 {
	b.Helper()
	ids := make([]uint32, 0, n)
	for off := 0; off < n; off += grayRegChunk {
		c := grayRegChunk
		if off+c > n {
			c = n - off
		}
		ts := make([]taint.Taint, c)
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

func benchGrayLookup(b *testing.B, stall bool) {
	network, ring := startGrayCluster(b)
	opt := grayLookupOpts()

	wtree := taint.NewTree()
	writer, err := taintmap.DialSimCluster(network, "writer:1", ring, wtree, opt)
	if err != nil {
		b.Fatal(err)
	}
	defer writer.Close()
	warm := mintGrayIDs(b, writer, wtree, "graywarm", grayWarmIDs)
	ids := mintGrayIDs(b, writer, wtree, "gray", b.N)

	rtree := taint.NewTree()
	reader, err := taintmap.DialSimCluster(network, "reader:1", ring, rtree, opt)
	if err != nil {
		b.Fatal(err)
	}
	defer reader.Close()

	if stall {
		network.SetHostStall("tm0", true)
		b.Cleanup(func() { network.SetHostStall("tm0", false) })
	}
	// Warm the hedge tracker (>= hedgeWarmup observations) and, when
	// stalled, let the watchdog timeouts trip the stalled member's
	// breaker so the timed loop measures steady-state fall-through.
	for _, id := range warm {
		if _, err := reader.Lookup(id); err != nil && !errors.Is(err, taintmap.ErrDegraded) {
			b.Fatal(err)
		}
	}
	if stall {
		deadline := time.Now().Add(grayTripWait)
		for !reader.Health().Members[0].Degraded {
			if time.Now().After(deadline) {
				b.Fatal("stalled member never tripped the breaker")
			}
			time.Sleep(time.Millisecond)
		}
	}

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := reader.Lookup(ids[i]); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rank := (99*len(lat) + 99) / 100 // ceil(0.99*n), matching the tracker's rounding
	if rank > len(lat) {
		rank = len(lat)
	}
	b.ReportMetric(float64(lat[rank-1].Nanoseconds()), "p99-ns/op")
}

func BenchmarkGrayFail(b *testing.B) {
	b.Run("LookupHealthy", func(b *testing.B) { benchGrayLookup(b, false) })
	b.Run("LookupStalled", func(b *testing.B) { benchGrayLookup(b, true) })
}
