package taint

import (
	"fmt"
	"runtime"
	"testing"
)

// settledHeap collects until two successive readings of the live heap
// agree (a few cycles at most) and returns the last. One collection is
// not a fixed point — goroutines of earlier work are still being torn
// down, a cycle queues finalizers for the next — and a run-mode uniform
// shadow costs tens of bytes a buffer, less than that noise.
func settledHeap() uint64 {
	var m runtime.MemStats
	for last, i := uint64(1), 0; m.HeapAlloc != last && i < 8; i++ {
		last = m.HeapAlloc
		runtime.GC()
		runtime.ReadMemStats(&m)
	}
	return m.HeapAlloc
}

// heapOf runs f while keeping its result alive, and returns the
// live-heap delta it caused, the heap settled on both sides.
func heapOf(f func() any) uint64 {
	before := settledHeap()
	keep := f()
	after := settledHeap()
	runtime.KeepAlive(keep)
	if after < before {
		return 0
	}
	return after - before
}

// TestMemoryOverheadShape is the memory side of §V-F, which the paper
// does not re-measure because DisTA reuses Phosphor's taint storage
// (published overhead 1x-8x, 2.7x average): live heap held by tainted
// buffers against plain ones, under two labelling regimes. With -v it
// logs the three rows.
func TestMemoryOverheadShape(t *testing.T) {
	const buffers, size, perBuffer = 16, 64 << 10, 2 << 10
	plain := heapOf(func() any {
		out := make([]Bytes, buffers)
		for i := range out {
			out[i] = WrapBytes(make([]byte, size))
		}
		return out
	})
	uniform := heapOf(func() any {
		tag := NewTree().NewSource("uniform", "bench:1")
		out := make([]Bytes, buffers)
		for i := range out {
			out[i] = WrapBytes(make([]byte, size))
			out[i].TaintAll(tag)
		}
		return out
	})
	var tree *Tree
	per64 := heapOf(func() any {
		tree = NewTree()
		out := make([]Bytes, buffers)
		for i := range out {
			out[i] = MakeBytes(size)
			for j := 0; j < size; j += 64 {
				out[i].SetRange(j, min(j+64, size), tree.NewSource(fmt.Sprintf("t%d-%d", i, j), "bench:1"))
			}
		}
		return out
	})
	if plain == 0 {
		t.Skip("heap measurement too noisy on this run")
	}
	factor := func(heap uint64) float64 { return float64(heap) / float64(plain) }
	t.Logf("%d buffers x %d bytes; Phosphor's published range: 1x-8x, 2.7x avg", buffers, size)
	t.Logf("plain buffers:          %10d B (1.00x)", plain)
	t.Logf("uniformly tainted:      %10d B (%.2fx)", uniform, factor(uniform))
	t.Logf("distinct taint per 64B: %10d B (%.2fx, %d tree nodes)", per64, factor(per64), tree.NodeCount())

	// A run-length shadow and interning make a uniform label O(1) per
	// buffer — one run and one shared node, not a label per byte — a few
	// hundred bytes, less than the heap reading's noise: the uniform
	// regime stays within a small per-buffer bound of plain, either side.
	// Labels that change every 64 bytes keep a run and a node each, and
	// must cost more than that.
	if gap := int64(uniform) - int64(plain); gap > buffers*perBuffer || gap < -buffers*perBuffer {
		t.Fatalf("uniform taint heap %d is %+d B from plain %d, want within %d B a buffer", uniform, gap, plain, perBuffer)
	}
	if per64 <= uniform {
		t.Fatalf("per-64B taints (%d) should cost more than the uniform regime (%d)", per64, uniform)
	}
	if tree.NodeCount() == 0 {
		t.Fatal("per-byte regime built no tree nodes")
	}
	// The shadow overhead factor stays within an order of magnitude of
	// Phosphor's published 1x-8x band.
	if f := factor(uniform); f > 20 {
		t.Fatalf("uniform overhead factor %.1fx is implausibly high", f)
	}
}
