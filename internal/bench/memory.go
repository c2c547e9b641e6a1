package bench

import (
	"fmt"
	"io"
	"runtime"

	"dista/internal/core/taint"
)

// Memory-overhead experiment (§V-F): the paper does not re-measure
// memory because DisTA reuses Phosphor's taint storage, whose published
// overhead is 1x-8x (2.7x average). This harness measures the analogous
// quantity in our runtime: heap held by tainted buffers versus plain
// buffers, under two labelling patterns.

// MemoryResult reports bytes of live heap per scenario.
type MemoryResult struct {
	BufferBytes int    // payload bytes allocated
	PlainHeap   uint64 // heap holding untainted buffers
	UniformHeap uint64 // heap with every byte sharing one taint
	PerByteHeap uint64 // heap with a distinct taint every 64 bytes
	TreeNodes   int    // tag-tree nodes after the per-byte scenario
}

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

// measureHeap runs f while keeping its result alive, and returns the
// live-heap delta it caused, the heap settled on both sides.
func measureHeap(f func() any) uint64 {
	before := settledHeap()
	keep := f()
	after := settledHeap()
	runtime.KeepAlive(keep)
	if after < before {
		return 0
	}
	return after - before
}

// MeasureMemoryOverhead allocates `buffers` buffers of `size` bytes
// under the three labelling regimes.
func MeasureMemoryOverhead(buffers, size int) MemoryResult {
	res := MemoryResult{BufferBytes: buffers * size}

	res.PlainHeap = measureHeap(func() any {
		out := make([]taint.Bytes, buffers)
		for i := range out {
			out[i] = taint.WrapBytes(make([]byte, size))
		}
		return out
	})

	res.UniformHeap = measureHeap(func() any {
		tree := taint.NewTree()
		tag := tree.NewSource("uniform", "bench:1")
		out := make([]taint.Bytes, buffers)
		for i := range out {
			out[i] = taint.WrapBytes(make([]byte, size))
			out[i].TaintAll(tag)
		}
		return out
	})

	var lastTree *taint.Tree
	res.PerByteHeap = measureHeap(func() any {
		tree := taint.NewTree()
		lastTree = tree
		out := make([]taint.Bytes, buffers)
		for i := range out {
			out[i] = taint.MakeBytes(size)
			for j := 0; j < size; j += 64 {
				tag := tree.NewSource(fmt.Sprintf("t%d-%d", i, j), "bench:1")
				end := j + 64
				if end > size {
					end = size
				}
				out[i].SetRange(j, end, tag)
			}
		}
		return out
	})
	if lastTree != nil {
		res.TreeNodes = lastTree.NodeCount()
	}
	return res
}

// factor renders heap as a multiple of the plain baseline.
func (r MemoryResult) factor(heap uint64) float64 {
	if r.PlainHeap == 0 {
		return 0
	}
	return float64(heap) / float64(r.PlainHeap)
}

// WriteMemoryOverhead prints the experiment (compare against Phosphor's
// published 1x-8x, 2.7x average).
func WriteMemoryOverhead(w io.Writer, buffers, size int) {
	res := MeasureMemoryOverhead(buffers, size)
	fmt.Fprintf(w, "MEMORY OVERHEAD (%d buffers x %d bytes; Phosphor's published range: 1x-8x, 2.7x avg)\n",
		buffers, size)
	fmt.Fprintf(w, "  plain buffers:           %10d B (1.00x)\n", res.PlainHeap)
	fmt.Fprintf(w, "  uniformly tainted:       %10d B (%.2fx)\n", res.UniformHeap, res.factor(res.UniformHeap))
	fmt.Fprintf(w, "  distinct taint per 64B:  %10d B (%.2fx, %d tree nodes)\n",
		res.PerByteHeap, res.factor(res.PerByteHeap), res.TreeNodes)
}
