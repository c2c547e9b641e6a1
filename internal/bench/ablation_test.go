package bench

import (
	"bytes"
	"strings"
	"testing"

	"dista/internal/core/wire"
)

func TestCachingAblationShape(t *testing.T) {
	res, err := MeasureCachingAblation(64<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached <= 0 || res.Uncached <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// The cached client resolves each taint once; the uncached one
	// contacts the store and unmarshals for every distinct id of every
	// read — it must be slower.
	if res.Uncached <= res.Cached {
		t.Fatalf("uncached (%v) must be slower than cached (%v)", res.Uncached, res.Cached)
	}
}

func TestWireFormatComparison(t *testing.T) {
	cmp, err := CompareWireFormats(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.GlobalIDWire != wire.WireLen(10_000) {
		t.Fatalf("global id wire = %d", cmp.GlobalIDWire)
	}
	// §III-D-2: "The serialized bytes array can cause far more than
	// [the taint's length in] bandwidth overhead" — the blob design must
	// be at least an order of magnitude worse than the 5x design.
	if cmp.InlineBlobWire < 10*cmp.GlobalIDWire {
		t.Fatalf("inline blob %d not >> global id %d", cmp.InlineBlobWire, cmp.GlobalIDWire)
	}
	if cmp.BlobLen < 50 {
		t.Fatalf("unrealistically small taint blob: %d", cmp.BlobLen)
	}
	// The blob once per registration is the id design plus one unit: a
	// frame header, an id, a length and the blob.
	if extra := cmp.DefinedOnceWire - cmp.GlobalIDWire; extra != wire.FrameHeaderLen+wire.DefinitionHeadLen+cmp.BlobLen {
		t.Fatalf("one definition costs %d wire bytes for a %d-byte blob", extra, cmp.BlobLen)
	}
}

func TestWriteAblations(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAblations(&buf, 16<<10, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ABLATION A1", "ABLATION A2", "Global ID design", "inline taint blob"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMemoryOverheadShape(t *testing.T) {
	const buffers, perBuffer = 16, 2 << 10
	res := MeasureMemoryOverhead(buffers, 64<<10)
	if res.PlainHeap == 0 {
		t.Skip("heap measurement too noisy on this run")
	}
	// A run-length shadow and interning make a uniform label O(1) per
	// buffer — one run and one shared node, not a label per byte — a few
	// hundred bytes, less than the heap reading's noise: the uniform
	// regime stays within a small per-buffer bound of plain, either side.
	// Labels that change every 64 bytes keep a run and a node each, and
	// must cost more than that.
	if gap := int64(res.UniformHeap) - int64(res.PlainHeap); gap > buffers*perBuffer || gap < -buffers*perBuffer {
		t.Fatalf("uniform taint heap %d is %+d B from plain %d, want within %d B a buffer", res.UniformHeap, gap, res.PlainHeap, perBuffer)
	}
	if res.PerByteHeap <= res.UniformHeap {
		t.Fatalf("per-64B taints (%d) should cost more than the uniform regime (%d)", res.PerByteHeap, res.UniformHeap)
	}
	if res.TreeNodes == 0 {
		t.Fatal("per-byte regime built no tree nodes")
	}
	// The shadow-array overhead factor stays within an order of
	// magnitude of Phosphor's published 1x-8x band (a taint.Taint is one
	// pointer per byte: 8x data on 64-bit, plus slice headers).
	if f := res.factor(res.UniformHeap); f > 20 {
		t.Fatalf("uniform overhead factor %.1fx is implausibly high", f)
	}
}

func TestWriteMemoryOverhead(t *testing.T) {
	var buf bytes.Buffer
	WriteMemoryOverhead(&buf, 4, 16<<10)
	if !strings.Contains(buf.String(), "MEMORY OVERHEAD") {
		t.Fatalf("output:\n%s", buf.String())
	}
}
