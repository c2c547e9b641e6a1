package taint

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// denseModel is the reference implementation the run-based shadow store
// must agree with: one label per byte, exactly the old representation.
type denseModel []Taint

func (m denseModel) at(i int) Taint {
	if i < len(m) {
		return m[i]
	}
	return Taint{}
}

// checkAgainstModel asserts b's labels equal the model byte-for-byte.
func checkAgainstModel(t *testing.T, b Bytes, m denseModel, ctx string) {
	t.Helper()
	for i := 0; i < b.Len(); i++ {
		if got, want := b.LabelAt(i), norm(m.at(i)); got != want {
			t.Fatalf("%s: byte %d label = %v, want %v", ctx, i, got, want)
		}
	}
}

// TestShadowMatchesDenseModel drives random SetRange/TaintRange/SetLabel/
// WriteLabels sequences through both representations and checks every byte, run
// iteration, union and uniformity after each step — including after the
// store densifies under fragmentation.
func TestShadowMatchesDenseModel(t *testing.T) {
	tr := NewTree()
	tags := make([]Taint, 5)
	for i := range tags {
		tags[i] = tr.NewSource(string(rune('a'+i)), "l")
	}
	rng := rand.New(rand.NewSource(42))
	const size = 257
	for iter := 0; iter < 50; iter++ {
		b := MakeBytes(size)
		model := make(denseModel, size)
		for op := 0; op < 200; op++ {
			from := rng.Intn(size)
			to := from + rng.Intn(size-from)
			var tag Taint
			if rng.Intn(4) > 0 {
				tag = tags[rng.Intn(len(tags))]
			}
			switch rng.Intn(4) {
			case 3:
				// A delivery of short runs over [from,to), sometimes cut
				// short: what no Put reached keeps its labels.
				w := b.WriteLabels(from, to, rng.Intn(to-from+1))
				for pos := from; pos < to && rng.Intn(16) > 0; {
					n := 1 + rng.Intn(4)
					if n > to-pos {
						n = to - pos
					}
					run := tags[rng.Intn(len(tags))]
					if rng.Intn(3) == 0 {
						run = Taint{}
					}
					w.Put(n, run)
					for i := pos; i < pos+n; i++ {
						model[i] = run
					}
					pos += n
				}
			case 0:
				b.SetRange(from, to, tag)
				for i := from; i < to; i++ {
					model[i] = norm(tag)
				}
			case 1:
				b.TaintRange(from, to, tag)
				for i := from; i < to; i++ {
					model[i] = norm(Combine(model[i], tag))
				}
			case 2:
				if from < size {
					b.SetLabel(from, tag)
					model[from] = norm(tag)
				}
			}
		}
		checkAgainstModel(t, b, model, "random ops")

		// Run iteration must cover [0,size) exactly, in order, with
		// maximal runs matching the model.
		pos := 0
		b.ForEachRun(func(rf, rt int, tag Taint) {
			if rf != pos || rt <= rf {
				t.Fatalf("run [%d,%d) does not continue from %d", rf, rt, pos)
			}
			for i := rf; i < rt; i++ {
				if model.at(i) != tag {
					t.Fatalf("run [%d,%d)=%v disagrees with model at %d", rf, rt, tag, i)
				}
			}
			pos = rt
		})
		if pos != size {
			t.Fatalf("runs cover %d of %d bytes", pos, size)
		}

		var wantUnion Taint
		for _, l := range model {
			wantUnion = Combine(wantUnion, l)
		}
		if got := b.Union(); !SameSet(got, wantUnion) {
			t.Fatalf("union = %v, want %v", got, wantUnion)
		}
		if u, ok := b.Uniform(); ok {
			for i := range model {
				if norm(model.at(i)) != u {
					t.Fatalf("claimed uniform %v but model[%d]=%v", u, i, model[i])
				}
			}
		}
	}
}

// TestSliceAliasingContract pins the slice-semantics contract: label
// writes through an overlapping sub-slice view are visible to the
// parent and to sibling views, exactly like sub-slicing the old dense
// array.
func TestSliceAliasingContract(t *testing.T) {
	tr := NewTree()
	x := tr.NewSource("x", "l")
	y := tr.NewSource("y", "l")

	b := MakeBytes(16)
	mid := b.Slice(4, 12)
	mid.SetRange(0, 4, x) // bytes 4..8 of b
	if !b.LabelAt(4).Has("x") || !b.LabelAt(7).Has("x") || b.LabelAt(8).Has("x") {
		t.Fatal("sub-slice writes must be visible to the parent")
	}
	sib := b.Slice(6, 10)
	if !sib.LabelAt(0).Has("x") {
		t.Fatal("sibling views must see aliased labels")
	}
	sib.SetLabel(0, y) // byte 6 of b
	if !mid.LabelAt(2).Has("y") {
		t.Fatal("parent-path views must see sibling writes")
	}

	// A sub-slice of a shadow-free Bytes gets its own store on first
	// taint; the parent stays untouched (the dense representation
	// behaved the same: no shadow array to alias).
	lazy := WrapBytes(make([]byte, 8))
	sub := lazy.Slice(2, 6)
	sub.SetLabel(0, x)
	if lazy.HasShadow() {
		t.Fatal("tainting a detached sub-slice must not materialize the parent's shadow")
	}
	if !sub.LabelAt(0).Has("x") {
		t.Fatal("detached sub-slice must keep its own labels")
	}
}

// TestAppendAliasing pins Append's storage-reuse rule: when the
// receiver owns its shadow store's whole extent the result extends that
// store in place (so receiver views alias the prefix); otherwise the
// result gets an independent store.
func TestAppendAliasing(t *testing.T) {
	tr := NewTree()
	x := tr.NewSource("x", "l")
	y := tr.NewSource("y", "l")

	// Receiver owns its whole store: the result aliases it.
	a := MakeBytes(4)
	out := a.Append(FromString("zz", y))
	out.SetRange(0, 2, x)
	if !a.LabelAt(0).Has("x") {
		t.Fatal("whole-extent append must reuse the receiver's store")
	}
	if !out.LabelAt(4).Has("y") || out.LabelAt(3).Has("y") {
		t.Fatal("appended labels must land after the receiver's bytes")
	}

	// A sub-slice receiver must NOT leak writes past its window: the
	// result gets an independent store.
	base := MakeBytes(8)
	subApp := base.Slice(2, 5).Append(FromString("q", y))
	subApp.SetRange(0, 3, x)
	if base.LabelAt(2).Has("x") || base.LabelAt(5).Has("y") {
		t.Fatal("sub-slice append must not write through to the base store")
	}

	// Self-append snapshots the source window before extending.
	s := FromString("ab", x)
	dup := s.Append(s)
	for i := 0; i < 4; i++ {
		if !dup.LabelAt(i).Has("x") {
			t.Fatalf("self-append byte %d lost its label", i)
		}
	}
}

// TestCopyIntoOverlappingViews pins CopyInto over two overlapping views
// of one store (the ByteBuffer.Compact pattern): the source window must
// be snapshotted, not read while being overwritten.
func TestCopyIntoOverlappingViews(t *testing.T) {
	tr := NewTree()
	x := tr.NewSource("x", "l")
	y := tr.NewSource("y", "l")

	b := MakeBytes(8)
	copy(b.Data, "01234567")
	b.SetRange(4, 6, x)
	b.SetRange(6, 8, y)
	rest := b.Slice(4, 8)
	if n := rest.CopyInto(&b, 0); n != 4 {
		t.Fatalf("copied %d", n)
	}
	if string(b.Data[:4]) != "4567" {
		t.Fatalf("data = %q", b.Data[:4])
	}
	if !b.LabelAt(0).Has("x") || !b.LabelAt(1).Has("x") || !b.LabelAt(2).Has("y") || !b.LabelAt(3).Has("y") {
		t.Fatal("compacted labels must match the pre-copy source window")
	}
}

// TestQuickSliceCopyIntoMatchesDense quick-checks CopyInto between
// random windows against the dense model.
func TestQuickSliceCopyIntoMatchesDense(t *testing.T) {
	tr := NewTree()
	x := tr.NewSource("x", "l")
	y := tr.NewSource("y", "l")
	f := func(srcTaintEven bool, off uint8) bool {
		size := 32
		offset := int(off) % 16
		src := MakeBytes(8)
		model := make(denseModel, size)
		for i := 0; i < 8; i++ {
			if (i%2 == 0) == srcTaintEven {
				src.SetLabel(i, x)
			}
		}
		dst := MakeBytes(size)
		dst.TaintAll(y)
		for i := range model {
			model[i] = y
		}
		n := src.CopyInto(&dst, offset)
		for i := 0; i < n; i++ {
			model[offset+i] = norm(src.LabelAt(i))
		}
		for i := 0; i < size; i++ {
			if dst.LabelAt(i) != norm(model.at(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDensifyUnderFragmentation checks the adaptive fallback: per-byte
// alternating labels must flip the store into dense mode and stay
// correct, and a whole-buffer overwrite must still work afterwards.
func TestDensifyUnderFragmentation(t *testing.T) {
	tr := NewTree()
	t1 := tr.NewSource("t1", "l")
	t2 := tr.NewSource("t2", "l")
	const n = 1024
	b := MakeBytes(n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			b.SetLabel(i, t1)
		} else {
			b.SetLabel(i, t2)
		}
	}
	if b.sh.dense == nil {
		t.Fatal("alternating per-byte labels must densify the store")
	}
	for i := 0; i < n; i++ {
		want := t1
		if i%2 == 1 {
			want = t2
		}
		if b.LabelAt(i) != want {
			t.Fatalf("dense byte %d = %v", i, b.LabelAt(i))
		}
	}
	if b.RunCount() != n {
		t.Fatalf("run count = %d, want %d", b.RunCount(), n)
	}
	b.SetRange(0, n, t1)
	if u, ok := b.Uniform(); !ok || u != t1 {
		t.Fatalf("uniform after overwrite = %v/%v", u, ok)
	}
}

// TestUniformFastPaths checks the O(runs) claims observable through the
// API: a uniform buffer is one run regardless of length.
func TestUniformFastPaths(t *testing.T) {
	tr := NewTree()
	u := tr.NewSource("u", "l")
	b := MakeBytes(1 << 16)
	b.TaintAll(u)
	if b.RunCount() != 1 {
		t.Fatalf("uniform 64 KiB buffer has %d runs, want 1", b.RunCount())
	}
	if got, ok := b.Uniform(); !ok || got != u {
		t.Fatalf("Uniform() = %v/%v", got, ok)
	}
	v := tr.NewSource("v", "l")
	b.TaintAll(v)
	if b.RunCount() != 1 {
		t.Fatalf("second TaintAll fragments the store: %d runs", b.RunCount())
	}
	if got := b.Union(); !got.Has("u") || !got.Has("v") {
		t.Fatalf("union = %v", got)
	}
}
