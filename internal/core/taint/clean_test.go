package taint

import "testing"

// Tests for the clean-path gate: Bytes.Clean, the per-epoch memo on the
// shadow store, and the pooling reset.

func TestCleanBasics(t *testing.T) {
	if !WrapBytes([]byte("abc")).Clean() {
		t.Fatal("a lazy (shadow-free) buffer is clean")
	}
	if !MakeBytes(8).Clean() {
		t.Fatal("a fresh tracked buffer is clean")
	}
	var empty Bytes
	if !empty.Clean() {
		t.Fatal("the zero Bytes is clean")
	}

	tr := NewTree()
	b := MakeBytes(8)
	b.SetLabel(3, tr.NewSource("x", "l"))
	if b.Clean() {
		t.Fatal("a labeled buffer is not clean")
	}
	b.SetLabel(3, Taint{})
	if !b.Clean() {
		t.Fatal("clearing the only label restores cleanliness")
	}
}

func TestCleanMemoTracksMutationEpoch(t *testing.T) {
	tr := NewTree()
	b := MakeBytes(64)

	// First Clean scans and memoizes at the current epoch.
	if !b.Clean() {
		t.Fatal("fresh buffer must be clean")
	}
	memo := b.sh.clean.Load()
	if memo>>1 != b.sh.mut+1 || memo&1 != 0 {
		t.Fatalf("memo = %#x, want clean at epoch %d", memo, b.sh.mut)
	}

	// A label write bumps the epoch, invalidating the memo key.
	b.SetLabel(0, tr.NewSource("x", "l"))
	if stale := b.sh.clean.Load(); stale>>1 == b.sh.mut+1 {
		t.Fatal("mutation did not advance past the memoized epoch")
	}
	if b.Clean() {
		t.Fatal("buffer is tainted")
	}
	memo = b.sh.clean.Load()
	if memo>>1 != b.sh.mut+1 || memo&1 != 1 {
		t.Fatalf("memo = %#x, want dirty at epoch %d", memo, b.sh.mut)
	}

	// Re-clearing bumps the epoch again and Clean recomputes to true.
	b.SetRange(0, 64, Taint{})
	if !b.Clean() {
		t.Fatal("cleared buffer must be clean again")
	}

	// Writing the same (empty) label back is a no-op and must NOT
	// invalidate: the memo stays valid for the unchanged epoch.
	epoch := b.sh.mut
	b.SetRange(0, 64, Taint{})
	if b.sh.mut != epoch {
		t.Fatal("no-op clear bumped the mutation epoch")
	}
}

func TestCleanDenseMode(t *testing.T) {
	tr := NewTree()
	b := MakeBytes(256)
	// Fragment hard enough to trip densification.
	x, y := tr.NewSource("x", "l"), tr.NewSource("y", "l")
	for i := 0; i < 256; i += 2 {
		b.SetLabel(i, x)
		b.SetLabel(i+1, y)
	}
	if b.sh.dense == nil {
		t.Fatal("fragmentation should have densified the store")
	}
	if b.Clean() {
		t.Fatal("densified tainted buffer is not clean")
	}
	b.SetRange(0, 256, Taint{})
	if !b.Clean() {
		t.Fatal("cleared dense store must scan back to clean")
	}
}

func TestCleanViewOfDirtyStore(t *testing.T) {
	tr := NewTree()
	b := MakeBytes(16)
	b.SetRange(10, 12, tr.NewSource("x", "l"))
	if !b.Slice(0, 10).Clean() {
		t.Fatal("untainted view of a dirty store is clean (ranged fallback)")
	}
	if b.Slice(8, 12).Clean() || b.Clean() {
		t.Fatal("views overlapping the labels are not clean")
	}
}

func TestResetLabels(t *testing.T) {
	tr := NewTree()
	b := MakeBytes(32)
	b.TaintAll(tr.NewSource("x", "l"))
	sh := b.sh
	b.ResetLabels()
	if !b.HasShadow() || b.sh != sh {
		t.Fatal("ResetLabels must reuse the shadow store, not drop it")
	}
	if !b.Clean() {
		t.Fatal("reset buffer must be clean")
	}
	if got := b.RunCount(); got != 1 {
		t.Fatalf("reset buffer has %d runs, want 1", got)
	}

	// Resetting a view only clears the view's range.
	c := MakeBytes(16)
	c.TaintAll(tr.NewSource("y", "l"))
	v := c.Slice(4, 8)
	v.ResetLabels()
	if !v.Clean() {
		t.Fatal("view must be clean after its reset")
	}
	if !c.LabelAt(3).Has("y") || !c.LabelAt(8).Has("y") {
		t.Fatal("reset of a view leaked outside its range")
	}

	// Lazy buffers stay lazy.
	w := WrapBytes([]byte("zz"))
	w.ResetLabels()
	if w.HasShadow() {
		t.Fatal("ResetLabels on a lazy buffer must not mint a shadow")
	}
}

func TestCleanAfterAppendAndCopy(t *testing.T) {
	tr := NewTree()
	src := FromString("abc", tr.NewSource("x", "l"))

	dst := MakeBytes(3)
	if !dst.Clean() {
		t.Fatal("precondition: dst clean")
	}
	src.CopyInto(&dst, 0)
	if dst.Clean() {
		t.Fatal("copying tainted bytes in must dirty the destination")
	}

	b := MakeBytes(0).Append(src)
	if b.Clean() {
		t.Fatal("appending tainted bytes must dirty the result")
	}

	// Copying a clean source over a tainted destination re-cleans it.
	clean := MakeBytes(3)
	clean.CopyInto(&dst, 0)
	if !dst.Clean() {
		t.Fatal("overwriting with clean bytes restores cleanliness")
	}
}

// TestLabelWriterEpochAndBounds: a label delivery through WriteLabels
// invalidates the Clean and Stats memos like any other label write, and
// a Put past the window panics instead of relabelling a neighbour.
func TestLabelWriterEpochAndBounds(t *testing.T) {
	tr := NewTree()
	tag := tr.NewSource("a", "l")
	b := MakeBytes(64)
	if !b.Clean() {
		t.Fatal("fresh buffer not clean")
	}
	view := b.Slice(8, 24)
	w := view.WriteLabels(4, 12, 2)
	w.Put(3, tag)
	w.Put(5, Taint{})
	if b.Clean() {
		t.Fatal("Clean memo survived a label delivery")
	}
	if st, exact := b.Stats(8); !exact || st.DirtyBytes != 3 || st.DirtyRuns != 1 || st.One != tag {
		t.Fatalf("Stats after delivery = %+v, %v", st, exact)
	}
	for i := 0; i < 64; i++ {
		if got, want := !b.LabelAt(i).Empty(), i >= 12 && i < 15; got != want {
			t.Fatalf("byte %d tainted = %v, want %v", i, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put past the window did not panic")
		}
	}()
	w.Put(1, tag)
}
