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

// checkDenseView asserts the per-byte view of b[from:to] against the
// model: nil unless the store is dense and covers the window, and
// otherwise the model's labels, byte for byte.
func checkDenseView(t *testing.T, b Bytes, m denseModel, from, to int) {
	t.Helper()
	view := b.Slice(from, to).DenseLabels()
	if want := b.sh.dense != nil && to <= len(b.sh.dense); (view != nil) != want {
		t.Fatalf("DenseLabels of [%d,%d) nil = %v with the dense store covering it = %v", from, to, view == nil, want)
	}
	if view != nil && len(view) != to-from {
		t.Fatalf("DenseLabels of [%d,%d) has %d entries", from, to, len(view))
	}
	for i, got := range view {
		if got != norm(m.at(from+i)) {
			t.Fatalf("DenseLabels of [%d,%d): entry %d = %v, want %v", from, to, i, got, m.at(from+i))
		}
	}
}

// checkWindowRuns asserts the run walk of b[from:to) — a window that may
// reach past the store's coverage into b's spare capacity — on b's own
// store, dense or not, and on a run-mode store built from the model: both
// yield the model's maximal runs, what lies past coverage untainted.
func checkWindowRuns(t *testing.T, b Bytes, m denseModel, from, to int) {
	t.Helper()
	ref := &shadow{}
	for i, l := range m {
		if k := len(ref.runs); k > 0 && ref.runs[k-1].t == norm(l) {
			ref.runs[k-1].end = i + 1
		} else {
			ref.runs = append(ref.runs, labelRun{end: i + 1, t: norm(l)})
		}
	}
	var walks [2][]labelRun // window-relative run ends and labels
	for k, view := range [2]Bytes{b.Slice(from, to), {Data: b.Data[from:to], sh: ref, off: from}} {
		view.ForEachRun(func(rf, rt int, l Taint) {
			if n := len(walks[k]); rt <= rf || (n == 0) != (rf == 0) || n > 0 && (walks[k][n-1].end != rf || walks[k][n-1].t == l) {
				t.Fatalf("window [%d,%d), store %d: run [%d,%d) after %v is not the next maximal run", from, to, k, rf, rt, walks[k])
			}
			for i := rf; i < rt; i++ {
				if m.at(from+i) != l {
					t.Fatalf("window [%d,%d), store %d: run [%d,%d)=%v disagrees with the model at %d", from, to, k, rf, rt, l, from+i)
				}
			}
			walks[k] = append(walks[k], labelRun{end: rt, t: l})
		})
	}
	if n := len(walks[0]); len(walks[0]) != len(walks[1]) || to > from && (n == 0 || walks[0][n-1].end != to-from) {
		t.Fatalf("window [%d,%d): %v on the store, %v on a run-mode store", from, to, walks[0], walks[1])
	}
}

// TestShadowMatchesDenseModel drives random SetRange/TaintRange/SetLabel/
// WriteLabels/ResetLabels sequences through both representations and
// checks every byte, the per-byte view, run iteration, union and
// uniformity after each step — including after the store densifies
// under fragmentation, and again on the arrays a reset retired. Windows
// of the buffer are walked by runs against a run-mode store of the same
// labels: inside coverage, reaching past it behind a tainted and an
// untainted last label, starting past it, and empty.
func TestShadowMatchesDenseModel(t *testing.T) {
	tr := NewTree()
	tags := make([]Taint, 5)
	for i := range tags {
		tags[i] = tr.NewSource(string(rune('a'+i)), "l")
	}
	rng := rand.New(rand.NewSource(42))
	const size, spare = 257, 9 // the store covers size bytes of size+spare
	var past [2]int            // dense windows past coverage behind an untainted, a tainted last label
	early := 0                 // per-byte refills that densified a reset store
	for iter := 0; iter < 50; iter++ {
		b := Bytes{Data: make([]byte, size, size+spare), sh: newShadow(size)}
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
				if rng.Intn(24) == 0 {
					// The pooling reset: whatever comes next refills the
					// retired arrays, which must not show through. A
					// store that was dense gets a per-byte burst next,
					// at most 30 runs, which densifies it by the early
					// refill rule only (cov>>3 is 32 runs here).
					wasDense := b.sh.dense != nil
					b.ResetLabels()
					clear(model)
					if wasDense {
						end := min(size, from+17+rng.Intn(12))
						for i := from; i < end; i++ {
							b.SetLabel(i, tags[i%len(tags)])
							model[i] = tags[i%len(tags)]
						}
						if b.sh.dense != nil {
							early++
						}
					}
					checkDenseView(t, b, model, from, to)
					break
				}
				// A delivery of short runs over [from,to), sometimes cut
				// short: what no Put reached keeps its labels. A dense
				// store sometimes takes it through the writer's per-byte
				// view, which must leave what Put would.
				w := b.WriteLabels(from, to, rng.Intn(to-from+1))
				lane := w.DenseLabels()
				if (lane == nil) != (b.sh.dense == nil) || (lane != nil && len(lane) != to-from) {
					t.Fatalf("writer's view of [%d,%d): nil = %v, %d entries, store dense = %v",
						from, to, lane == nil, len(lane), b.sh.dense != nil)
				}
				if lane != nil {
					if rng.Intn(2) == 0 {
						for i := range lane {
							if rng.Intn(16) == 0 {
								break
							}
							lane[i] = Taint{}
							if rng.Intn(3) > 0 {
								lane[i] = tags[rng.Intn(len(tags))]
							}
							model[from+i] = lane[i]
						}
						break
					}
					w = b.WriteLabels(from, to, 0) // the view spent the writer
				}
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
		for k := 0; k < 8; k++ {
			from := rng.Intn(size)
			checkDenseView(t, b, model, from, from+rng.Intn(size-from+1))
		}

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
		for k := 0; k < 8; k++ {
			from := rng.Intn(size)
			checkWindowRuns(t, b, model, from, from+rng.Intn(size-from+1))
			checkWindowRuns(t, b, model, from, size+1+rng.Intn(spare))
			checkWindowRuns(t, b, model, size+rng.Intn(spare), size+spare)
			checkWindowRuns(t, b, model, from, from)
		}
		if b.sh.dense != nil {
			past[min(1, len(model[size-1].Values()))]++
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
	if past[0] == 0 || past[1] == 0 {
		t.Fatalf("dense stores walked past coverage behind an untainted / a tainted last label: %d / %d times", past[0], past[1])
	}
	if early == 0 {
		t.Fatal("no per-byte refill of a reset dense store densified early")
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
// be snapshotted, not read while being overwritten — in run mode by the
// window copy, in dense mode by the one memmove the labels travel as.
func TestCopyIntoOverlappingViews(t *testing.T) {
	tr := NewTree()
	x := tr.NewSource("x", "l")
	y := tr.NewSource("y", "l")

	for _, dense := range []bool{false, true} {
		b := MakeBytes(8)
		copy(b.Data, "01234567")
		b.SetRange(4, 6, x)
		b.SetRange(6, 8, y)
		if dense {
			b.sh.densify()
		}
		rest := b.Slice(4, 8)
		if n := rest.CopyInto(&b, 0); n != 4 {
			t.Fatalf("copied %d", n)
		}
		if string(b.Data[:4]) != "4567" {
			t.Fatalf("data = %q", b.Data[:4])
		}
		if !b.LabelAt(0).Has("x") || !b.LabelAt(1).Has("x") || !b.LabelAt(2).Has("y") || !b.LabelAt(3).Has("y") {
			t.Fatalf("dense=%v: compacted labels must match the pre-copy source window", dense)
		}
		// The other direction overlaps the other way round: [0,6) onto
		// [2,8) must not smear the bytes it has already moved.
		want := make(denseModel, 8)
		for i := range want {
			want[i] = b.LabelAt(i)
		}
		copy(want[2:], want[:6])
		head := b.Slice(0, 6)
		head.CopyLabelsInto(&b, 2)
		checkAgainstModel(t, b, want, "forward overlapping copy")
		if (b.sh.dense != nil) != dense {
			t.Fatalf("dense=%v: the copy changed the representation", dense)
		}
	}
}

// TestQuickSliceCopyIntoMatchesDense quick-checks CopyInto between
// random windows against the dense model, for every pairing of a
// run-mode and a dense store on the two sides: dense to dense is one
// copy of the per-byte arrays, everything else the run walk.
func TestQuickSliceCopyIntoMatchesDense(t *testing.T) {
	tr := NewTree()
	x := tr.NewSource("x", "l")
	y := tr.NewSource("y", "l")
	f := func(srcTaintEven bool, off, cut uint8, denseSrc, denseDst bool) bool {
		size := 32
		offset := int(off) % 16
		base := MakeBytes(12)
		model := make(denseModel, size)
		for i := 0; i < 12; i++ {
			if (i%2 == 0) == srcTaintEven {
				base.SetLabel(i, x)
			}
		}
		if denseSrc {
			base.sh.densify()
		}
		// A window of the source at an offset, sometimes reaching past
		// what its store covers (a dense source then declines the copy).
		from := int(cut) % 4
		src := base.Slice(from, from+8)
		if cut&4 != 0 {
			src = Bytes{Data: base.Data[from : from+8], sh: &shadow{runs: base.sh.window(0, 6)}, off: from}
			if denseSrc {
				src.sh.densify()
			}
		}
		dst := MakeBytes(size)
		dst.TaintAll(y)
		if denseDst {
			dst.sh.densify()
		}
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
		return !dst.Clean() && (dst.sh.dense != nil) == denseDst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
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

// TestResetRefillReusesArrays pins the pooling contract of a store that
// densifies on every fill: ResetLabels retires the dense array and keeps
// the run array, the refill takes both back, and a reset plus 8,192
// SetLabel calls on an owned store allocate nothing. Reuse is not
// aliasing: until the refill densifies, the retired array is scratch
// nobody reads, and afterwards every view sharing the store shows the
// refilled labels — never the ones the array held before the reset. Nor
// is it retention for life: a retired array no fill took back is freed
// by the next reset.
func TestResetRefillReusesArrays(t *testing.T) {
	tr := NewTree()
	pair := [2]Taint{tr.NewSource("x", "l"), tr.NewSource("y", "l")}
	const n = 8192
	b := WrapBytes(make([]byte, n))
	fill := func(shift int) {
		b.ResetLabels()
		for i := 0; i < n; i++ {
			b.SetLabel(i, pair[(i+shift)&1])
		}
	}
	fill(0)
	fill(0) // the second fill is the first to find arrays to reuse
	if got := testing.AllocsPerRun(20, func() { fill(0) }); got != 0 {
		t.Errorf("reset + %d SetLabel on an owned store: %v allocs/op, want 0", n, got)
	}
	array := &b.sh.dense[0]

	view := b.Slice(100, 200)
	before := view.DenseLabels()
	if before == nil || before[0] != pair[0] {
		t.Fatalf("per-byte view of a dense window = %v", before)
	}
	b.ResetLabels()
	if !view.Clean() || view.DenseLabels() != nil || !view.LabelAt(0).Empty() {
		t.Fatal("a view sharing a reset store must read clean, through every accessor")
	}
	// Partway through the refill the store is still in run mode: bytes
	// not labelled yet are clean, whatever the retired array holds.
	for i := 0; i < 150; i++ {
		b.SetLabel(i, pair[1])
	}
	if b.sh.dense != nil {
		t.Fatal("150 equal labels densified the store; the test assumes run mode here")
	}
	if view.LabelAt(49) != pair[1] || !view.LabelAt(50).Empty() {
		t.Fatalf("view over a half-refilled store reads %v, %v", view.LabelAt(49), view.LabelAt(50))
	}
	// The rest of the refill, in the opposite phase: every byte's label
	// differs from the stale one.
	for i := 0; i < n; i++ {
		b.SetLabel(i, pair[(i+1)&1])
	}
	if &b.sh.dense[0] != array {
		t.Error("the refill did not take the retired dense array back")
	}
	after := view.DenseLabels()
	for i := range after {
		if want := pair[(100+i+1)&1]; after[i] != want || view.LabelAt(i) != want {
			t.Fatalf("view byte %d after the refill = %v / %v, want %v", i, after[i], view.LabelAt(i), want)
		}
	}
	if len(after) != 100 {
		t.Fatalf("view after the refill has %d entries", len(after))
	}

	// The retired array is held for one reset cycle: a labelling that
	// stays in run mode leaves it unused, and the next reset frees it.
	b.ResetLabels()
	if b.sh.spare == nil {
		t.Fatal("reset of a dense store did not retire its array")
	}
	b.SetRange(0, n, pair[0])
	b.ResetLabels()
	if b.sh.spare != nil || b.sh.dense != nil {
		t.Error("a dense array unused for a whole reset cycle is still retained")
	}
}

// TestRefillDensifiesEarly pins when a reset store goes dense again. A
// refill of a store whose last fill went dense takes the retired array
// back as soon as it passes denseMinRuns runs, whether the runs come one
// SetLabel at a time or announced to WriteLabels. A first fill, which
// has no retired array, and a refill whose retired array is too small
// for the store wait for coverage>>denseCutoffShift runs as before.
func TestRefillDensifiesEarly(t *testing.T) {
	tr := NewTree()
	pair := [2]Taint{tr.NewSource("x", "l"), tr.NewSource("y", "l")}
	const n = 8192
	b := WrapBytes(make([]byte, n))
	perByte := func(b *Bytes, upto int) {
		for i := 0; i < upto; i++ {
			b.SetLabel(i, pair[i&1])
		}
	}

	perByte(&b, 1000) // 1,001 runs, not past n>>3
	if b.sh.dense != nil {
		t.Fatal("a first fill densified before coverage>>3 runs")
	}
	perByte(&b, n)
	if b.sh.dense == nil {
		t.Fatal("a first per-byte fill never densified")
	}

	b.ResetLabels()
	perByte(&b, 15)
	if b.sh.dense != nil {
		t.Fatal("15 per-byte writes (16 runs) densified the store")
	}
	perByte(&b, 17)
	if b.sh.dense == nil {
		t.Fatal("a per-byte refill of a store that went dense is not dense by its 17th write")
	}
	for i := 0; i < n; i++ {
		if want := pair[i&1]; i >= 17 && !b.LabelAt(i).Empty() || i < 17 && b.LabelAt(i) != want {
			t.Fatalf("byte %d after a 17-byte refill into the retired array reads %v", i, b.LabelAt(i))
		}
	}

	// A delivery of 20 runs into a reset store holding a retired array
	// lands in that array.
	array := &b.sh.dense[0]
	b.ResetLabels()
	w := b.WriteLabels(0, 40, 20)
	if b.sh.dense == nil || &b.sh.dense[0] != array {
		t.Fatal("a 20-run delivery into a reset store did not take its retired array back")
	}
	for i := 0; i < 20; i++ {
		w.Put(2, pair[i&1])
	}
	for i := 0; i < n; i++ {
		if want := pair[i/2&1]; i >= 40 && !b.LabelAt(i).Empty() || i < 40 && b.LabelAt(i) != want {
			t.Fatalf("byte %d after a 20-run delivery into the retired array reads %v", i, b.LabelAt(i))
		}
	}

	// A retired array smaller than the store is not taken back early.
	small := Bytes{Data: make([]byte, 64, n), sh: newShadow(64)}
	perByte(&small, 64)
	if small.sh.dense == nil {
		t.Fatal("alternating labels must densify the store")
	}
	wide := small.Slice(0, n) // resliced into spare capacity
	wide.ResetLabels()
	perByte(&wide, 100)
	if wide.sh.dense != nil {
		t.Fatal("a refill densified early into a retired array smaller than the store")
	}
}

// TestDenseGrowExtendsClean: growing a dense store — a label write
// through a view that reaches past its coverage, an Append onto a
// buffer that owns it — extends the array in one step with clean
// labels, and until then the bytes past coverage read clean.
func TestDenseGrowExtendsClean(t *testing.T) {
	tr := NewTree()
	x := tr.NewSource("x", "l")
	alternating := func() Bytes {
		b := Bytes{Data: make([]byte, 64, 80), sh: newShadow(64)}
		for i := 0; i < 64; i += 2 {
			b.SetLabel(i, x)
		}
		if b.sh.dense == nil {
			t.Fatal("alternating labels must densify the store")
		}
		return b
	}

	b := alternating()
	wide := b.Slice(0, 80) // resliced into spare capacity, as the builtin allows
	if !wide.LabelAt(70).Empty() || wide.DenseLabels() != nil {
		t.Fatal("bytes past a dense store's coverage must read clean, and the window has no per-byte view")
	}
	wide.SetLabel(70, x)
	if len(b.sh.dense) != 71 || !wide.LabelAt(70).Has("x") || !wide.LabelAt(69).Empty() {
		t.Fatalf("label write past coverage: coverage %d, byte 70 = %v", len(b.sh.dense), wide.LabelAt(70))
	}

	b = alternating()
	out := b.Append(WrapBytes(make([]byte, 1000)))
	if out.sh != b.sh || len(out.sh.dense) != 1064 {
		t.Fatalf("append onto an owned dense store: shared = %v, coverage %d", out.sh == b.sh, len(out.sh.dense))
	}
	for i := 0; i < 1064; i++ {
		if got, want := !out.LabelAt(i).Empty(), i < 64 && i%2 == 0; got != want {
			t.Fatalf("byte %d tainted = %v, want %v", i, got, want)
		}
	}
}
