package taint

import "fmt"

// Bytes is a byte slice with a per-byte shadow label store — the
// byte-level tracking granularity of DisTA (§III-A). Labels are kept
// run-length encoded (see shadow.go): LabelAt(i) is the taint of
// Data[i]; a Bytes with no shadow store reads as fully untainted.
//
// Bytes follows slice semantics: sub-slicing shares the underlying
// data array and the shadow store, so label writes through any
// overlapping view are visible to all views. Use Clone for a deep
// copy. Append returns a value with its own shadow store unless the
// receiver owns its store's whole extent, mirroring the reuse rules of
// the append builtin (pinned down by TestAppendAliasing).
type Bytes struct {
	Data []byte
	sh   *shadow
	off  int // offset of Data[0] in sh's coordinate space
}

// MakeBytes allocates an untainted Bytes of length n with shadow storage.
func MakeBytes(n int) Bytes {
	return Bytes{Data: make([]byte, n), sh: newShadow(n)}
}

// WrapBytes wraps a plain byte slice as untainted Bytes. The data is not
// copied; the shadow store is allocated lazily on first taint.
func WrapBytes(b []byte) Bytes {
	return Bytes{Data: b}
}

// FromString wraps the bytes of s, each carrying taint t.
func FromString(s string, t Taint) Bytes {
	b := Bytes{Data: []byte(s)}
	if !t.Empty() {
		b.TaintAll(t)
	}
	return b
}

// Len returns the number of data bytes.
func (b Bytes) Len() int { return len(b.Data) }

// HasShadow reports whether shadow storage has been allocated. A Bytes
// without shadow storage is untainted everywhere.
func (b Bytes) HasShadow() bool { return b.sh != nil }

// LabelAt returns the taint of byte i (empty if no shadow storage). On
// a dense store it is one load behind three compares, but it is a call:
// the compiler prices the function above its inlining budget whichever
// way the slow path is split off. A loop over every byte of a dense
// store reads DenseLabels instead.
func (b Bytes) LabelAt(i int) Taint {
	if sh := b.sh; sh != nil && uint(i) < uint(len(b.Data)) && b.off+i < len(sh.dense) {
		return sh.dense[b.off+i]
	}
	return b.labelAtSlow(i)
}

func (b Bytes) labelAtSlow(i int) Taint {
	if b.sh == nil {
		return Taint{}
	}
	if i < 0 || i >= len(b.Data) {
		panic(fmt.Sprintf("taint: LabelAt(%d) out of [0,%d)", i, len(b.Data)))
	}
	return b.sh.at(b.off + i)
}

// ensureShadow allocates the shadow store if absent.
func (b *Bytes) ensureShadow() {
	if b.sh == nil {
		b.sh = newShadow(len(b.Data))
		b.off = 0
	}
}

// DenseLabels returns the per-byte view of b's labels: labels[i] is
// LabelAt(i), read straight off the store's dense array. It is nil
// unless the store is dense and covers all of b — a run-mode store has
// no such array, and a view reaching past coverage has bytes the array
// does not hold; a caller that gets nil walks the runs. The view is for
// reading only, by whoever may read b under the Bytes contract, and it
// is valid until the next label write through any Bytes sharing the
// store: ResetLabels retires the array and a later densify refills it,
// so a view held across a write may show labels the store no longer has.
func (b Bytes) DenseLabels() []Taint {
	sh := b.sh
	if end := b.off + len(b.Data); sh != nil && end <= len(sh.dense) {
		return sh.dense[b.off:end:end]
	}
	return nil
}

// SetLabel assigns taint t to byte i. Like LabelAt it is a call, not an
// inlined store; on a dense store that call is one store and the
// mutation epoch, never the run-splice machinery.
func (b *Bytes) SetLabel(i int, t Taint) {
	if sh := b.sh; sh != nil && uint(i) < uint(len(b.Data)) && b.off+i < len(sh.dense) {
		sh.dense[b.off+i] = norm(t)
		sh.mut++
		return
	}
	b.SetRange(i, i+1, t)
}

// Clean reports whether every byte of b is untainted — the gate of the
// clean-path bypass. A shadow-free Bytes is clean by construction; a
// shadowed one answers from a whole-store memo keyed on the store's
// mutation epoch (O(1) after the first scan, invalidated by SetLabel/
// SetRange/TaintRange/Append and recomputed lazily from the run list),
// falling back to a ranged uniformity check for views of dirty stores.
//
// Clean may refresh the internal memo, but does so with an atomic
// store: calling it from concurrent readers is safe under the same
// contract that already allows concurrent LabelAt.
func (b Bytes) Clean() bool {
	sh := b.sh
	if sh == nil || len(b.Data) == 0 {
		return true
	}
	if sh.isClean() {
		return true
	}
	t, ok := sh.uniform(b.off, b.off+len(b.Data))
	return ok && t == Taint{}
}

// ResetLabels clears every label, keeping the shadow store and both its
// arrays — run and dense — for reuse: the reset half of buffer pooling,
// after which relabelling the buffer the way it was labelled before
// allocates nothing. A retired dense array (8 B per byte, and whatever
// taints it still points at) is held until the next ResetLabels only:
// if the labelling in between never went dense, that reset frees it.
// O(1) when b owns its store's whole extent; a ranged clear otherwise.
// It is a label write like any other: per-byte views taken before it
// are dead.
func (b *Bytes) ResetLabels() {
	sh := b.sh
	if sh == nil {
		return
	}
	if b.off == 0 && sh.cov() <= len(b.Data) {
		sh.reset(len(b.Data))
		return
	}
	sh.setRange(b.off, b.off+len(b.Data), Taint{})
}

// SetRange overwrites the labels of bytes [from, to) with t. Setting
// the empty taint on a Bytes without shadow storage stays lazy.
func (b *Bytes) SetRange(from, to int, t Taint) {
	if from < 0 || to < from || to > len(b.Data) {
		panic(fmt.Sprintf("taint: SetRange[%d,%d) out of [0,%d)", from, to, len(b.Data)))
	}
	if t.Empty() && b.sh == nil {
		return
	}
	b.ensureShadow()
	b.sh.setRange(b.off+from, b.off+to, t)
}

// LabelWriter overwrites the labels of a window of a Bytes front to
// back, one run per Put: SetRange for a caller that has many
// consecutive runs to deliver at once, as a receiver adopting a decoded
// frame does. What SetRange pays per call the writer pays once, in
// WriteLabels — the window's bounds check, growing the store, the
// mutation epoch — and the choice of representation is made there too,
// from the run count the caller announces, so a fragmented delivery is
// plain stores into the dense array and never a splice per run. When
// the store is dense the writer hands that array over (DenseLabels) and
// the caller stores into it itself.
type LabelWriter struct {
	sh       *shadow
	pos, end int // the unwritten rest of the window, in store coordinates
}

// WriteLabels starts overwriting the labels of bytes [from, to) and
// returns the writer. runs is how many Puts the caller expects to make;
// it only steers the representation. Bytes of the window no Put reaches
// keep their labels.
func (b *Bytes) WriteLabels(from, to, runs int) LabelWriter {
	if from < 0 || to < from || to > len(b.Data) {
		panic(fmt.Sprintf("taint: WriteLabels[%d,%d) out of [0,%d)", from, to, len(b.Data)))
	}
	b.ensureShadow()
	sh := b.sh
	sh.grow(b.off + to)
	sh.mut++
	if sh.dense == nil && sh.fragmented(len(sh.runs)+runs) {
		sh.densify()
	}
	return LabelWriter{sh: sh, pos: b.off + from, end: b.off + to}
}

// Put gives the next n bytes of the window the label t.
func (w *LabelWriter) Put(n int, t Taint) {
	if n < 0 || n > w.end-w.pos {
		panic(fmt.Sprintf("taint: LabelWriter.Put(%d) with %d bytes of window left", n, w.end-w.pos))
	}
	if n == 0 {
		return
	}
	t = norm(t)
	from := w.pos
	w.pos += n
	if dense := w.sh.dense; dense != nil {
		seg := dense[from:w.pos]
		for i := range seg {
			seg[i] = t
		}
		return
	}
	w.sh.overwrite(from, w.pos, t)
	w.sh.maybeDensify()
}

// DenseLabels hands over the unwritten rest of the window as a per-byte
// view for writing, when the store is dense: labels[i] = t does for
// byte i of the rest what Put(1, t) would, at the price of one store.
// The caller stores canonical labels — the zero Taint for every empty
// one — and what it does not store keeps its label. With the view
// handed over the writer is spent: the rest of the window is the
// caller's. A run-mode store has no array to hand over; the result is
// nil, the writer is untouched and Put is the way. Like the reading
// view, this one is valid until the next label write that does not go
// through it.
func (w *LabelWriter) DenseLabels() []Taint {
	dense := w.sh.dense
	if dense == nil {
		return nil
	}
	from := w.pos
	w.pos = w.end
	return dense[from:w.end:w.end]
}

// TaintRange combines taint t into the labels of bytes [from, to).
func (b *Bytes) TaintRange(from, to int, t Taint) {
	if from < 0 || to < from || to > len(b.Data) {
		panic(fmt.Sprintf("taint: TaintRange[%d,%d) out of [0,%d)", from, to, len(b.Data)))
	}
	if t.Empty() {
		return
	}
	b.ensureShadow()
	b.sh.combineRange(b.off+from, b.off+to, t)
}

// TaintAll combines taint t into every byte's label — one Combine per
// run, not per byte.
func (b *Bytes) TaintAll(t Taint) {
	b.TaintRange(0, len(b.Data), t)
}

// ForEachRun yields the maximal label runs of b in order, including
// untainted gaps, as [from, to) offsets into b. A Bytes without shadow
// storage yields one untainted run (none when empty).
func (b Bytes) ForEachRun(yield func(from, to int, t Taint)) {
	if len(b.Data) == 0 {
		return
	}
	if b.sh == nil || b.sh.isClean() {
		yield(0, len(b.Data), Taint{})
		return
	}
	b.sh.forEach(b.off, b.off+len(b.Data), yield)
}

// Uniform reports whether every byte carries the same label, returning
// that label when so. An empty or shadow-free Bytes is uniform.
func (b Bytes) Uniform() (Taint, bool) {
	if b.sh == nil || b.sh.isClean() {
		return Taint{}, true
	}
	return b.sh.uniform(b.off, b.off+len(b.Data))
}

// RunCount returns the number of maximal label runs in b (0 for empty,
// 1 for a shadow-free or uniformly labelled Bytes).
func (b Bytes) RunCount() int {
	if len(b.Data) == 0 {
		return 0
	}
	if b.sh == nil || b.sh.isClean() {
		return 1
	}
	return b.sh.runCount(b.off, b.off+len(b.Data))
}

// Slice returns b[from:to] sharing the underlying storage: data bytes
// and shadow labels both alias the receiver's.
func (b Bytes) Slice(from, to int) Bytes {
	out := Bytes{Data: b.Data[from:to]}
	if b.sh != nil {
		out.sh, out.off = b.sh, b.off+from
	}
	return out
}

// Clone returns a deep copy of b.
func (b Bytes) Clone() Bytes {
	out := Bytes{Data: make([]byte, len(b.Data))}
	copy(out.Data, b.Data)
	if b.sh != nil {
		out.sh = &shadow{runs: b.sh.window(b.off, b.off+len(b.Data))}
		out.sh.maybeDensify()
	}
	return out
}

// Append appends other to b, propagating labels, and returns the result
// (like the append builtin, the receiver's data storage may be reused;
// the shadow store is reused only when b owns its whole extent).
func (b Bytes) Append(other Bytes) Bytes {
	n := len(b.Data)
	out := Bytes{Data: append(b.Data, other.Data...)}
	if b.sh == nil && other.sh == nil {
		return out
	}
	var src []labelRun
	if other.sh != nil {
		src = other.sh.window(other.off, other.off+len(other.Data))
	}
	if b.sh != nil && b.off == 0 && b.sh.cov() == n {
		// b owns its store's whole extent: extend it in place, like
		// append reusing spare capacity.
		out.sh = b.sh
	} else {
		out.sh = &shadow{}
		if b.sh != nil {
			out.sh.runs = b.sh.window(b.off, b.off+n)
		}
	}
	out.sh.grow(n)
	pos := n
	for _, r := range src {
		out.sh.setRange(pos, n+r.end, r.t)
		pos = n + r.end
	}
	out.sh.grow(n + len(other.Data))
	out.sh.maybeDensify()
	return out
}

// CopyInto copies b's data and labels into dst starting at offset off.
// It returns the number of bytes copied.
func (b Bytes) CopyInto(dst *Bytes, off int) int {
	n := copy(dst.Data[off:], b.Data)
	b.copyLabels(dst, off, n)
	return n
}

// CopyLabelsInto copies only b's labels into dst starting at offset
// off, overwriting (and clearing) dst's labels for the covered range —
// the label half of CopyInto, for callers that move data separately.
func (b Bytes) CopyLabelsInto(dst *Bytes, off int) int {
	n := len(b.Data)
	if room := len(dst.Data) - off; n > room {
		n = room
	}
	b.copyLabels(dst, off, n)
	return n
}

// copyLabels transfers the labels of b[:n] into dst[off:off+n].
func (b Bytes) copyLabels(dst *Bytes, off, n int) {
	if n <= 0 {
		return
	}
	if b.sh == nil || b.sh.isClean() {
		// Clean source: the whole transfer is one untainted run. A
		// shadow-free destination stays lazy; a shadowed one gets a
		// single ranged clear. (Safe for aliased stores too: the clear
		// equals what copying the snapshot would have written.)
		if dst.sh != nil {
			dst.sh.setRange(dst.off+off, dst.off+off+n, Taint{})
		}
		return
	}
	dst.ensureShadow()
	if src, to := b.sh.dense, dst.sh.dense; to != nil && b.off+n <= len(src) {
		// Both stores dense and the source window covered: the labels
		// move as one copy of the per-byte arrays. Overlapping views of
		// one store are safe here too — copy is a memmove, which reads
		// the source window as it was.
		dst.sh.grow(dst.off + off + n)
		dst.sh.mut++
		copy(dst.sh.dense[dst.off+off:], src[b.off:b.off+n])
		return
	}
	if b.sh == dst.sh {
		// Overlapping views of one store (e.g. a buffer compaction):
		// snapshot the source window before splicing into it.
		start := 0
		for _, r := range b.sh.window(b.off, b.off+n) {
			dst.sh.setRange(dst.off+off+start, dst.off+off+r.end, r.t)
			start = r.end
		}
		return
	}
	b.sh.forEach(b.off, b.off+n, func(rfrom, rto int, t Taint) {
		dst.sh.setRange(dst.off+off+rfrom, dst.off+off+rto, t)
	})
}

// Union returns the combination of all byte labels — the taint of the
// value as a whole. One Combine per run, not per byte.
func (b Bytes) Union() Taint {
	if b.sh == nil || b.sh.isClean() {
		return Taint{}
	}
	return b.sh.union(b.off, b.off+len(b.Data))
}

// String is a tainted string value: the text plus one taint covering it.
// It models a tracked String variable (e.g. the TomcatMessage text of
// the ActiveMQ scenario).
type String struct {
	Value string
	Label Taint
}

// Bytes converts the tainted string to per-byte tainted Bytes.
func (s String) Bytes() Bytes { return FromString(s.Value, s.Label) }

// StringOf reconstructs a tainted String from Bytes, unioning all byte
// labels into one value-level taint.
func StringOf(b Bytes) String {
	return String{Value: string(b.Data), Label: b.Union()}
}

// Int64 is a tainted 64-bit integer (e.g. a transaction id / zxid).
type Int64 struct {
	Value int64
	Label Taint
}

// Int32 is a tainted 32-bit integer.
type Int32 struct {
	Value int32
	Label Taint
}

func (v Int64) String() string { return fmt.Sprintf("%d%s", v.Value, labelSuffix(v.Label)) }
func (v Int32) String() string { return fmt.Sprintf("%d%s", v.Value, labelSuffix(v.Label)) }

func labelSuffix(t Taint) string {
	if t.Empty() {
		return ""
	}
	return t.String()
}
