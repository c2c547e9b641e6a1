package taint

import "sync/atomic"

// Run-based shadow labels.
//
// The dense one-Taint-per-byte shadow array charged every tracked byte a
// pointer of storage and a Combine on every TaintAll/Union — yet real
// messages almost always carry long runs of a single taint (a whole
// message text shares one label). The shadow store therefore keeps
// labels as (endOffset, Taint) intervals, so whole-buffer operations
// cost O(runs) instead of O(bytes).
//
// Homogeneous data is the fast path, but adversarially fragmented
// labels (alternating taints on neighbouring bytes) would turn every
// run operation into an O(runs) splice and every lookup into a binary
// search over thousands of intervals. When fragmentation crosses
// denseCutoff the store falls back to the classic dense array, whose
// per-byte reads and writes are O(1). A store never has both at once,
// and which one it has is visible outside the package in exactly one
// way: a dense store lends its array out as a per-byte view
// (Bytes.DenseLabels, LabelWriter.DenseLabels), so a caller with one
// label per byte to read or write — the groups tier of the wire — does
// it in a loop over a slice instead of a call per run.
//
// The arrays outlive the representation. A store that was reset keeps
// its retired dense array and its run array, and the next densify
// takes them back: relabelling a pooled buffer allocates nothing, and a
// fragmented refill of a store that went dense takes its array back
// past denseMinRuns runs.

// labelRun is one maximal interval of bytes sharing a single label.
// The run covers [start, end) where start is the previous run's end
// (0 for the first run). Empty labels are stored normalized as the
// zero Taint so runs can be merged by == comparison.
type labelRun struct {
	end int
	t   Taint
}

// denseCutoff: switch to the dense representation when the run list
// grows beyond max(denseMinRuns, coverage>>denseCutoffShift) — i.e.
// when the average run is shorter than 8 bytes the run bookkeeping
// costs more than it saves.
const (
	denseCutoffShift = 3
	denseMinRuns     = 16
)

// shadow is the per-byte label store shared by every Bytes view sliced
// from the same allocation. Offsets are absolute within the store, so
// overlapping views alias labels exactly as overlapping sub-slices of
// the old dense array did.
type shadow struct {
	runs  []labelRun // run mode: sorted by end, covering [0, cov); empty in dense mode
	dense []Taint    // dense mode when non-nil
	spare []Taint    // the dense array reset retired, kept for the next densify

	// mut counts label mutations; it keys the cleanliness memo below.
	// Mutators hold exclusive access to the store by the Bytes
	// concurrency contract, so a plain counter suffices.
	mut uint64
	// clean memoizes "every label in the store is empty", packed as
	// (mut+1)<<1 | dirtyBit so the zero value is never a valid entry.
	// It is an atomic because concurrent *readers* are allowed and the
	// memo is (re)written on the read path.
	clean atomic.Uint64
	// stats memoizes a dense store's whole-extent RunStats answer (see
	// stats.go), keyed by mut the same way; stale entries are rejected,
	// not erased.
	stats atomic.Pointer[shadowStats]
}

// newShadow returns a run-mode store covering n untainted bytes.
func newShadow(n int) *shadow {
	return &shadow{runs: []labelRun{{end: n}}}
}

// isClean reports whether every label in the store is empty, memoized
// per mutation epoch: after the first scan it is an O(1) load until the
// next label write. This is the whole-store half of the clean-path
// gate; Bytes.Clean adds the ranged fallback for views of dirty stores.
func (s *shadow) isClean() bool {
	m := s.mut
	if c := s.clean.Load(); c>>1 == m+1 {
		return c&1 == 0
	}
	v := true
	if s.dense != nil {
		for _, t := range s.dense {
			if t != (Taint{}) {
				v = false
				break
			}
		}
	} else {
		for _, r := range s.runs {
			if r.t != (Taint{}) {
				v = false
				break
			}
		}
	}
	word := (m + 1) << 1
	if !v {
		word |= 1
	}
	s.clean.Store(word)
	return v
}

// reset clears every label in O(1) and leaves coverage at exactly n.
// The pooling primitive behind Bytes.ResetLabels: the store goes back
// to one clean run, and a dense array it had is retired to spare, so a
// buffer that is reset and refilled over and over allocates nothing. A
// per-byte view of the retired array is dead from here on — the array
// is scratch until densify clears and refills it. A spare still there
// at the next reset went unused for a whole fill, which stayed in run
// mode: it is dropped, so a buffer that densified once holds the 8 B
// per byte (and the nodes the array points at) for one reset cycle, not
// for its life. While it is held, a write that leaves more than
// denseMinRuns runs densifies into it at once (fragmented): the last
// fill went dense, and the refill is taken to be like it.
func (s *shadow) reset(n int) {
	s.spare, s.dense = s.dense, nil
	s.runs = append(s.runs[:0], labelRun{end: n})
	s.mut++
	s.clean.Store((s.mut + 1) << 1) // known clean at the new epoch
}

// norm maps every empty taint to the canonical zero Taint so run labels
// compare with ==. Inlined into every label write (`make inline-check`).
func norm(t Taint) Taint {
	if t.Empty() {
		return Taint{}
	}
	return t
}

// cov returns the store's covered extent.
func (s *shadow) cov() int {
	if s.dense != nil {
		return len(s.dense)
	}
	if len(s.runs) == 0 {
		return 0
	}
	return s.runs[len(s.runs)-1].end
}

// grow extends coverage to at least n with untainted bytes.
func (s *shadow) grow(n int) {
	if s.dense != nil {
		if more := n - len(s.dense); more > 0 {
			s.dense = append(s.dense, make([]Taint, more)...)
		}
		return
	}
	c := s.cov()
	if n <= c {
		return
	}
	if last := len(s.runs) - 1; last >= 0 && s.runs[last].t == (Taint{}) {
		s.runs[last].end = n
		return
	}
	s.runs = append(s.runs, labelRun{end: n})
}

// locate returns the index of the run containing pos: the first run
// with end > pos, or len(runs) when pos is beyond coverage. Small
// enough to inline into every ranged operation (`make inline-check`).
func (s *shadow) locate(pos int) int {
	lo, hi := 0, len(s.runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.runs[mid].end <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// at returns the label of byte pos (empty beyond coverage).
func (s *shadow) at(pos int) Taint {
	if s.dense != nil {
		if pos < len(s.dense) {
			return s.dense[pos]
		}
		return Taint{}
	}
	if len(s.runs) == 1 { // uniform fast path
		if pos < s.runs[0].end {
			return s.runs[0].t
		}
		return Taint{}
	}
	if i := s.locate(pos); i < len(s.runs) {
		return s.runs[i].t
	}
	return Taint{}
}

// runStart returns the start offset of run i.
func (s *shadow) runStart(i int) int {
	if i == 0 {
		return 0
	}
	return s.runs[i-1].end
}

// splice replaces runs[i:j] with segs, reusing the backing array when it
// has room. segs must keep the end-sorted invariant with its neighbours.
func (s *shadow) splice(i, j int, segs []labelRun) {
	old := s.runs
	n := len(old) - (j - i) + len(segs)
	if n <= cap(old) {
		tail := old[j:]
		s.runs = old[:n]
		copy(s.runs[i+len(segs):], tail)
		copy(s.runs[i:], segs)
		return
	}
	grown := make([]labelRun, n, n+n/2+4)
	copy(grown, old[:i])
	copy(grown[i:], segs)
	copy(grown[i+len(segs):], old[j:])
	s.runs = grown
}

// fragmented reports whether a run-mode store holding the given number
// of runs is past the point where interval bookkeeping pays off. A store
// holding a spare large enough went dense last fill: past denseMinRuns
// it takes the spare back at once rather than at coverage>>3 runs.
func (s *shadow) fragmented(runs int) bool {
	return runs > denseMinRuns && (runs > s.cov()>>denseCutoffShift || cap(s.spare) >= s.cov())
}

// maybeDensify converts to the dense representation when the run list
// is too fragmented for interval bookkeeping to pay off.
func (s *shadow) maybeDensify() {
	if s.dense == nil && s.fragmented(len(s.runs)) {
		s.densify()
	}
}

// densify converts a run-mode store to the dense representation,
// into the array reset retired when that is large enough. The run array
// stays with the store, emptied, for the reset after.
func (s *shadow) densify() {
	n := s.cov()
	dense := s.spare
	s.spare = nil
	if cap(dense) < n {
		dense = make([]Taint, n)
	} else {
		dense = dense[:n]
		clear(dense)
	}
	start := 0
	for _, r := range s.runs {
		if r.t != (Taint{}) {
			for i := start; i < r.end; i++ {
				dense[i] = r.t
			}
		}
		start = r.end
	}
	s.dense = dense
	s.runs = s.runs[:0]
}

// setRange overwrites the labels of [from, to) with t, extending
// coverage as needed.
func (s *shadow) setRange(from, to int, t Taint) {
	if from >= to {
		return
	}
	t = norm(t)
	s.grow(to)
	if s.dense != nil {
		s.mut++
		for i := from; i < to; i++ {
			s.dense[i] = t
		}
		return
	}
	if s.overwrite(from, to, t) {
		s.mut++
		s.maybeDensify()
	}
}

// overwrite splices the run-mode store so that the covered, non-empty
// range [from, to) carries the normalized label t, reporting whether
// anything changed. Epoch and densification are the caller's. A store
// labelled front to back writes into its last run every time — the
// clean tail the fill has not reached — which one compare recognises
// before either binary search starts.
func (s *shadow) overwrite(from, to int, t Taint) bool {
	i := len(s.runs) - 1
	j := i
	if i > 0 && from < s.runs[i-1].end {
		i = s.locate(from)
		j = s.locate(to - 1)
	}
	if i == j && s.runs[i].t == t { // already uniform with t
		return false
	}
	var seg [3]labelRun
	k := 0
	if start := s.runStart(i); start < from {
		if s.runs[i].t == t {
			// merge left partial into the new run
		} else {
			seg[k] = labelRun{end: from, t: s.runs[i].t}
			k++
		}
	} else if i > 0 && s.runs[i-1].t == t {
		// absorb the equal left neighbour
		i--
	}
	seg[k] = labelRun{end: to, t: t}
	k++
	if s.runs[j].end > to {
		if s.runs[j].t == t {
			seg[k-1].end = s.runs[j].end
		} else {
			seg[k] = labelRun{end: s.runs[j].end, t: s.runs[j].t}
			k++
		}
	} else if j+1 < len(s.runs) && s.runs[j+1].t == t {
		// absorb the equal right neighbour
		seg[k-1].end = s.runs[j+1].end
		j++
	}
	s.splice(i, j+1, seg[:k])
	return true
}

// combineRange unions t into the labels of [from, to).
func (s *shadow) combineRange(from, to int, t Taint) {
	if from >= to || t.Empty() {
		return
	}
	s.grow(to)
	if s.dense != nil {
		s.mut++
		for i := from; i < to; i++ {
			s.dense[i] = Combine(s.dense[i], t)
		}
		return
	}
	i := s.locate(from)
	j := s.locate(to - 1)
	if i == j { // single-run fast path: one Combine for the whole range
		if c := norm(Combine(s.runs[i].t, t)); c != s.runs[i].t {
			s.setRange(from, to, c)
		}
		return
	}
	s.mut++
	var stack [8]labelRun
	segs := stack[:0]
	push := func(end int, t Taint) {
		if n := len(segs); n > 0 && segs[n-1].t == t {
			segs[n-1].end = end
			return
		}
		segs = append(segs, labelRun{end: end, t: t})
	}
	if start := s.runStart(i); start < from {
		push(from, s.runs[i].t)
	}
	for k := i; k <= j; k++ {
		end := s.runs[k].end
		if end > to {
			end = to
		}
		push(end, norm(Combine(s.runs[k].t, t)))
	}
	if s.runs[j].end > to {
		push(s.runs[j].end, s.runs[j].t)
	}
	if i > 0 && len(segs) > 0 && s.runs[i-1].t == segs[0].t {
		i--
	}
	if j+1 < len(s.runs) && len(segs) > 0 && s.runs[j+1].t == segs[len(segs)-1].t {
		segs[len(segs)-1].end = s.runs[j+1].end
		j++
	}
	s.splice(i, j+1, segs)
	s.maybeDensify()
}

// forEach yields the maximal label runs covering [from, to) in order,
// including untainted gaps, as window-relative [rfrom, rto) offsets
// shifted by -from.
func (s *shadow) forEach(from, to int, yield func(rfrom, rto int, t Taint)) {
	if from >= to {
		return
	}
	if s.dense != nil {
		// The covered part label by label, then what lies past coverage
		// as one untainted run, joined to an untainted last one.
		start, cur := 0, Taint{}
		if c := min(len(s.dense), to); from < c {
			win := s.dense[from:c]
			cur = win[0]
			for i, t := range win {
				if t != cur {
					yield(start, i, cur)
					start, cur = i, t
				}
			}
			if c < to && cur != (Taint{}) {
				yield(start, len(win), cur)
				start, cur = len(win), Taint{}
			}
		}
		yield(start, to-from, cur)
		return
	}
	i := s.locate(from)
	pos := from
	for pos < to {
		if i >= len(s.runs) { // beyond coverage: one untainted tail run
			yield(pos-from, to-from, Taint{})
			return
		}
		end := min(s.runs[i].end, to)
		if i == len(s.runs)-1 && s.runs[i].t == (Taint{}) {
			end = to // an untainted last run takes in what lies past coverage
		}
		yield(pos-from, end-from, s.runs[i].t)
		pos = end
		i++
	}
}

// union combines every distinct label in [from, to).
func (s *shadow) union(from, to int) Taint {
	var acc Taint
	if s.dense != nil {
		if to > len(s.dense) {
			to = len(s.dense)
		}
		var last Taint
		for i := from; i < to; i++ {
			if t := s.dense[i]; t != last {
				acc = Combine(acc, t)
				last = t
			}
		}
		return acc
	}
	for i := s.locate(from); i < len(s.runs); i++ {
		if s.runStart(i) >= to {
			break
		}
		acc = Combine(acc, s.runs[i].t)
	}
	return acc
}

// uniform reports whether every byte of [from, to) carries the same
// label, returning it when so.
func (s *shadow) uniform(from, to int) (Taint, bool) {
	if from >= to {
		return Taint{}, true
	}
	if s.dense != nil {
		if from >= len(s.dense) {
			return Taint{}, true
		}
		t := s.dense[from]
		hi := to
		if hi > len(s.dense) {
			if t != (Taint{}) {
				return Taint{}, false
			}
			hi = len(s.dense)
		}
		for i := from + 1; i < hi; i++ {
			if s.dense[i] != t {
				return Taint{}, false
			}
		}
		return t, true
	}
	i := s.locate(from)
	if i >= len(s.runs) {
		return Taint{}, true
	}
	if s.runs[i].end >= to {
		return s.runs[i].t, true
	}
	if s.runs[i].t == (Taint{}) && i == len(s.runs)-1 {
		// covered prefix untainted, rest beyond coverage
		return Taint{}, true
	}
	return Taint{}, false
}

// window returns the runs covering [from, to) as a fresh slice with
// ends rebased to from. Used to snapshot a source window before
// mutating an aliased destination.
func (s *shadow) window(from, to int) []labelRun {
	out := make([]labelRun, 0, 8)
	s.forEach(from, to, func(rfrom, rto int, t Taint) {
		out = append(out, labelRun{end: rto, t: t})
	})
	return out
}

// runCount returns the number of maximal runs covering [from, to).
func (s *shadow) runCount(from, to int) int {
	n := 0
	s.forEach(from, to, func(int, int, Taint) { n++ })
	return n
}
