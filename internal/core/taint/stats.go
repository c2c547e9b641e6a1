package taint

// Run statistics for the wire tiering engine (DESIGN.md §7).
//
// The adaptive endpoint classifies every outgoing buffer into a wire
// tier (passthrough / uniform / sparse / groups) from three numbers:
// how many bytes are dirty, how many maximal dirty runs they form, and
// whether all of them share one label. Computing those by rescanning
// a dense store on every write would charge the hot path O(bytes) per
// send even when nothing changed, so a dense store's whole-extent
// answers are memoized keyed by its mutation epoch — the same trick as
// the Clean() memo — making the steady state (write the same pooled
// buffer over and over) an O(1) pointer load. A run store is not
// memoized: its scan stops after limit+1 dirty runs, about what a memo
// check costs, and a memo entry is an allocation a freshly labelled
// buffer would pay on every send.

// RunStats summarizes the dirty structure of a Bytes window.
type RunStats struct {
	DirtyBytes int   // total tainted bytes
	DirtyRuns  int   // maximal tainted runs
	One        Taint // the single shared dirty label; zero unless every dirty run carries it
}

// Uniform reports whether the window is wholly covered by one non-empty
// label (the 'U' wire-tier precondition) for a window of n bytes.
func (st RunStats) Uniform(n int) bool {
	return n > 0 && st.DirtyBytes == n && st.DirtyRuns == 1 && !st.One.Empty()
}

// shadowStats is one memoized whole-extent Stats answer.
type shadowStats struct {
	epoch uint64 // shadow.mut at computation time
	st    RunStats
	exact bool // scan ran to completion (vs. aborted at limit)
	limit int  // the dirty-run limit the scan was given
}

// Stats aggregates the dirty structure of b, scanning at most limit+1
// dirty runs. The second result is false when the scan aborted early;
// the counts are then lower bounds and One is zero — callers treat an
// inexact answer as "too fragmented, use the dense tier". A clean or
// shadow-free Bytes answers {0,0,zero}, true without scanning.
//
// A dense store's whole-extent answers are memoized per mutation epoch,
// so repeated Stats calls on an unmutated buffer are O(1). Like Clean,
// the memo is refreshed with an atomic store and is safe under
// concurrent readers.
func (b Bytes) Stats(limit int) (RunStats, bool) {
	sh := b.sh
	if sh == nil || len(b.Data) == 0 || sh.isClean() {
		return RunStats{}, true
	}
	whole := sh.dense != nil && b.off == 0 && sh.cov() <= len(b.Data)
	m := sh.mut
	if whole {
		if memo := sh.stats.Load(); memo != nil && memo.epoch == m &&
			(memo.exact || limit <= memo.limit) {
			return memo.st, memo.exact
		}
	}
	st, exact := sh.runStats(b.off, b.off+len(b.Data), limit)
	if whole {
		sh.stats.Store(&shadowStats{epoch: m, st: st, exact: exact, limit: limit})
	}
	return st, exact
}

// ForEachDirtyRun yields only the tainted runs of b in order, skipping
// clean gaps — the range extraction behind the sparse wire tier. A
// clean or shadow-free Bytes yields nothing.
func (b Bytes) ForEachDirtyRun(yield func(from, to int, t Taint)) {
	if b.sh == nil || len(b.Data) == 0 || b.sh.isClean() {
		return
	}
	b.sh.forEach(b.off, b.off+len(b.Data), func(from, to int, t Taint) {
		if t != (Taint{}) {
			yield(from, to, t)
		}
	})
}

// runStats scans [from, to) aggregating dirty bytes, dirty-run count
// and the shared label, aborting once more than limit dirty runs have
// been seen (exact=false; One is zero then).
func (s *shadow) runStats(from, to, limit int) (st RunStats, exact bool) {
	oneOK := true
	if s.dense != nil {
		c := len(s.dense)
		if to < c {
			c = to
		}
		for i := from; i < c; {
			t := s.dense[i]
			j := i + 1
			for j < c && s.dense[j] == t {
				j++
			}
			if t != (Taint{}) {
				if !st.accumulate(j-i, t, &oneOK, limit) {
					return st, false
				}
			}
			i = j
		}
		if !oneOK {
			st.One = Taint{}
		}
		return st, true
	}
	pos := from
	for i := s.locate(from); pos < to && i < len(s.runs); i++ {
		end := s.runs[i].end
		if end > to {
			end = to
		}
		if t := s.runs[i].t; t != (Taint{}) {
			if !st.accumulate(end-pos, t, &oneOK, limit) {
				return st, false
			}
		}
		pos = end
	}
	if !oneOK {
		st.One = Taint{}
	}
	return st, true
}

// accumulate folds one dirty run of n bytes with label t into st,
// reporting false once the dirty-run count exceeds limit.
func (st *RunStats) accumulate(n int, t Taint, oneOK *bool, limit int) bool {
	st.DirtyRuns++
	st.DirtyBytes += n
	if st.DirtyRuns == 1 {
		st.One = t
	} else if st.One != t {
		*oneOK = false
	}
	if st.DirtyRuns > limit {
		st.One = Taint{}
		return false
	}
	return true
}
