package instrument

import "dista/internal/core/wire"

// Taint-density tiering (DESIGN.md §7): a stream endpoint sends each
// outgoing buffer on the cheapest wire tier that can carry its labels
// soundly, steered by a per-connection density tracker so the stream
// settles on the tier matching the taint pattern the flow actually
// exhibits instead of paying the 5x group codec for its whole lifetime
// after one tainted byte.
//
// The tiers, their lattice order P < U < S < G and what each can carry
// are wire.Tiers; the constants below are its indices. A frame's tier
// is the first that fits the buffer from the stream's tracked tier on
// (wire.PickTier) — the tracker only ever makes a frame *denser* than
// strictly necessary, never cheaper, so no tier choice can drop a
// label. Clean buffers always go passthrough regardless of the tracked
// tier, preserving the clean-path contract.
const (
	tierPassthrough = wire.TierPassthrough
	tierUniform     = wire.TierUniform
	tierSparse      = wire.TierSparse
	tierGroups      = wire.TierGroups
)

const (
	// tierScanLimit bounds the Stats dirty-run scan per write; a buffer
	// that exceeds it is too fragmented for any tier but groups, so the
	// exact counts don't matter.
	tierScanLimit = 32
	// tierMinDwell is how many consecutive writes the tracker must
	// spend in a tier before moving to a *cheaper* one. Transitions
	// toward denser tiers are immediate (they are always sound);
	// transitions toward cheaper ones wait, so an adversarial workload
	// alternating densities cannot thrash the tier per write.
	tierMinDwell = 8
)

// EWMA fixed point: 16.16, alpha = 1/4.
const (
	fpShift   = 16
	fpOne     = 1 << fpShift
	ewmaAlpha = 2 // EWMA step: x += (sample - x) >> ewmaAlpha
)

// Hysteresis bands, in fixed point. Each cheap tier has an enter
// threshold and a wider leave threshold, so a stream sitting near a
// boundary does not oscillate: it must drift well past the band it
// entered through before it is reclassified.
const (
	fracEnterP = fpOne / 100      // enter P: <=1% dirty bytes
	fracLeaveP = fpOne / 20       // leave P: >5% dirty bytes
	fracEnterU = fpOne * 95 / 100 // enter U: >=95% dirty bytes...
	runsEnterU = fpOne * 3 / 2    // ...forming <=1.5 runs
	fracLeaveU = fpOne * 75 / 100 // leave U: <75% dirty bytes...
	runsLeaveU = fpOne * 5 / 2    // ...or >2.5 runs
	runsEnterS = fpOne * 4        // enter S: <=4 runs...
	fracEnterS = fpOne / 4        // ...covering <=25% of the bytes
	runsLeaveS = fpOne * 8        // leave S: >8 runs...
	fracLeaveS = fpOne * 2 / 5    // ...or >40% dirty bytes
)

// densityTracker is the per-connection tier selector: two fixed-point
// EWMAs (dirty-byte fraction, dirty-run count) updated in O(1) per
// write on top of the epoch-memoized Stats, classified against the
// hysteresis bands above with a minimum dwell before downgrades.
type densityTracker struct {
	tier  int
	dwell int   // writes spent since the last tier change
	frac  int64 // EWMA of the dirty-byte fraction, 16.16
	runs  int64 // EWMA of the dirty-run count, 16.16
}

// observe folds one write's shape into the EWMAs, reclassifies and
// returns the stream's tier. An inexact shape (aborted Stats scan)
// counts as maximal fragmentation.
//
// A clean write only ages the tracker. Clean traffic goes passthrough
// whatever the tier and says nothing about how fragmented the *tainted*
// traffic is, so it must not dilute the EWMAs: interleaving clean
// headers with uniform records — the common protocol shape — would
// otherwise read as "intermediate density" and drive the stream to the
// groups tier. It still advances the dwell, so a pending downgrade can
// mature during a clean phase.
func (d *densityTracker) observe(s wire.Shape) int {
	if !s.Clean() {
		sampleRuns := int64(s.DirtyRuns) * fpOne
		if !s.Exact {
			sampleRuns = int64(tierScanLimit) * fpOne
		}
		d.frac += (int64(s.DirtyBytes)*fpOne/int64(s.N) - d.frac) >> ewmaAlpha
		d.runs += (sampleRuns - d.runs) >> ewmaAlpha
	}
	d.dwell++

	target := d.classify()
	switch {
	case target > d.tier:
		// Densifying is always sound and always allowed: one burst of
		// fragmented taint must not be carried on a cheap tier's
		// history.
		d.tier, d.dwell = target, 0
	case target < d.tier && d.dwell >= tierMinDwell:
		d.tier, d.dwell = target, 0
	}
	return d.tier
}

// classify maps the current EWMAs to a tier: the current tier holds
// until its leave band is crossed (hysteresis), then the enter bands
// are tried cheapest-first.
func (d *densityTracker) classify() int {
	f, r := d.frac, d.runs
	switch d.tier {
	case tierPassthrough:
		if f <= fracLeaveP {
			return tierPassthrough
		}
	case tierUniform:
		if f >= fracLeaveU && r <= runsLeaveU {
			return tierUniform
		}
	case tierSparse:
		if r <= runsLeaveS && f <= fracLeaveS {
			return tierSparse
		}
	}
	switch {
	case f <= fracEnterP:
		return tierPassthrough
	case f >= fracEnterU && r <= runsEnterU:
		return tierUniform
	case r <= runsEnterS && f <= fracEnterS:
		return tierSparse
	}
	return tierGroups
}
