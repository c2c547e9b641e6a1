// Package idbits seeds Global-ID bit-layout violations for the
// distavet idbits golden test: a partition-index field wide enough to
// reach the scoped bit, and a sequence field wide enough to reach
// the partition field. The constant names mirror the real layout in
// internal/taintmap/idspace.go — the analyzer keys on the names, so
// any package declaring them is held to the disjointness invariant.
package idbits

const scopedBit = 1 << 31

const (
	partitionBits  = 5
	partitionShift = 27
	partitionMask  = ((1 << partitionBits) - 1) << partitionShift // want "partition-index mask 0xf8000000 overlaps the scoped bit"
	seqMask        = 1<<28 - 1                                    // want "sequence mask 0xfffffff overlaps the partition-index mask"
)

// The fields are referenced so the package has no unused-constant
// smell; the analyzer cares only about the declarations above.
var _ = [3]uint64{scopedBit, partitionMask, seqMask}
