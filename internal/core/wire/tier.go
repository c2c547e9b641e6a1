package wire

import (
	"encoding/binary"
	"fmt"
)

// The tier table (DESIGN.md §7).
//
// The group codec charges 5x for every byte of a tainted buffer even
// when the taint structure is trivial: a uniformly-labelled bulk
// transfer repeats the same Global ID per byte, and a mostly-clean
// buffer with one tainted island group-encodes the clean majority too.
// A frame therefore carries its payload in one of several tiers, each a
// row of Tiers: the tag it travels under, the payload shapes it can
// carry without dropping a label, how its label metadata is laid out,
// and whether its body is raw data or groups. The decoder, every sender
// and the round-trip tests read the rows; nothing else knows a tag.

// Indices into Tiers, cheapest first: the lattice P < U < S < G. A
// payload travels on the first row that fits it, its sound minimum. The
// row after them is no tier: a definitions unit carries no payload and
// fits none.
const (
	TierPassthrough = iota
	TierUniform
	TierSparse
	TierGroups
)

// Shape is what a sender knows of a payload's labels when it picks a
// tier: N bytes, DirtyBytes of them tainted, in DirtyRuns maximal runs
// of one label each. Exact is false when the sender stopped counting —
// the counts are then lower bounds and only the last tier fits.
type Shape struct {
	N, DirtyBytes, DirtyRuns int
	Exact                    bool
}

// Clean reports a payload without a tainted byte.
func (s Shape) Clean() bool { return s.Exact && s.DirtyBytes == 0 }

// A Tier is one row of the table.
type Tier struct {
	Tag  byte
	Name string
	// Fits is the sound-minimum precondition: whether a frame of this
	// tier carries every label of a payload of shape s, in no more wire
	// bytes than the groups it replaces — which is what keeps any
	// datagram within FrameHeaderLen + WireLen(n), the size receivers
	// enlarge their buffers to. The last row fits every shape.
	Fits func(s Shape) bool
	// MaxRuns is the largest dirty-run count of any shape Fits admits; a
	// sender counts a payload's runs no further than the largest in the
	// table (ScanLimit). A row whose body labels itself admits any number
	// and leaves it zero.
	MaxRuns int
	// Groups says the body after the metadata is the group encoding of
	// the payload; otherwise it is the payload's raw bytes, labelled by
	// the metadata alone.
	Groups bool
	// MetaLen returns how many metadata bytes open the body of a frame
	// declaring body bytes, as far as the meta bytes read so far tell: a
	// layout may be staged (a count, then the table it sizes), so the
	// decoder asks again with each stage complete until the answer is
	// len(meta). Nil means the tier has no metadata.
	MetaLen func(meta []byte, body int) (int, error)
	// Cover appends the run cover of the n raw body bytes that complete
	// metadata describes. Nil where there is nothing to describe: a
	// groups body labels itself, a raw body without metadata is
	// untainted.
	Cover func(dst []Run, meta []byte, n int) ([]Run, error)
	// AppendMeta appends the metadata of a payload under runs, which
	// satisfy Fits. Nil means the tier has no metadata.
	AppendMeta func(dst []byte, runs []Run) []byte
	// Define parses complete metadata that defines Global IDs, appending
	// each id and its serialized taint, a view of meta. Nil on a payload's
	// row.
	Define func(ids []uint32, blobs [][]byte, meta []byte) ([]uint32, [][]byte, error)
}

// Frame tags of the four tiers.
const (
	// FramePassthrough tags a frame whose body is raw untainted bytes.
	FramePassthrough byte = 'P'
	// FrameUniform tags a frame whose body is a Global ID plus raw data
	// bytes all carrying that taint.
	FrameUniform byte = 'U'
	// FrameSparse tags a frame whose body is a dirty-range table plus
	// raw data bytes, tainted only inside the listed ranges.
	FrameSparse byte = 'S'
	// FrameGroups tags a frame whose body is the group encoding.
	FrameGroups byte = 'G'
	// FrameDefinitions tags a unit whose body defines Global IDs and
	// carries no payload.
	FrameDefinitions byte = 'D'
)

const (
	// SparseRangeLen is the wire width of one dirty-range table entry:
	// uint32 offset + uint32 length + Global ID.
	SparseRangeLen = 12
	// SparseCountLen is the wire width of the sparse range count.
	SparseCountLen = 4
	// MaxSparseRanges bounds the table a decoder accepts.
	MaxSparseRanges = 1024
	// sparseSendRanges is the densest taint a sender puts in a range
	// table; beyond it the groups tier's tight loops win.
	sparseSendRanges = 16
	// DefinitionHeadLen is the wire width of what precedes a definition's
	// blob: Global ID + uint32 blob length.
	DefinitionHeadLen = GlobalIDLen + 4
	// MaxDefinitionsLen bounds the body of a definitions unit, for the
	// decoder, which buffers it whole, and so for the sender.
	MaxDefinitionsLen = 1 << 16
)

// Tiers is the table, in lattice order. Every sender takes the first row
// its payload Fits (PickTier), for a frame on a stream and as a datagram
// alike: the choice reads this buffer and nothing a connection saw before
// it (DESIGN.md §7, "no stream history").
var Tiers = []Tier{
	TierPassthrough: {
		Tag: FramePassthrough, Name: "passthrough",
		Fits: Shape.Clean,
	},
	TierUniform: {
		// Metadata: the one Global ID every byte carries.
		Tag: FrameUniform, Name: "uniform",
		Fits: func(s Shape) bool {
			return s.Exact && s.DirtyRuns == 1 && s.DirtyBytes == s.N
		},
		MaxRuns: 1,
		MetaLen: func([]byte, int) (int, error) { return GlobalIDLen, nil },
		Cover: func(dst []Run, meta []byte, n int) ([]Run, error) {
			return append(dst, Run{N: n, ID: binary.BigEndian.Uint32(meta)}), nil
		},
		AppendMeta: func(dst []byte, runs []Run) []byte {
			return binary.BigEndian.AppendUint32(dst, runs[0].ID)
		},
	},
	TierSparse: {
		// Metadata: a range count, then that many (offset, length, Global
		// ID) entries — ascending, non-overlapping, non-empty, non-zero-id
		// and inside the data extent, anything else is corruption. Bytes
		// outside the ranges are untainted. The table must not outweigh
		// the id bytes of the groups it stands in for.
		Tag: FrameSparse, Name: "sparse",
		Fits: func(s Shape) bool {
			return s.Exact && s.DirtyRuns <= sparseSendRanges &&
				SparseCountLen+s.DirtyRuns*SparseRangeLen <= s.N*GlobalIDLen
		},
		MaxRuns: sparseSendRanges,
		MetaLen: func(meta []byte, body int) (int, error) {
			if len(meta) < SparseCountLen {
				return SparseCountLen, nil
			}
			k := binary.BigEndian.Uint32(meta)
			if k > MaxSparseRanges {
				return 0, fmt.Errorf("wire: sparse frame declares %d ranges (limit %d)", k, MaxSparseRanges)
			}
			return SparseCountLen + int(k)*SparseRangeLen, nil
		},
		Cover: func(dst []Run, meta []byte, n int) ([]Run, error) {
			return appendRangeCover(dst, meta[SparseCountLen:], n)
		},
		AppendMeta: func(dst []byte, runs []Run) []byte {
			var few [sparseSendRanges]DirtyRange
			return appendRangeTable(dst, AppendDirtyRanges(few[:0], runs))
		},
	},
	TierGroups: {
		Tag: FrameGroups, Name: "groups",
		Fits:   func(Shape) bool { return true },
		Groups: true,
		MetaLen: func(_ []byte, body int) (int, error) {
			if body%GroupLen != 0 {
				return 0, fmt.Errorf("wire: groups frame length %d is not a whole number of groups", body)
			}
			return 0, nil
		},
	},
	{
		// All metadata: (Global ID, blob length, serialized taint)*, the
		// taints a stream's sender has just registered, ahead of the frame
		// that first uses their ids. An entry under the untainted id, or
		// one that overruns the body, is corruption.
		Tag: FrameDefinitions, Name: "definitions",
		Fits: func(Shape) bool { return false },
		MetaLen: func(_ []byte, body int) (int, error) {
			if body > MaxDefinitionsLen {
				return 0, fmt.Errorf("wire: definitions unit of %d bytes (limit %d)", body, MaxDefinitionsLen)
			}
			return body, nil
		},
		Define: func(ids []uint32, blobs [][]byte, meta []byte) ([]uint32, [][]byte, error) {
			for len(meta) > 0 {
				if len(meta) < DefinitionHeadLen {
					return nil, nil, fmt.Errorf("wire: definitions unit ends inside an entry")
				}
				id, n := binary.BigEndian.Uint32(meta), binary.BigEndian.Uint32(meta[GlobalIDLen:])
				if meta = meta[DefinitionHeadLen:]; id == 0 || uint64(n) > uint64(len(meta)) {
					return nil, nil, fmt.Errorf("wire: definition of id %d with a %d-byte blob in %d", id, n, len(meta))
				}
				ids, blobs = append(ids, id), append(blobs, meta[:n:n])
				meta = meta[n:]
			}
			return ids, blobs, nil
		},
	},
}

// AppendDefinitions appends one definitions unit giving each Global ID
// its serialized taint. A unit that would pass MaxDefinitionsLen is not
// built — the receiver looks those ids up — and neither is an empty one.
func AppendDefinitions(dst []byte, ids []uint32, blobs [][]byte) []byte {
	at := len(dst)
	dst = AppendFrameHeader(dst, FrameDefinitions, 0)
	for i, blob := range blobs {
		dst = binary.BigEndian.AppendUint32(dst, ids[i])
		dst = append(binary.BigEndian.AppendUint32(dst, uint32(len(blob))), blob...)
	}
	body := len(dst) - at - FrameHeaderLen
	if body == 0 || body > MaxDefinitionsLen {
		return dst[:at]
	}
	binary.BigEndian.PutUint32(dst[at+1:], uint32(body))
	return dst
}

// PickTier returns the tier of a frame for a payload of shape s, its
// sound minimum: the first row down the table that fits it. The last
// payload row fits every shape.
func PickTier(s Shape) int {
	t := 0
	for !Tiers[t].Fits(s) {
		t++
	}
	return t
}

// ScanLimit returns how many dirty runs a sender has to count to pick a
// tier: the most any raw-body row admits. A payload with more — a Shape
// left inexact there — fits only a row whose body labels itself, which
// needs no count.
func ScanLimit() int {
	limit := 0
	for i := range Tiers {
		if row := &Tiers[i]; !row.Groups && row.MaxRuns > limit {
			limit = row.MaxRuns
		}
	}
	return limit
}

// AppendHead appends everything of a tier-t frame that precedes its
// body: the frame header and the metadata of n payload bytes under
// runs. A sender that writes the body out-of-line (the zero-copy
// raw-body send, the streamed groups writer) pairs this with it.
func AppendHead(dst []byte, t, n int, runs []Run) []byte {
	row := &Tiers[t]
	body := n
	if row.Groups {
		body = WireLen(n)
	}
	if row.AppendMeta == nil {
		return AppendFrameHeader(dst, row.Tag, body)
	}
	at := len(dst)
	dst = row.AppendMeta(AppendFrameHeader(dst, row.Tag, 0), runs)
	binary.BigEndian.PutUint32(dst[at+1:], uint32(len(dst)-at-FrameHeaderLen+body))
	return dst
}

// AppendFrame appends the whole tier-t frame of data under its run
// cover (nil = all untainted). A datagram is exactly one such frame.
func AppendFrame(dst []byte, t int, data []byte, runs []Run) []byte {
	dst = AppendHead(dst, t, len(data), runs)
	if Tiers[t].Groups {
		return EncodeRuns(dst, data, runs)
	}
	return append(dst, data...)
}

// AppendGroupsFrame appends a whole groups frame for data with its
// taint runs (nil = all untainted, as in EncodeRuns).
func AppendGroupsFrame(dst, data []byte, runs []Run) []byte {
	return AppendFrame(dst, TierGroups, data, runs)
}

// GroupsFrameLen returns the framed size of n data bytes on the groups
// tier — the most any tier's frame takes for n bytes.
func GroupsFrameLen(n int) int { return FrameHeaderLen + WireLen(n) }

// AppendUniformHeader appends a uniform frame's header and Global ID —
// AppendHead for a sender that holds the id and no run.
func AppendUniformHeader(dst []byte, n int, id uint32) []byte {
	dst = AppendFrameHeader(dst, FrameUniform, GlobalIDLen+n)
	return binary.BigEndian.AppendUint32(dst, id)
}

// AppendSparseHeader appends a sparse frame's header, range count and
// range table — AppendHead for a sender that holds the ranges. They
// must satisfy the table invariants for n data bytes (checkRange), or
// the receiver refuses the frame.
func AppendSparseHeader(dst []byte, n int, ranges []DirtyRange) []byte {
	dst = AppendFrameHeader(dst, FrameSparse,
		SparseCountLen+len(ranges)*SparseRangeLen+n)
	return appendRangeTable(dst, ranges)
}

// DirtyRange is one tainted island of a mostly-clean payload: Len bytes
// at Off all carrying the taint with the given Global ID.
type DirtyRange struct {
	Off, Len int
	ID       uint32
}

// appendRangeTable appends the sparse metadata: the count, then one
// entry per range.
func appendRangeTable(dst []byte, ranges []DirtyRange) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ranges)))
	for _, r := range ranges {
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Off))
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Len))
		dst = binary.BigEndian.AppendUint32(dst, r.ID)
	}
	return dst
}

// AppendDirtyRanges converts a full run cover into its dirty ranges
// (skipping untainted runs), appending to dst. The inverse of the
// sparse table's implicit-clean-gap encoding.
func AppendDirtyRanges(dst []DirtyRange, runs []Run) []DirtyRange {
	off := 0
	for _, r := range runs {
		if r.ID != 0 && r.N > 0 {
			dst = append(dst, DirtyRange{Off: off, Len: r.N, ID: r.ID})
		}
		off += r.N
	}
	return dst
}

// checkRange checks one range of a sparse table for n data bytes whose
// previous range ended at pos.
func checkRange(r DirtyRange, pos, n int) error {
	switch {
	case r.Len <= 0:
		return fmt.Errorf("wire: sparse range at %d has length %d", r.Off, r.Len)
	case r.ID == 0:
		return fmt.Errorf("wire: sparse range at %d carries the untainted id", r.Off)
	case r.Off < pos:
		return fmt.Errorf("wire: sparse range at %d overlaps or reorders (previous end %d)", r.Off, pos)
	case r.Off+r.Len > n:
		return fmt.Errorf("wire: sparse range [%d,%d) exceeds %d data bytes", r.Off, r.Off+r.Len, n)
	}
	return nil
}

// appendRangeCover decodes and validates a wire range table covering n
// data bytes and appends its full run cover, clean gaps included, to
// dst. len(table) must be a multiple of SparseRangeLen.
func appendRangeCover(dst []Run, table []byte, n int) ([]Run, error) {
	pos := 0
	for i := 0; i+SparseRangeLen <= len(table); i += SparseRangeLen {
		r := DirtyRange{
			Off: int(binary.BigEndian.Uint32(table[i:])),
			Len: int(binary.BigEndian.Uint32(table[i+4:])),
			ID:  binary.BigEndian.Uint32(table[i+8:]),
		}
		if err := checkRange(r, pos, n); err != nil {
			return nil, err
		}
		if r.Off > pos {
			dst = append(dst, Run{N: r.Off - pos})
		}
		dst = append(dst, Run{N: r.Len, ID: r.ID})
		pos = r.Off + r.Len
	}
	if pos < n {
		dst = append(dst, Run{N: n - pos})
	}
	return dst, nil
}
