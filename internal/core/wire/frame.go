package wire

import (
	"encoding/binary"
	"fmt"
)

// Framed stream codec: the clean-path bypass wire format.
//
// A framed stream opens with the 4-byte magic "DTF1" and then carries a
// sequence of frames, each a 5-byte header (tag + big-endian uint32
// body length in wire bytes) followed by the body:
//
//   - 'P' (passthrough): the body is the raw data bytes, untainted by
//     construction. No groups, no Global IDs — 5 bytes of overhead per
//     frame instead of 5x per byte. This is what clean buffers emit.
//   - 'G' (groups): the body is the classic group encoding
//     (EncodeRuns), length a multiple of GroupLen. Tainted buffers keep
//     paying exactly the old cost plus the 5-byte header.
//   - 'U' (uniform) and 'S' (sparse): the adaptive tiers between those
//     extremes — raw data plus out-of-band labels (see tier.go). They
//     ride under the "DTF2" magic; this decoder accepts either magic
//     and all four tags under both.
//
// Byte compatibility: FrameDecoder sniffs the first bytes of a
// connection and falls back to the legacy raw-group stream the moment a
// prefix byte mismatches the magic, so pre-framing peers are decoded
// unchanged. A legacy stream can only be mistaken for a framed one if
// its first group carries data byte 'D' AND a Global ID >= 0x54463100
// ("TF1" + a high byte): ids are allocated sequentially from 1, so that
// needs ~1.4 billion live registrations, and provisional ids (high bit
// set) never match the second magic byte 'T' — in practice the sniff
// cannot misfire.

// streamMagic opens every framed stream.
var streamMagic = [4]byte{'D', 'T', 'F', '1'}

const (
	// StreamMagicLen is the size of the framed-stream magic.
	StreamMagicLen = 4
	// FrameHeaderLen is the size of a frame header: tag + body length.
	FrameHeaderLen = 5
	// FramePassthrough tags a frame whose body is raw untainted bytes.
	FramePassthrough byte = 'P'
	// FrameGroups tags a frame whose body is the group encoding.
	FrameGroups byte = 'G'
	// MaxFrameLen bounds a frame body; longer headers are corruption.
	MaxFrameLen = 1 << 30
)

// PassthroughFrameLen returns the framed size of n clean data bytes.
func PassthroughFrameLen(n int) int { return FrameHeaderLen + n }

// GroupsFrameLen returns the framed size of n tainted data bytes.
func GroupsFrameLen(n int) int { return FrameHeaderLen + WireLen(n) }

// AppendStreamMagic appends the framed-stream magic to dst.
func AppendStreamMagic(dst []byte) []byte {
	return append(dst, streamMagic[:]...)
}

// AppendFrameHeader appends a frame header to dst. Callers that write
// the body out-of-line (the zero-copy passthrough write) pair this with
// the raw payload; otherwise use the Append*Frame helpers.
func AppendFrameHeader(dst []byte, tag byte, bodyLen int) []byte {
	dst = append(dst, tag)
	return binary.BigEndian.AppendUint32(dst, uint32(bodyLen))
}

// AppendPassthroughFrame appends a whole passthrough frame for data.
func AppendPassthroughFrame(dst, data []byte) []byte {
	dst = AppendFrameHeader(dst, FramePassthrough, len(data))
	return append(dst, data...)
}

// AppendGroupsFrame appends a whole groups frame for data with its
// taint runs (nil = all untainted, as in EncodeRuns).
func AppendGroupsFrame(dst, data []byte, runs []Run) []byte {
	dst = AppendFrameHeader(dst, FrameGroups, WireLen(len(data)))
	return EncodeRuns(dst, data, runs)
}

// RunsAllUntainted reports whether every run carries the zero Global ID
// — the receive-side clean gate: such a pop needs no Taint Map lookup
// and no shadow minting.
func RunsAllUntainted(runs []Run) bool {
	for _, r := range runs {
		if r.ID != 0 {
			return false
		}
	}
	return true
}

// frame decoder states.
const (
	frameSniffing = iota // deciding framed vs legacy from the prefix
	frameFramed          // saw the magic: header/body frame loop
	frameLegacy          // pre-framing peer: raw group stream
)

// FrameDecoder reassembles a framed stream (and, transparently, a
// legacy raw-group stream) from arbitrarily fragmented reads. It is a
// StreamDecoder front-end: Feed it raw reads, pop decoded bytes with
// NextRuns/NextRunsInto/Next (or PeekRuns then PopInto); passthrough
// bodies surface as untainted runs (Global ID 0) without ever
// materializing groups.
type FrameDecoder struct {
	sd    StreamDecoder
	state int
	pre   [StreamMagicLen]byte // sniffed prefix, replayed on fallback
	preN  int
	hdr   [FrameHeaderLen]byte
	hdrN  int
	tag   byte
	body  int // body bytes of the current frame still expected
	flen  int // total body length of the current frame
	metaN int // label-metadata bytes (uniform id / sparse table) still expected
	meta  []byte
	srun  []Run // remaining run cover of the current tiered frame's data
	err   error
}

// Feed consumes raw stream bytes. The returned error (bad tag, insane
// length, non-group body size) is sticky: the stream is corrupt and no
// further decoding happens.
func (d *FrameDecoder) Feed(raw []byte) error {
	if d.err != nil {
		return d.err
	}
	for d.state == frameSniffing && len(raw) > 0 {
		b := raw[0]
		if b != streamMagic[d.preN] &&
			!(d.preN == StreamMagicLen-1 && b == adaptiveMagic[StreamMagicLen-1]) {
			// Neither magic: a legacy stream. Replay the sniffed
			// prefix, then fall through to plain group decoding.
			d.state = frameLegacy
			d.sd.Feed(d.pre[:d.preN])
			break
		}
		d.pre[d.preN] = b
		d.preN++
		raw = raw[1:]
		if d.preN == StreamMagicLen {
			d.state = frameFramed
		}
	}
	if d.state == frameLegacy {
		d.sd.Feed(raw)
		return nil
	}
	for len(raw) > 0 {
		if d.body > 0 {
			if d.metaN > 0 {
				// Accumulate the tiered frame's label metadata (the
				// uniform id, the sparse count then table) before any
				// data byte is delivered.
				m := d.metaN
				if m > len(raw) {
					m = len(raw)
				}
				d.meta = append(d.meta, raw[:m]...)
				d.metaN -= m
				d.body -= m
				raw = raw[m:]
				if d.metaN == 0 {
					if err := d.finishMeta(); err != nil {
						d.err = err
						return err
					}
				}
				continue
			}
			m := d.body
			if m > len(raw) {
				m = len(raw)
			}
			// Group bodies are a multiple of GroupLen, so the inner
			// decoder is never mid-group when a raw-data body starts:
			// pushRun's no-partial precondition holds.
			switch d.tag {
			case FramePassthrough:
				d.sd.pushRaw(raw[:m])
			case FrameUniform, FrameSparse:
				d.pushTiered(raw[:m])
			default:
				d.sd.Feed(raw[:m])
			}
			d.body -= m
			raw = raw[m:]
			continue
		}
		n := copy(d.hdr[d.hdrN:], raw)
		d.hdrN += n
		raw = raw[n:]
		if d.hdrN < FrameHeaderLen {
			return nil
		}
		d.hdrN = 0
		d.tag = d.hdr[0]
		ln := int(binary.BigEndian.Uint32(d.hdr[1:]))
		switch {
		case d.tag != FramePassthrough && d.tag != FrameGroups &&
			d.tag != FrameUniform && d.tag != FrameSparse:
			d.err = fmt.Errorf("wire: unknown frame tag 0x%02x", d.tag)
		case ln > MaxFrameLen:
			d.err = fmt.Errorf("wire: frame length %d exceeds limit", ln)
		case d.tag == FrameGroups && ln%GroupLen != 0:
			d.err = fmt.Errorf("wire: groups frame length %d is not a whole number of groups", ln)
		case d.tag == FrameUniform && ln < GlobalIDLen:
			d.err = fmt.Errorf("wire: uniform frame length %d cannot hold a Global ID", ln)
		case d.tag == FrameSparse && ln < SparseCountLen:
			d.err = fmt.Errorf("wire: sparse frame length %d cannot hold a range count", ln)
		}
		if d.err != nil {
			return d.err
		}
		d.body, d.flen = ln, ln
		d.meta = d.meta[:0]
		switch d.tag {
		case FrameUniform:
			d.metaN = GlobalIDLen
		case FrameSparse:
			d.metaN = SparseCountLen
		default:
			d.metaN = 0
		}
	}
	return nil
}

// finishMeta runs when a tiered frame's pending metadata completes: for
// a uniform frame the Global ID, for a sparse frame first the count
// (which re-arms metaN for the table) and then the table itself. It
// leaves srun holding the run cover the data section will be delivered
// under.
func (d *FrameDecoder) finishMeta() error {
	dataLen := d.flen - GlobalIDLen
	if d.tag == FrameUniform {
		d.srun = append(d.srun[:0], Run{N: dataLen, ID: binary.BigEndian.Uint32(d.meta)})
		return nil
	}
	if len(d.meta) == SparseCountLen {
		k := int(binary.BigEndian.Uint32(d.meta))
		if k > MaxSparseRanges {
			return fmt.Errorf("wire: sparse frame declares %d ranges (limit %d)", k, MaxSparseRanges)
		}
		if need := SparseCountLen + k*SparseRangeLen; need > d.flen {
			return fmt.Errorf("wire: sparse frame length %d cannot hold %d ranges", d.flen, k)
		}
		if k > 0 {
			d.metaN = k * SparseRangeLen
			return nil
		}
	}
	dataLen = d.flen - len(d.meta)
	ranges, err := parseRangeTable(d.meta[SparseCountLen:], dataLen)
	if err != nil {
		return err
	}
	d.srun = rangeRunCover(d.srun[:0], ranges, dataLen)
	return nil
}

// pushTiered delivers raw data bytes of a uniform/sparse frame under
// the run cover finishMeta computed, consuming it as fragments arrive.
func (d *FrameDecoder) pushTiered(raw []byte) {
	for len(raw) > 0 {
		r := &d.srun[0]
		m := r.N
		if m > len(raw) {
			m = len(raw)
		}
		d.sd.pushRun(raw[:m], r.ID)
		r.N -= m
		raw = raw[m:]
		if r.N == 0 {
			d.srun = d.srun[1:]
		}
	}
}

// Buffered returns how many decoded data bytes are ready.
func (d *FrameDecoder) Buffered() int { return d.sd.Buffered() }

// PendingPartial reports whether the stream ended mid-unit: inside the
// sniffed prefix, a frame header, a frame body, or a legacy group. At
// EOF it distinguishes a clean close from a truncated transfer.
func (d *FrameDecoder) PendingPartial() bool {
	switch d.state {
	case frameSniffing:
		return d.preN > 0
	case frameFramed:
		return d.hdrN > 0 || d.body > 0 || d.sd.PendingPartial()
	default:
		return d.sd.PendingPartial()
	}
}

// PeekRuns reports the size and run cover of a pop of up to max bytes
// without consuming it (see StreamDecoder.PeekRuns).
func (d *FrameDecoder) PeekRuns(max int) (int, []Run) { return d.sd.PeekRuns(max) }

// PopInto pops decoded bytes into dst for a caller that took their runs
// from PeekRuns.
func (d *FrameDecoder) PopInto(dst []byte) int { return d.sd.PopInto(dst) }

// NextRuns pops up to max decoded bytes with their taint runs, which
// stay valid until the next Feed.
func (d *FrameDecoder) NextRuns(max int) ([]byte, []Run) { return d.sd.NextRuns(max) }

// NextRunsInto pops decoded bytes directly into dst — no allocation for
// the data half.
func (d *FrameDecoder) NextRunsInto(dst []byte) (int, []Run) { return d.sd.NextRunsInto(dst) }

// Next pops up to max decoded bytes with their per-byte ids.
func (d *FrameDecoder) Next(max int) ([]byte, []uint32) { return d.sd.Next(max) }
