package wire

import (
	"encoding/binary"
	"fmt"
)

// Frames and their two envelopes.
//
// A frame is a 5-byte header (tag + big-endian uint32 body length in
// wire bytes) followed by the body: the tier's label metadata, then the
// payload raw or group-encoded, as the row of Tiers the tag names lays
// them out. A clean buffer crosses as a passthrough frame — 5 bytes of
// overhead instead of 5x per byte — and a buffer whose label changes on
// every byte as the paper's groups plus the same 5 bytes.
//
// A stream opens with the 4-byte magic "DTF2" and carries frames back to
// back; one that opens with anything else is not a peer of this format
// and fails on its first byte. A datagram is exactly one frame, no
// magic; bytes past the declared body are not part of it.

// streamMagic opens every stream.
var streamMagic = [4]byte{'D', 'T', 'F', '2'}

const (
	// StreamMagicLen is the size of the stream magic.
	StreamMagicLen = 4
	// FrameHeaderLen is the size of a frame header: tag + body length.
	FrameHeaderLen = 5
	// MaxFrameLen bounds a frame body; longer headers are corruption.
	MaxFrameLen = 1 << 30
)

// AppendAdaptiveStreamMagic appends the stream magic to dst.
func AppendAdaptiveStreamMagic(dst []byte) []byte {
	return append(dst, streamMagic[:]...)
}

// AppendFrameHeader appends a frame header to dst. Callers that write
// the body out-of-line (the zero-copy passthrough write) pair this with
// the raw payload; AppendHead adds a tier's metadata, AppendFrame the
// body too. Inlined (`make inline-check`): it is the clean write's whole
// framing.
func AppendFrameHeader(dst []byte, tag byte, bodyLen int) []byte {
	dst = append(dst, tag)
	return binary.BigEndian.AppendUint32(dst, uint32(bodyLen))
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

// FrameDecoder reassembles a stream of frames from arbitrarily
// fragmented reads. It is a StreamDecoder with a framing front-end: Feed
// it raw reads and pop with the StreamDecoder's consumers (NextRuns,
// NextRunsInto, Next, PeekRuns then PopInto, PeekGroups then
// SkipGroups); raw bodies surface as runs under their metadata's ids
// without ever materializing groups, and group bodies stay groups until
// their reader decodes them. The zero value expects the stream magic
// first.
type FrameDecoder struct {
	StreamDecoder // what is buffered, and every way to pop it

	magicN int // magic bytes matched; StreamMagicLen once the stream is open
	hdr    [FrameHeaderLen]byte
	hdrN   int
	tier   *Tier  // row of the current frame (the last one, between frames)
	flen   int    // declared body length of the current frame
	body   int    // body bytes still expected, metadata included
	need   int    // metadata bytes of the current frame, as far as known
	meta   []byte // metadata read so far
	cover  []Run  // run cover of the current frame's raw body
	coverN int    // runs of it already delivered in full
	err    error

	defIDs   []uint32 // Global IDs defined by the units fed and not yet dropped
	defBlobs [][]byte // their serialized taints, views of defs
	defs     []byte   // the metadata of those units
}

// Definitions returns the Global IDs the stream has defined since the
// last DropDefinitions, with their serialized taints: what a reader gives
// its Taint Map client before it resolves the labels that follow. The
// blobs are views of the decoder's buffer, valid until DropDefinitions.
func (d *FrameDecoder) Definitions() ([]uint32, [][]byte) { return d.defIDs, d.defBlobs }

// Defines reports whether Definitions has any to return. Inlined (`make
// inline-check`): one load and a compare on every read's path.
func (d *FrameDecoder) Defines() bool { return len(d.defIDs) > 0 }

// DropDefinitions forgets the definitions returned so far.
func (d *FrameDecoder) DropDefinitions() {
	d.defIDs, d.defBlobs, d.defs = d.defIDs[:0], d.defBlobs[:0], d.defs[:0]
}

// Feed consumes raw stream bytes. The returned error (wrong opening, bad
// tag, insane length, metadata its row rejects) is sticky: the stream is
// corrupt and no further decoding happens.
func (d *FrameDecoder) Feed(raw []byte) error {
	if d.err != nil {
		return d.err
	}
	for ; d.magicN < StreamMagicLen && len(raw) > 0; raw = raw[1:] {
		if raw[0] != streamMagic[d.magicN] {
			d.err = fmt.Errorf("wire: stream does not open with the %q magic", streamMagic[:])
			return d.err
		}
		d.magicN++
	}
	for len(raw) > 0 && d.err == nil {
		switch {
		case d.body == 0:
			n := copy(d.hdr[d.hdrN:], raw)
			d.hdrN += n
			raw = raw[n:]
			if d.hdrN == FrameHeaderLen {
				d.hdrN = 0
				d.err = d.open(d.hdr[0], int(binary.BigEndian.Uint32(d.hdr[1:])))
			}
		case len(d.meta) < d.need:
			// Accumulate the frame's label metadata before any data byte
			// is delivered.
			m := min(d.need-len(d.meta), len(raw))
			d.meta = append(d.meta, raw[:m]...)
			d.body -= m
			raw = raw[m:]
			if len(d.meta) == d.need {
				d.err = d.stage()
			}
		default:
			// Group bodies are a multiple of GroupLen, so the inner
			// decoder is never mid-group when a raw body starts:
			// pushRun's no-partial precondition holds.
			m := min(d.body, len(raw))
			switch {
			case d.tier.Groups:
				d.StreamDecoder.Feed(raw[:m])
			case d.tier.Cover == nil:
				d.pushRun(raw[:m], 0)
			default:
				d.pushCover(raw[:m])
			}
			d.body -= m
			raw = raw[m:]
		}
	}
	return d.err
}

// open starts the frame a complete header announces.
func (d *FrameDecoder) open(tag byte, ln int) error {
	d.tier = nil
	for i := range Tiers {
		if Tiers[i].Tag == tag {
			d.tier = &Tiers[i]
			break
		}
	}
	switch {
	case d.tier == nil:
		return fmt.Errorf("wire: unknown frame tag 0x%02x", tag)
	case ln > MaxFrameLen:
		return fmt.Errorf("wire: frame length %d exceeds limit", ln)
	}
	d.flen, d.body = ln, ln
	d.meta, d.need = d.meta[:0], 0
	return d.stage()
}

// stage runs at the start of a frame and whenever the metadata known to
// be pending completes: the row either asks for more (a count sizes its
// table) or the metadata is whole, and a raw body's run cover — or what
// a definitions unit defines — is computed from it.
func (d *FrameDecoder) stage() error {
	t := d.tier
	if t.MetaLen != nil {
		need, err := t.MetaLen(d.meta, d.flen)
		if err != nil {
			return err
		}
		if need > d.flen {
			return fmt.Errorf("wire: %s frame length %d cannot hold %d metadata bytes", t.Name, d.flen, need)
		}
		if d.need = need; need > len(d.meta) {
			return nil
		}
		if t.Define != nil {
			// The next frame's metadata reuses meta, so the unit moves to
			// defs, whose earlier bytes stay put when it grows.
			at := len(d.defs)
			d.defs = append(d.defs, d.meta...)
			d.defIDs, d.defBlobs, err = t.Define(d.defIDs, d.defBlobs, d.defs[at:])
			return err
		}
	}
	if t.Cover == nil {
		return nil
	}
	var err error
	d.cover, err = t.Cover(d.cover[:0], d.meta, d.flen-len(d.meta))
	d.coverN = 0
	return err
}

// pushCover delivers raw body bytes under the run cover stage computed,
// consuming it as fragments arrive.
func (d *FrameDecoder) pushCover(raw []byte) {
	for {
		r := &d.cover[d.coverN]
		if len(raw) <= r.N {
			d.pushRun(raw, r.ID)
			r.N -= len(raw)
			return
		}
		d.pushRun(raw[:r.N], r.ID)
		raw = raw[r.N:]
		d.coverN++
	}
}

// Whole returns raw's body when the decoder holds nothing pending or
// begun and raw is one whole frame its reader takes out of the read
// buffer: a passthrough frame of 1 to max bytes — the clean read — or a
// groups frame of 1 to max groups Feed would keep raw (PeekGroups). A read
// it refuses (nil), or whose groups its reader turns down, goes to Feed.
func (d *FrameDecoder) Whole(raw []byte, max int) []byte {
	if d.magicN < StreamMagicLen || d.PendingPartial() || d.Buffered() > 0 || d.Defines() || d.err != nil {
		return nil
	}
	if p := wholePassthrough(raw, max); p != nil {
		return p
	}
	if n := len(raw) - FrameHeaderLen; n > 0 && n <= WireLen(max) && n%GroupLen == 0 && raw[0] == FrameGroups &&
		int(binary.BigEndian.Uint32(raw[1:])) == n && fragmented(raw[FrameHeaderLen:]) {
		return raw[FrameHeaderLen:]
	}
	return nil
}

// wholePassthrough returns the payload of raw if raw is exactly one
// passthrough frame of 1 to max bytes: the clean read's test, inlined
// (`make inline-check`).
func wholePassthrough(raw []byte, max int) []byte {
	if n := len(raw) - FrameHeaderLen; n > 0 && n <= max && raw[0] == FramePassthrough && int(binary.BigEndian.Uint32(raw[1:])) == n {
		return raw[FrameHeaderLen:]
	}
	return nil
}

// Datagram opens a zero decoder on the one frame of a datagram, as the
// magic opens a stream, and returns raw without the bytes past the
// frame's declared body: raw is then for Whole, or FeedDatagram.
func (d *FrameDecoder) Datagram(raw []byte) []byte {
	if len(raw) >= FrameHeaderLen {
		if ln := binary.BigEndian.Uint32(raw[1:]); uint64(ln) < uint64(len(raw)-FrameHeaderLen) {
			raw = raw[:FrameHeaderLen+int(ln)]
		}
	}
	d.magicN = StreamMagicLen
	return raw
}

// FeedDatagram feeds a zero decoder the one frame of a datagram, or as
// much of it as arrived: UDP cuts a datagram to the receiver's buffer
// silently, and a body cut short is the ordinary partial body of a
// stream — what arrived whole is buffered to be popped. Only a cut
// inside the header or the label metadata leaves nothing to deliver
// (ErrTruncatedPacket).
func (d *FrameDecoder) FeedDatagram(raw []byte) error {
	raw = d.Datagram(raw)
	if err := d.Feed(raw); err != nil {
		return err
	}
	if d.tier == nil || d.hdrN > 0 || len(d.meta) < d.need {
		return fmt.Errorf("%w: %d bytes end inside the frame header or label metadata", ErrTruncatedPacket, len(raw))
	}
	return nil
}

// PendingPartial reports whether the stream ended mid-unit: inside the
// magic, a frame header, a frame body, or a group. At EOF it
// distinguishes a clean close from a truncated transfer.
func (d *FrameDecoder) PendingPartial() bool {
	return d.magicN%StreamMagicLen > 0 || d.hdrN > 0 || d.body > 0 || d.StreamDecoder.PendingPartial()
}
