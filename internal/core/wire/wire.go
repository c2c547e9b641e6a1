// Package wire implements DisTA's inter-node taint encoding (DSN'22
// §III-D): every data byte travels as a fixed-length group of the byte
// followed by the 4-byte big-endian Global ID of its taint (0 =
// untainted). The fixed group length is what lets a receiver enlarge its
// buffer by a known factor and never receive a partial taint — the
// "mismatched serialized taint length" problem the Taint Map solves.
//
// Groups travel in frames (frame.go): a tag, a body length and a body
// that is either the group encoding or a cheaper form of the same labels
// the tier table (tier.go) admits for the payload's shape. One frame
// format serves the paper's three instrumentation types through two
// envelopes:
//
//   - a stream (Type 1 sockets, Type 3 direct buffers) opens with a
//     magic and carries frames back to back, decoded statefully under
//     arbitrary read fragmentation;
//   - a datagram (Type 2) is exactly one frame and no magic.
//
// The codec has a run form (EncodeRuns, AppendRun, NextRuns, ...) that
// describes taint as []Run — stretches of consecutive bytes sharing one
// Global ID — instead of a per-byte []uint32. The wire format is
// identical; only the in-memory shape changes. Real payloads are
// dominated by long single-taint stretches, so the run forms do the id
// bookkeeping once per run instead of once per byte and avoid
// materializing 4 bytes of id per data byte. The per-byte forms
// (EncodeGroups, DecodeGroups, ExpandRuns) are the reference the tests
// compare against.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

const (
	// GlobalIDLen is the wire width of a Global ID.
	GlobalIDLen = 4
	// GroupLen is the wire width of one data byte with its taint id —
	// the source of the paper's "about 5X network overhead" estimate.
	GroupLen = 1 + GlobalIDLen
)

// ErrTruncatedPacket reports a datagram cut short inside its frame header
// or label metadata, where nothing of the payload can be delivered.
var ErrTruncatedPacket = errors.New("wire: truncated taint packet")

// WireLen returns the encoded size of n data bytes in the stream codec.
func WireLen(n int) int { return n * GroupLen }

// DataLen returns how many whole data bytes fit in w wire bytes.
func DataLen(w int) int { return w / GroupLen }

// Run describes N consecutive data bytes that all carry the taint with
// the given Global ID (0 = untainted). A []Run covering a payload is
// the run-length form of a per-byte []uint32.
type Run struct {
	N  int
	ID uint32
}

// RunsLen returns the number of data bytes covered by runs.
func RunsLen(runs []Run) int {
	n := 0
	for _, r := range runs {
		n += r.N
	}
	return n
}

// ExpandRuns materializes the per-byte id slice described by runs.
func ExpandRuns(runs []Run) []uint32 {
	ids := make([]uint32, RunsLen(runs))
	pos := 0
	for _, r := range runs {
		for i := 0; i < r.N; i++ {
			ids[pos] = r.ID
			pos++
		}
	}
	return ids
}

// encodeSlack is spare capacity reserved past the encoded end so the
// EncodeRuns inner loop can emit each 5-byte group as a single
// overlapping 8-byte store (the last group's store spills 3 scratch
// bytes that stay beyond the returned length).
const encodeSlack = 8 - GroupLen

// EncodeSlack is the extra capacity a caller-provided destination must
// reserve beyond the encoded length for EncodeRuns/AppendRun/EncodeGroups
// to append without reallocating (see encodeSlack). Callers sizing pooled
// buffers add this once.
const EncodeSlack = encodeSlack

// A block is eight consecutive groups sharing one Global ID — 40 wire
// bytes, or exactly five 64-bit words. Long runs encode and decode one
// block per iteration: the id bytes of all eight groups are folded into
// five precomputed lane words, so the per-byte loop collapses to one
// 8-byte data load plus five word stores (encode) or five word loads,
// five masked compares and one 8-byte data store (decode).
const (
	blockGroups = 8
	blockBytes  = blockGroups * GroupLen
)

// laneM* mask the data-byte lanes of each word of a block: group g's
// data byte sits at block offset 5g, i.e. word g*5/8, bit 8*(5g%8).
const (
	laneM0 uint64 = 0xff | 0xff<<40     // groups 0, 1
	laneM1 uint64 = 0xff<<16 | 0xff<<56 // groups 2, 3
	laneM2 uint64 = 0xff << 32          // group 4
	laneM3 uint64 = 0xff<<8 | 0xff<<48  // groups 5, 6
	laneM4 uint64 = 0xff << 24          // group 7
)

// blockLanes returns the five little-endian words of a block whose
// eight groups all carry id, with the data-byte lanes left zero.
func blockLanes(id uint32) (c0, c1, c2, c3, c4 uint64) {
	var tmpl [blockBytes]byte
	i3, i2, i1, i0 := byte(id>>24), byte(id>>16), byte(id>>8), byte(id)
	for g := 0; g < blockGroups; g++ {
		o := g * GroupLen
		tmpl[o+1], tmpl[o+2], tmpl[o+3], tmpl[o+4] = i3, i2, i1, i0
	}
	return binary.LittleEndian.Uint64(tmpl[0:]),
		binary.LittleEndian.Uint64(tmpl[8:]),
		binary.LittleEndian.Uint64(tmpl[16:]),
		binary.LittleEndian.Uint64(tmpl[24:]),
		binary.LittleEndian.Uint64(tmpl[32:])
}

// EncodeRuns appends the group encoding of data to dst, taking taint as
// runs instead of per-byte ids, and returns the extended slice. runs
// may be nil (all untainted) or must cover exactly len(data) bytes.
func EncodeRuns(dst, data []byte, runs []Run) []byte {
	if runs == nil {
		return AppendRun(dst, data, 0)
	}
	if got := RunsLen(runs); got != len(data) {
		panic(fmt.Sprintf("wire: runs cover %d of %d bytes", got, len(data)))
	}
	w := len(dst)
	end := w + WireLen(len(data))
	scratch := slices.Grow(dst, end-w+encodeSlack)[:end+encodeSlack]
	for _, r := range runs {
		src := data[:r.N]
		data = data[r.N:]
		if len(src) >= 2*blockGroups {
			w, src = encodeBlocks(scratch, w, src, r.ID)
		}
		w = encodeGroups(scratch, w, src, r.ID)
	}
	return scratch[:end]
}

// AppendRun appends the groups of src, every byte carrying id, to dst:
// EncodeRuns one run at a time, for a sender that meets its runs while
// walking a label store and has no []Run to hand over. dst is
// reallocated unless it has room for the groups plus EncodeSlack.
func AppendRun(dst, src []byte, id uint32) []byte {
	w := len(dst)
	end := w + WireLen(len(src))
	scratch := slices.Grow(dst, end-w+encodeSlack)[:end+encodeSlack]
	if len(src) >= 2*blockGroups {
		w, src = encodeBlocks(scratch, w, src, id)
	}
	encodeGroups(scratch, w, src, id)
	return scratch[:end]
}

// GroupWord returns the id half of a group as PutGroup takes it: a
// little-endian word with the four big-endian id bytes in byte lanes
// 1..4 and lane 0, the data byte's, left zero. Inlined (`make
// inline-check`); computed once per run, or once per label change by a
// sender that has no runs.
func GroupWord(id uint32) uint64 { return uint64(bits.ReverseBytes32(id)) << 8 }

// PutGroup stores the group of data byte b under idw at dst[:GroupLen]
// as one 8-byte store, so dst must reach EncodeSlack past the group;
// the spill is overwritten by the next group or stays beyond the
// encoded length. Inlined (`make inline-check`) — the per-byte primitive
// of encodeGroups, exported for a sender that reads one label per byte
// off a dense shadow store and has no run to hand AppendRun.
func PutGroup(dst []byte, idw uint64, b byte) {
	binary.LittleEndian.PutUint64(dst, idw|uint64(b))
}

// encodeGroups writes the groups of src, every byte carrying id, at
// scratch[w:] and returns the offset past them; scratch must reach
// encodeSlack beyond the last group. The id half of a group is
// precomputed once per run as a shifted word, so each group costs one
// 8-byte store instead of five byte stores. Small enough to inline
// into a per-run loop (`make inline-check`); runs of two blocks or more
// go through encodeBlocks first and leave this their sub-block tail.
func encodeGroups(scratch []byte, w int, src []byte, id uint32) int {
	idw := GroupWord(id)
	for _, b := range src {
		PutGroup(scratch[w:], idw, b)
		w += GroupLen
	}
	return w
}

// encodeBlocks writes the whole blocks of src at scratch[w:], returning
// the offset past them and the sub-block tail of src.
func encodeBlocks(scratch []byte, w int, src []byte, id uint32) (int, []byte) {
	c0, c1, c2, c3, c4 := blockLanes(id)
	for len(src) >= blockGroups {
		d8 := binary.LittleEndian.Uint64(src)
		blk := scratch[w : w+blockBytes]
		binary.LittleEndian.PutUint64(blk[0:], c0|d8&0xff|(d8>>8&0xff)<<40)
		binary.LittleEndian.PutUint64(blk[8:], c1|(d8>>16&0xff)<<16|(d8>>24&0xff)<<56)
		binary.LittleEndian.PutUint64(blk[16:], c2|(d8>>32&0xff)<<32)
		binary.LittleEndian.PutUint64(blk[24:], c3|(d8>>40&0xff)<<8|(d8>>48&0xff)<<48)
		binary.LittleEndian.PutUint64(blk[32:], c4|(d8>>56&0xff)<<24)
		w += blockBytes
		src = src[blockGroups:]
	}
	return w, src
}

// EncodeGroups appends the group encoding of data (with per-byte ids) to
// dst and returns the extended slice. ids may be nil (all untainted) or
// must have len(data) entries. Each group is emitted as one overlapping
// 8-byte store, like EncodeRuns.
func EncodeGroups(dst, data []byte, ids []uint32) []byte {
	if ids == nil {
		return EncodeRuns(dst, data, nil)
	}
	if len(ids) != len(data) {
		panic(fmt.Sprintf("wire: %d ids for %d bytes", len(ids), len(data)))
	}
	w := len(dst)
	need := w + WireLen(len(data))
	scratch := slices.Grow(dst, need-w+encodeSlack)[:need+encodeSlack]
	for i, b := range data {
		PutGroup(scratch[w:], GroupWord(ids[i]), b)
		w += GroupLen
	}
	return scratch[:need]
}

// DecodeGroups splits a whole-group wire buffer into data bytes and
// per-byte ids. len(raw) must be a multiple of GroupLen.
func DecodeGroups(raw []byte) (data []byte, ids []uint32, err error) {
	if len(raw)%GroupLen != 0 {
		return nil, nil, fmt.Errorf("wire: %d bytes is not a whole number of groups", len(raw))
	}
	n := len(raw) / GroupLen
	data = make([]byte, n)
	ids = make([]uint32, n)
	for i := 0; i < n; i++ {
		g := raw[i*GroupLen:]
		data[i] = g[0]
		ids[i] = binary.BigEndian.Uint32(g[1:GroupLen])
	}
	return data, ids, nil
}

// StreamDecoder reassembles groups from an arbitrarily fragmented byte
// stream. Feed it raw reads; Next (or NextRuns) pops decoded bytes. A
// partial group stays buffered until its remaining bytes arrive.
//
// Groups that arrive fragmented (see Feed) wait as the wire carried them,
// in one raw tail behind whatever is already decoded, for their reader
// to decode. A reader that wants one label per byte takes the groups
// themselves (PeekGroups, SkipGroups) and no run is ever built; the run
// consumers (PeekRuns, NextRuns, ...) and anything decoded behind the
// tail decode all of it first, so what is pending is always decoded
// bytes, then raw groups. The arrays are kept across drains, save those
// a fill took past 256 KiB (reclaim): popped runs alias the run array and stay
// valid until the next Feed, the first thing allowed to write over them.
type StreamDecoder struct {
	data []byte
	off  int    // consumed prefix of data; unread bytes are data[off:]
	runs []Run  // runs[roff:] is the taint of data[off:], covering it exactly
	roff int    // consumed prefix of runs
	tail []byte // wire bytes fed after data[off:], not yet decoded: groups, the last maybe partial
	toff int    // consumed prefix of tail
}

// Feed consumes raw wire bytes. Whole groups whose head reads fragmented
// join the raw tail, as do groups behind a tail that already holds some;
// anything else is decoded here, straight out of raw and a block at a
// time, so a long single-taint stream costs one copy and one Run however
// many reads delivered it.
func (d *StreamDecoder) Feed(raw []byte) {
	d.reclaim()
	if p := len(d.tail) % GroupLen; p > 0 { // a split group: finish it first
		k := min(GroupLen-p, len(raw))
		d.tail, raw = append(d.tail, raw[:k]...), raw[k:]
	}
	if len(d.tail) <= GroupLen && !fragmented(raw[:WireLen(DataLen(len(raw)))]) {
		d.materialise()
		raw = raw[d.feedWhole(raw):]
	}
	d.tail = append(d.tail, raw...)
}

// fragmented reports whether the whole groups g read fragmented: runs
// averaging under laneRun bytes over the first laneProbe groups, the ones
// a reader with one label per byte takes raw (Feed, FrameDecoder.Whole).
func fragmented(g []byte) bool {
	const laneRun, laneProbe = 8, 128
	changes := 0
	for o := GroupLen; o < min(len(g), laneProbe*GroupLen); o += GroupLen {
		if GroupID(g[o:]) != GroupID(g[o-GroupLen:]) {
			changes++
		}
	}
	return changes*laneRun >= laneProbe
}

// reclaim moves what is pending to the front of each array, so that a
// consumer that never drains the decoder does not grow them without bound,
// and drops an emptied one whose fill passed 256 KiB. Feed calls it, and a
// pop or skip that empties the decoder: neither writes over a popped run.
func (d *StreamDecoder) reclaim() {
	d.data, d.off = compact(d.data, d.off, 1), 0
	d.runs, d.roff = compact(d.runs, d.roff, 16), 0
	d.tail, d.toff = compact(d.tail, d.toff, 1), 0
}

// compact is reclaim for one array of size-byte elements.
func compact[T any](s []T, off, size int) []T {
	if off == len(s) && off*size > 256<<10 {
		return nil
	} else if off > 0 {
		s = s[:copy(s, s[off:])]
	}
	return s
}

// pushRun appends already-decoded bytes that all carry one Global ID —
// the delivery path of the raw-body frame tiers, which ship data plus
// out-of-band labels instead of groups. Must not be called while a
// partial group is buffered: the framing layer guarantees group bodies
// end on group boundaries.
func (d *StreamDecoder) pushRun(b []byte, id uint32) {
	if len(b) == 0 {
		return
	}
	d.reclaim()
	d.materialise()
	d.data = append(d.data, b...)
	if n := len(d.runs); n > 0 && d.runs[n-1].ID == id {
		d.runs[n-1].N += len(b)
	} else {
		d.runs = append(d.runs, Run{N: len(b), ID: id})
	}
}

// materialise decodes the whole groups of the tail. Inlined (`make
// inline-check`): an empty tail, every clean read's, costs one compare.
func (d *StreamDecoder) materialise() {
	if d.toff < len(d.tail) {
		d.toff += d.feedWhole(d.tail[d.toff:])
	}
}

// feedWhole decodes the whole groups of raw and returns their length in
// wire bytes, detecting constant-id stretches with one 4-byte load per
// group and no per-byte id storage. The current run is accumulated in
// locals and flushed only on an id change, so a uniform stream costs
// one append however long it is and a fully fragmented one costs one
// append per group, not two loads.
func (d *StreamDecoder) feedWhole(raw []byte) int {
	raw = raw[:WireLen(DataLen(len(raw)))]
	if len(raw) == 0 {
		return 0
	}
	base := len(d.data)
	n := len(raw) / GroupLen
	d.data = slices.Grow(d.data, n)[:base+n]
	curID, curN := GroupID(raw), 0
	if m := len(d.runs); m > d.roff {
		curID, curN = d.runs[m-1].ID, d.runs[m-1].N
		d.runs = d.runs[:m-1]
	}
	k := base
	var c0, c1, c2, c3, c4 uint64
	lanesID, lanesOK := uint32(0), false
	i := 0
	for i < len(raw) {
		// Block fast path: once eight consecutive groups carried curID
		// the stream is in a run, so decode whole blocks until the
		// masked id-lane compare sees a different id.
		if curN >= blockGroups && i+blockBytes <= len(raw) {
			if !lanesOK || lanesID != curID {
				c0, c1, c2, c3, c4 = blockLanes(curID)
				lanesID, lanesOK = curID, true
			}
			for i+blockBytes <= len(raw) {
				blk := raw[i : i+blockBytes]
				w0 := binary.LittleEndian.Uint64(blk[0:])
				w1 := binary.LittleEndian.Uint64(blk[8:])
				w2 := binary.LittleEndian.Uint64(blk[16:])
				w3 := binary.LittleEndian.Uint64(blk[24:])
				w4 := binary.LittleEndian.Uint64(blk[32:])
				if w0&^laneM0 != c0 || w1&^laneM1 != c1 || w2&^laneM2 != c2 ||
					w3&^laneM3 != c3 || w4&^laneM4 != c4 {
					break
				}
				d8 := w0&0xff | (w0>>40&0xff)<<8 | (w1>>16&0xff)<<16 | (w1>>56&0xff)<<24 |
					(w2>>32&0xff)<<32 | (w3>>8&0xff)<<40 | (w3>>48&0xff)<<48 | (w4>>24&0xff)<<56
				binary.LittleEndian.PutUint64(d.data[k:], d8)
				k += blockGroups
				curN += blockGroups
				i += blockBytes
			}
			if i >= len(raw) {
				break
			}
		}
		d.data[k] = raw[i]
		k++
		id := binary.BigEndian.Uint32(raw[i+1 : i+GroupLen])
		i += GroupLen
		if id == curID {
			curN++
			continue
		}
		d.runs = append(d.runs, Run{N: curN, ID: curID})
		curID, curN = id, 1
	}
	d.runs = append(d.runs, Run{N: curN, ID: curID})
	return len(raw)
}

// Buffered returns how many data bytes are ready, decoded or not.
func (d *StreamDecoder) Buffered() int {
	if d.toff == len(d.tail) { // nothing raw: spare every clean read the division
		return len(d.data) - d.off
	}
	return len(d.data) - d.off + DataLen(len(d.tail)-d.toff)
}

// PendingPartial reports whether a fraction of a group is buffered.
func (d *StreamDecoder) PendingPartial() bool { return (len(d.tail)-d.toff)%GroupLen > 0 }

// PeekGroups returns the next pending bytes, up to max of them, as the
// wire carried them — GroupLen bytes a group — while they are still in
// that form with nothing decoded pending ahead of them, and nil when
// they are not. It consumes and decodes nothing: the reader takes data
// and ids out of the groups itself (GroupID) and pops them with
// SkipGroups, or leaves them to the run consumers. The slice aliases
// decoder state and is valid until the next pop or Feed.
func (d *StreamDecoder) PeekGroups(max int) []byte {
	if d.off < len(d.data) {
		return nil
	}
	end := d.toff + WireLen(min(max, DataLen(len(d.tail)-d.toff)))
	return d.tail[d.toff:end:end]
}

// SkipGroups pops the first n groups PeekGroups showed.
func (d *StreamDecoder) SkipGroups(n int) {
	if d.toff += n * GroupLen; d.off == len(d.data) && d.toff == len(d.tail) {
		d.reclaim()
	}
}

// GroupID returns the Global ID of the group at g[:GroupLen]: the per-byte
// primitive of a reader striding a PeekGroups body, inlined (`make inline-check`).
func GroupID(g []byte) uint32 { return binary.BigEndian.Uint32(g[1:GroupLen]) }

// PeekRuns reports what a pop of up to max bytes would deliver, without
// consuming anything: n bytes, under runs. runs is the shortest pending
// prefix covering n bytes, so its last run may reach past n — clip it
// there. The slice aliases decoder state and is valid until the next
// pop or Feed; with PopInto it lets a reader finish everything that can
// fail (resolving the ids) before the bytes leave the decoder.
func (d *StreamDecoder) PeekRuns(max int) (n int, runs []Run) {
	d.materialise()
	n, k, _ := d.peek(max)
	return n, d.runs[d.roff : d.roff+k : d.roff+k]
}

// peek sizes a pop of up to max decoded bytes: n bytes spanning the
// first k pending runs, the last of which reaches over bytes past the
// pop. Every run consumer materialises the tail first and then starts
// here (a call apart, so that this stays small enough to inline).
func (d *StreamDecoder) peek(max int) (n, k, over int) {
	n = min(max, len(d.data)-d.off)
	rem := n
	for rem > 0 {
		rem -= d.runs[d.roff+k].N
		k++
	}
	return n, k, -rem
}

// pop copies a pop sized by peek into dst and drops it from the
// pending state. A split run's unread tail stays pending in its own
// slot, which no earlier pop can have returned.
func (d *StreamDecoder) pop(dst []byte, n, k, over int) {
	copy(dst, d.data[d.off:d.off+n])
	d.off += n
	d.roff += k
	if over > 0 {
		d.roff--
		d.runs[d.roff].N = over
	} else if d.off == len(d.data) && d.toff == len(d.tail) {
		d.reclaim()
	}
}

// PopInto pops up to len(dst) decoded bytes into dst and returns the
// count: NextRunsInto for a caller that took the runs from PeekRuns.
func (d *StreamDecoder) PopInto(dst []byte) int {
	d.materialise()
	n, k, over := d.peek(len(dst))
	d.pop(dst, n, k, over)
	return n
}

// NextRunsInto pops up to len(dst) decoded bytes directly into dst,
// returning the count and the taint runs. The runs alias the decoder's
// array, which is not written again before the next Feed; only a pop
// that splits a run returns a clipped copy.
func (d *StreamDecoder) NextRunsInto(dst []byte) (int, []Run) {
	d.materialise()
	n, k, over := d.peek(len(dst))
	runs := d.runs[d.roff : d.roff+k : d.roff+k]
	if over > 0 {
		runs = append([]Run(nil), runs...)
		runs[k-1].N -= over
	}
	d.pop(dst, n, k, over)
	return n, runs
}

// NextRuns is NextRunsInto into a fresh slice of up to max bytes.
func (d *StreamDecoder) NextRuns(max int) (data []byte, runs []Run) {
	data = make([]byte, min(max, d.Buffered()))
	_, runs = d.NextRunsInto(data)
	return data, runs
}

// Next pops up to max decoded bytes with their per-byte ids.
func (d *StreamDecoder) Next(max int) (data []byte, ids []uint32) {
	data, runs := d.NextRuns(max)
	return data, ExpandRuns(runs)
}
