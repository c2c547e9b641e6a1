package instrument

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/jni"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// ErrNoTaintMap is returned when a dista-mode agent has no Taint Map
// client configured: inter-node tracking cannot proceed without one.
var ErrNoTaintMap = errors.New("instrument: dista mode requires a Taint Map client")

// Endpoint is the taint-aware wrapper around one stream connection. It
// is the runtime object behind the Type 1 wrappers (socketWrite0 /
// socketRead0, Fig. 6) and is reused by the Type 3 dispatcher wrappers,
// since NIO socket channels carry the same continuous group stream.
//
// Exactly one Endpoint must wrap each connection end: it owns the
// stream decoder state that reassembles 5-byte groups across
// arbitrarily fragmented reads.
type Endpoint struct {
	agent    *tracker.Agent
	conn     *netsim.Conn
	legacy   bool // write the pre-framing raw group stream
	adaptive bool // negotiate the DTF2 tiered format (uniform/sparse frames)

	wmu        sync.Mutex        // serializes writes so frames never interleave
	wroteMagic bool              // stream magic already emitted on this conn
	wscratch   []byte            // persistent frame-header/magic assembly scratch
	tier       densityTracker    // per-connection tier selector (under wmu)
	dranges    []wire.DirtyRange // persistent sparse range-table scratch

	rmu sync.Mutex // protects rd
	rd  streamReader
}

// NewEndpoint wraps conn for the given agent.
func NewEndpoint(agent *tracker.Agent, conn *netsim.Conn) *Endpoint {
	return &Endpoint{agent: agent, conn: conn}
}

// NewLegacyEndpoint wraps conn like NewEndpoint but writes the
// pre-framing raw group stream for peers that predate the framed codec.
// Reads auto-detect either format, so a legacy endpoint can receive
// from a framed peer. The clean-path bypass is off: every write pays
// the full group encoding (benchmarks use this as the always-encode
// baseline).
func NewLegacyEndpoint(agent *tracker.Agent, conn *netsim.Conn) *Endpoint {
	return &Endpoint{agent: agent, conn: conn, legacy: true}
}

// NewAdaptiveEndpoint wraps conn like NewEndpoint but negotiates the
// DTF2 tiered stream format: writes are classified by the taint-density
// tracker and travel as passthrough, uniform, sparse, or groups frames
// (DESIGN.md §9). Both ends must be adaptive — the DTF2 magic is what
// tells the peer the new tags may appear, so a plain NewEndpoint never
// emits them and old decoders never see them. Reads auto-detect every
// format, so an adaptive endpoint can receive from framed and legacy
// peers alike.
func NewAdaptiveEndpoint(agent *tracker.Agent, conn *netsim.Conn) *Endpoint {
	return &Endpoint{agent: agent, conn: conn, adaptive: true}
}

// Conn exposes the wrapped connection (for close/addr operations).
func (e *Endpoint) Conn() *netsim.Conn { return e.conn }

// Agent returns the endpoint's agent.
func (e *Endpoint) Agent() *tracker.Agent { return e.agent }

// firstSeen numbers the distinct keys of one transfer — the taints of a
// send still lacking a Global ID, the Global IDs of a delivery — in
// first-seen order. A handful are found by scanning; a transfer with
// more gets a map, so one with many distinct labels stays linear in its
// runs.
type firstSeen[K comparable] struct {
	keys []K
	at   map[K]int
}

// scanMax is the most keys firstSeen finds by linear scan.
const scanMax = 8

// find returns k's position in keys, or -1.
func (x *firstSeen[K]) find(k K) int {
	if x.at != nil {
		if i, ok := x.at[k]; ok {
			return i
		}
		return -1
	}
	for i, known := range x.keys {
		if known == k {
			return i
		}
	}
	return -1
}

// add appends k, which find has not found.
func (x *firstSeen[K]) add(k K) {
	if x.keys == nil {
		x.keys = make([]K, 0, scanMax)
	}
	if x.at == nil && len(x.keys) == scanMax {
		x.at = make(map[K]int, 4*scanMax)
		for i, known := range x.keys {
			x.at[known] = i
		}
	}
	if x.at != nil {
		x.at[k] = len(x.keys)
	}
	x.keys = append(x.keys, k)
}

// appendGroups appends the group encoding of b to out and returns the
// extended slice — the one groups writer, behind every send that puts
// labels on the wire a byte at a time (Fig. 9 steps ①②). It walks b's
// label runs once and encodes each straight into out: a taint this node
// has transferred before carries its Global ID on the tree node, so the
// steady state builds no run, id or taint slice at all. A walk that
// meets taints without an id stops encoding and only collects them; one
// batch registration covers them and the walk is redone. A caller whose
// out must not move gives it room for the encoding plus wire.EncodeSlack.
//
// A dense store already holds what the groups tier ships, one label per
// byte, so it skips the runs: encodeDense goes from the store's array
// to groups directly. Whether that lane runs is the store's business
// alone (taint.Bytes.DenseLabels), and an input it gives up on takes
// the walk below from the top, with nothing appended.
func appendGroups(agent *tracker.Agent, out []byte, b taint.Bytes) ([]byte, error) {
	tm := agent.TaintMap()
	if tm == nil && !b.Clean() {
		return nil, ErrNoTaintMap
	}
	start := len(out)
	end := start + wire.WireLen(len(b.Data))
	out = slices.Grow(out, end-start+wire.EncodeSlack)
	if labels := b.DenseLabels(); labels != nil &&
		encodeDense(out[start:end+wire.EncodeSlack], b.Data, labels) {
		return out[:end], nil
	}
	var pending firstSeen[taint.Taint] // taints met without a Global ID
	var ids []uint32                   // their ids, once registered
	for {
		stalled := false
		b.ForEachRun(func(from, to int, t taint.Taint) {
			id := t.GlobalID()
			switch {
			case id != 0 || t.Empty():
			case ids == nil:
				stalled = true
				if pending.find(t) < 0 {
					pending.add(t)
				}
				return
			default:
				// A client that does not stamp what it registers (the
				// uncached ablation): the id is the batch's answer.
				id = ids[pending.find(t)]
			}
			if !stalled {
				out = wire.AppendRun(out, b.Data[from:to], id)
			}
		})
		if !stalled {
			return out, nil
		}
		var err error
		if ids, err = tm.RegisterBatch(pending.keys); err != nil {
			return nil, err
		}
		for _, id := range ids {
			// A provisional id is only valid inside this node: a degraded
			// Taint Map client minted it locally, and the receiving node
			// could never resolve it. Refuse the transfer loudly — the
			// taint itself stays tracked and will get its real Global ID
			// when the client's journal drains.
			if taintmap.IsProvisional(id) {
				return nil, fmt.Errorf("instrument: cannot transfer taint: %w",
					taintmap.ErrGlobalIDPending)
			}
		}
		out = out[:start]
	}
}

// encodeDense writes the groups of data, byte i under labels[i], at
// dst[0:] — the send lane of a dense store: label, id word, one 8-byte
// store per byte, no call in between. The last two distinct labels keep
// their id words, so the Global ID is read off a tree node only where
// the label changes to a third. dst reaches wire.EncodeSlack past the
// last group. It reports false, leaving dst scratch, on meeting a taint
// without a Global ID: registering is the run walk's job (a provisional
// id is never stamped on a node, so a taint that has only one reads as
// unregistered here and is refused there).
func encodeDense(dst, data []byte, labels []taint.Taint) bool {
	data = data[:len(labels)]
	var t0, t1 taint.Taint // the zero Taint's id word is zero: the caches start out true
	var w0, w1 uint64
	w := 0
	for i, t := range labels {
		if t != t0 {
			if t == t1 {
				t0, w0, t1, w1 = t1, w1, t0, w0
			} else {
				id := t.GlobalID()
				if id == 0 && !t.Empty() {
					return false
				}
				t0, w0, t1, w1 = t, wire.GroupWord(id), t0, w0
			}
		}
		wire.PutGroup(dst[w:], w0, data[i])
		w += wire.GroupLen
	}
	return true
}

// appendGroupsFrame appends one whole groups frame for b: the frame
// header, then the groups writer's encoding.
func appendGroupsFrame(agent *tracker.Agent, out []byte, b taint.Bytes) ([]byte, error) {
	out = wire.AppendFrameHeader(out, wire.FrameGroups, wire.WireLen(len(b.Data)))
	return appendGroups(agent, out, b)
}

// registerOne maps one taint to its Global ID via the Taint Map — the
// uniform-tier flavour of appendGroups: a single label for the whole
// buffer, so the steady state is one pointer load off the tree node.
func registerOne(agent *tracker.Agent, t taint.Taint) (uint32, error) {
	tm := agent.TaintMap()
	if tm == nil {
		return 0, ErrNoTaintMap
	}
	if id := t.GlobalID(); id != 0 {
		return id, nil
	}
	ids, err := tm.RegisterBatch([]taint.Taint{t})
	if err != nil {
		return 0, err
	}
	if taintmap.IsProvisional(ids[0]) {
		// Same contract as appendGroups: a locally minted id must not
		// cross the wire.
		return 0, fmt.Errorf("instrument: cannot transfer taint: %w",
			taintmap.ErrGlobalIDPending)
	}
	return ids[0], nil
}

// registerDirty maps b's tainted runs to wire dirty ranges via the Taint
// Map — the sparse-tier flavour of appendGroups: clean gaps produce no
// entries, so the table length is the dirty-run count, not the run
// count. Ranges are appended to dst (reused across calls).
func registerDirty(agent *tracker.Agent, b taint.Bytes, dst []wire.DirtyRange) ([]wire.DirtyRange, error) {
	tm := agent.TaintMap()
	if tm == nil {
		return nil, ErrNoTaintMap
	}
	var pending []taint.Taint
	var pendingAt []int
	b.ForEachDirtyRun(func(from, to int, t taint.Taint) {
		r := wire.DirtyRange{Off: from, Len: to - from}
		if id := t.GlobalID(); id != 0 {
			r.ID = id
		} else {
			pending = append(pending, t)
			pendingAt = append(pendingAt, len(dst))
		}
		dst = append(dst, r)
	})
	if len(pending) > 0 {
		ids, err := tm.RegisterBatch(pending)
		if err != nil {
			return nil, err
		}
		for i, at := range pendingAt {
			if taintmap.IsProvisional(ids[i]) {
				return nil, fmt.Errorf("instrument: cannot transfer taint: %w",
					taintmap.ErrGlobalIDPending)
			}
			dst[at].ID = ids[i]
		}
	}
	return dst, nil
}

// adoptRuns gives buf[at:at+n] the labels of the decoded runs — the one
// adopt primitive, behind every receive (Fig. 9 steps ④⑤). runs cover
// at least n bytes; what reaches past n is ignored. Each distinct id is
// resolved once: a run repeating one of the last two ids seen costs two
// compares, and the ids left over go to the Taint Map client in a
// single LookupBatch (memo first, then one round trip for the unknown
// ones). Labels are written only after every id resolved, so an error
// leaves buf as it was.
//
// Where buf's store is dense the labels go into its array directly (the
// writer's DenseLabels) — a one-byte run is one pointer store — and
// into a run-mode store through Put; which of the two is again the
// store's representation and nothing else.
//
// Lazy shadow allocation is preserved: an entirely untainted delivery
// into a shadow-free buf allocates nothing, while a buf that already
// has labels gets its stale ones overwritten.
func adoptRuns(agent *tracker.Agent, buf *taint.Bytes, at int, runs []wire.Run, n int) error {
	var x firstSeen[uint32]
	var id0, id1 uint32 // the last two distinct ids seen
	pos, k := 0, 0
	for ; pos < n; k++ {
		id := runs[k].ID
		pos += runs[k].N
		if id == 0 || id == id0 || id == id1 {
			continue
		}
		if x.find(id) < 0 {
			x.add(id)
		}
		id0, id1 = id, id0
	}
	runs = runs[:k]
	if len(x.keys) == 0 {
		// Clean delivery (passthrough frame or untainted groups): no
		// Taint Map round-trip, and a shadow-free buf stays lazy —
		// only stale labels need clearing.
		if buf.HasShadow() {
			buf.SetRange(at, at+n, taint.Taint{})
		}
		return nil
	}
	tm := agent.TaintMap()
	if tm == nil {
		return ErrNoTaintMap
	}
	labels, err := tm.LookupBatch(x.keys)
	if err != nil {
		return err
	}
	w := buf.WriteLabels(at, at+n, len(runs))
	lane := w.DenseLabels()
	var t0, t1 taint.Taint
	id0, id1 = 0, 0
	pos = 0
	for _, r := range runs {
		var t taint.Taint
		switch r.ID {
		case 0:
		case id0:
			t = t0
		case id1:
			t = t1
		default:
			if t = labels[x.find(r.ID)]; t.Empty() {
				t = taint.Taint{} // the canonical empty label, as the lane must store it
			}
			id0, t0, id1, t1 = r.ID, t, id0, t0
		}
		if r.N > n-pos {
			r.N = n - pos
		}
		// A delivery that densified the store is mostly one-byte runs, and
		// the store without the loop around it is measurably the cheaper
		// way to write one: folded into the default arm it costs dense_bulk
		// 8–9 % of overhead_x (CHANGES.md, PR 16).
		switch {
		case lane == nil:
			w.Put(r.N, t)
		case r.N == 1:
			lane[pos] = t
		default:
			seg := lane[pos : pos+r.N]
			for i := range seg {
				seg[i] = t
			}
		}
		pos += r.N
	}
	return nil
}

// Write sends b through the instrumented socketWrite0 wrapper.
//
//   - off:      the original native — raw data only;
//   - phosphor: the original native — the labels are *dropped* at the
//     JNI boundary, exactly the limitation of §II-C;
//   - dista:    each byte is serialized with the Global ID of its taint
//     (Fig. 6 sender side).
func (e *Endpoint) Write(b taint.Bytes) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.agent.Mode() != tracker.ModeDista {
		e.agent.AddTraffic(len(b.Data), len(b.Data))
		return jni.SocketWrite0(e.conn, b.Data)
	}
	if e.legacy {
		return e.writeLegacyLocked(b, jni.SocketWrite0)
	}
	if len(b.Data) == 0 {
		// Nothing to frame; still touch the native so conn-level
		// semantics (faults, delays) match the uninstrumented call.
		return jni.SocketWrite0(e.conn, nil)
	}
	if b.Clean() {
		if e.adaptive {
			e.tier.observeClean(len(b.Data))
		}
		return e.writePassthroughLocked(b.Data)
	}
	if e.adaptive {
		return e.writeAdaptiveLocked(b, jni.SocketWrite0)
	}
	return e.writeGroupsLocked(b, jni.SocketWrite0)
}

// writeLegacyLocked sends b as the pre-framing raw group stream: no
// magic, no frame header, clean buffers group-encoded like any other.
func (e *Endpoint) writeLegacyLocked(b taint.Bytes, write func(*netsim.Conn, []byte) error) error {
	raw, err := appendGroups(e.agent, nil, b)
	if err != nil {
		return err
	}
	e.agent.AddTraffic(len(b.Data), len(raw))
	return write(e.conn, raw)
}

// writeAdaptiveLocked emits one frame for a tainted buffer on whichever
// tier the density tracker picks: uniform and sparse frames keep the
// passthrough shape (metadata in the persistent scratch, payload
// written zero-copy), groups fall back to the full encode. Caller holds
// wmu and has ruled out the clean case.
func (e *Endpoint) writeAdaptiveLocked(b taint.Bytes, write func(*netsim.Conn, []byte) error) error {
	st, exact := b.Stats(tierScanLimit)
	e.tier.observe(st, len(b.Data), exact)
	switch e.tier.frameTier(st, len(b.Data), exact) {
	case tierUniform:
		id, err := registerOne(e.agent, st.One)
		if err != nil {
			return err
		}
		return e.writeUniformLocked(b.Data, id, write)
	case tierSparse:
		ranges, err := registerDirty(e.agent, b, e.dranges[:0])
		if err != nil {
			return err
		}
		e.dranges = ranges[:0]
		return e.writeSparseLocked(b.Data, ranges, write)
	default:
		return e.writeGroupsLocked(b, write)
	}
}

// writePassthroughLocked emits one passthrough frame for data — the
// clean-path send: no label encoding, no copy of the payload, zero
// allocations once the header scratch has warmed up. Caller holds wmu
// and has verified the bytes are untainted.
func (e *Endpoint) writePassthroughLocked(data []byte) error {
	hdr := e.frameHeaderLocked(wire.FramePassthrough, len(data))
	e.agent.AddTraffic(len(data), len(hdr)+len(data))
	if err := jni.SocketWrite0(e.conn, hdr); err != nil {
		return err
	}
	return jni.SocketWrite0(e.conn, data)
}

// writeGroupsLocked emits one groups frame for b, streaming its label
// runs into a pooled buffer. write is the underlying native
// (SocketWrite0 for Type 1, the dispatcher adapter for Type 3).
func (e *Endpoint) writeGroupsLocked(b taint.Bytes, write func(*netsim.Conn, []byte) error) error {
	pre := 0
	if !e.wroteMagic {
		pre = wire.StreamMagicLen
	}
	buf := wire.GetBuf(pre + wire.GroupsFrameLen(len(b.Data)) + wire.EncodeSlack)
	defer wire.PutBuf(buf)
	out := *buf
	if !e.wroteMagic {
		out = e.appendMagic(out)
	}
	out, err := appendGroupsFrame(e.agent, out, b)
	if err != nil {
		return err
	}
	e.agent.AddTraffic(len(b.Data), len(out))
	if err := write(e.conn, out); err != nil {
		return err
	}
	e.wroteMagic = true
	return nil
}

// frameHeaderLocked assembles the stream magic (first framed write on
// this conn only) plus one frame header in the endpoint's persistent
// write scratch, marking the magic as sent.
func (e *Endpoint) frameHeaderLocked(tag byte, n int) []byte {
	hdr := e.wscratch[:0]
	if !e.wroteMagic {
		hdr = e.appendMagic(hdr)
		e.wroteMagic = true
	}
	hdr = wire.AppendFrameHeader(hdr, tag, n)
	e.wscratch = hdr[:0]
	return hdr
}

// appendMagic appends the stream magic matching the endpoint's
// negotiated format: DTF2 for adaptive endpoints, DTF1 otherwise. The
// caller manages wroteMagic.
func (e *Endpoint) appendMagic(dst []byte) []byte {
	if e.adaptive {
		return wire.AppendAdaptiveStreamMagic(dst)
	}
	return wire.AppendStreamMagic(dst)
}

// writeUniformLocked emits one uniform frame: header plus Global ID in
// the persistent scratch, payload written zero-copy — the passthrough
// cost shape plus four metadata bytes. Caller holds wmu.
func (e *Endpoint) writeUniformLocked(data []byte, id uint32, write func(*netsim.Conn, []byte) error) error {
	hdr := e.wscratch[:0]
	if !e.wroteMagic {
		hdr = e.appendMagic(hdr)
		e.wroteMagic = true
	}
	hdr = wire.AppendUniformHeader(hdr, len(data), id)
	e.wscratch = hdr[:0]
	e.agent.AddTraffic(len(data), len(hdr)+len(data))
	if err := write(e.conn, hdr); err != nil {
		return err
	}
	return write(e.conn, data)
}

// writeSparseLocked emits one sparse frame: header plus range table in
// the persistent scratch, payload written zero-copy. Caller holds wmu
// and guarantees the ranges are sorted, non-overlapping and in-bounds
// (they come from ForEachDirtyRun, which yields them that way).
func (e *Endpoint) writeSparseLocked(data []byte, ranges []wire.DirtyRange, write func(*netsim.Conn, []byte) error) error {
	hdr := e.wscratch[:0]
	if !e.wroteMagic {
		hdr = e.appendMagic(hdr)
		e.wroteMagic = true
	}
	hdr = wire.AppendSparseHeader(hdr, len(data), ranges)
	e.wscratch = hdr[:0]
	e.agent.AddTraffic(len(data), len(hdr)+len(data))
	if err := write(e.conn, hdr); err != nil {
		return err
	}
	return write(e.conn, data)
}

// WritePassthrough sends bytes that are untainted by construction —
// protocol framing, handshakes, padding a wrapper itself built. In
// dista mode it emits a passthrough frame (a legacy endpoint encodes
// untainted groups instead); other modes write the bytes unchanged.
// This is the sanctioned way to put a raw []byte on a tracked
// connection: the shadowdrop analyzer allowlists passthrough helpers
// by name because the bytes never had labels to drop.
func (e *Endpoint) WritePassthrough(data []byte) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.agent.Mode() != tracker.ModeDista {
		e.agent.AddTraffic(len(data), len(data))
		return jni.SocketWrite0(e.conn, data)
	}
	if e.legacy {
		return e.writeLegacyLocked(taint.WrapBytes(data), jni.SocketWrite0)
	}
	if len(data) == 0 {
		return jni.SocketWrite0(e.conn, nil)
	}
	if e.adaptive {
		e.tier.observeClean(len(data))
	}
	return e.writePassthroughLocked(data)
}

// WriteUniform sends bytes that all carry the same single taint — a
// wrapper forwarding one labelled record it assembled itself. This is
// the sanctioned way to put a raw []byte with a label on a tracked
// connection (the fast-path analyzer allowlists uniform helpers by name
// because the label rides alongside): an adaptive endpoint emits one
// uniform frame with zero payload copies, a framed endpoint a groups
// frame, a legacy endpoint the raw group stream. An empty t degrades to
// WritePassthrough. Modes other than dista write the bytes unchanged.
func (e *Endpoint) WriteUniform(data []byte, t taint.Taint) error {
	if t.Empty() {
		return e.WritePassthrough(data)
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.agent.Mode() != tracker.ModeDista {
		e.agent.AddTraffic(len(data), len(data))
		return jni.SocketWrite0(e.conn, data)
	}
	if len(data) == 0 {
		return jni.SocketWrite0(e.conn, nil)
	}
	if e.adaptive {
		st := taint.RunStats{DirtyBytes: len(data), DirtyRuns: 1, One: t}
		e.tier.observe(st, len(data), true)
		if e.tier.frameTier(st, len(data), true) == tierUniform {
			id, err := registerOne(e.agent, t)
			if err != nil {
				return err
			}
			return e.writeUniformLocked(data, id, jni.SocketWrite0)
		}
	}
	// No uniform frame on this stream: the groups writer takes the
	// record as a labelled view.
	b := taint.WrapBytes(data)
	b.SetRange(0, len(data), t)
	if e.legacy {
		return e.writeLegacyLocked(b, jni.SocketWrite0)
	}
	return e.writeGroupsLocked(b, jni.SocketWrite0)
}

// Read fills buf through the instrumented socketRead0 wrapper and
// returns the number of data bytes read.
//
//   - off:      the original native;
//   - phosphor: the original native; received bytes keep whatever taint
//     the caller's buffer already had — the wrong "taint of the
//     parameter" flow of Fig. 4;
//   - dista:    reads the enlarged wire stream, splits data from Global
//     IDs, resolves them through the Taint Map, and labels buf.
func (e *Endpoint) Read(buf *taint.Bytes) (int, error) {
	if len(buf.Data) == 0 {
		return 0, nil
	}
	if e.agent.Mode() != tracker.ModeDista {
		return jni.SocketRead0(e.conn, buf.Data)
	}

	e.rmu.Lock()
	defer e.rmu.Unlock()
	return e.rd.read(e.agent, e.socketRead, buf, 0, len(buf.Data))
}

// socketRead is one raw read of the connection, the streamReader's
// source.
func (e *Endpoint) socketRead(b []byte) (int, error) { return jni.SocketRead0(e.conn, b) }

// streamReader is the receive half of a stream endpoint — the frame
// decoder, its raw-read scratch and the sticky read error — shared by
// the socket and the custom-transport endpoints and guarded by the
// owner's read lock.
type streamReader struct {
	dec  wire.FrameDecoder
	rbuf []byte // persistent raw-read scratch
	err  error  // what the source last failed with, reported once dec is drained
}

// read fills buf[from:to] with decoded bytes and their labels and
// returns the count, calling recv (one native read) while nothing is
// buffered. Labels first, bytes second: a failed lookup leaves buf and
// the decoder untouched, so the same bytes are there for a retry.
func (r *streamReader) read(agent *tracker.Agent, recv func([]byte) (int, error), buf *taint.Bytes, from, to int) (int, error) {
	if err := r.fill(recv, to-from); err != nil {
		return 0, err
	}
	n, runs := r.dec.PeekRuns(to - from)
	if err := adoptRuns(agent, buf, from, runs, n); err != nil {
		return 0, err
	}
	return r.dec.PopInto(buf.Data[from : from+n]), nil
}

// fill reads raw wire bytes until at least one decoded byte is
// buffered (or an error occurs). The receive buffer is enlarged by the
// group factor plus framing overhead, mirroring the paper's
// receiver-side buffer enlargement, and persists across calls so the
// steady-state read path does not allocate it anew.
func (r *streamReader) fill(recv func([]byte) (int, error), want int) error {
	if r.dec.Buffered() > 0 {
		return nil
	}
	if r.err != nil {
		return r.err
	}
	if need := wire.WireLen(want) + wire.StreamMagicLen + wire.FrameHeaderLen; cap(r.rbuf) < need {
		r.rbuf = make([]byte, need)
	}
	raw := r.rbuf[:cap(r.rbuf)]
	for r.dec.Buffered() == 0 {
		n, err := recv(raw)
		if n > 0 {
			if ferr := r.dec.Feed(raw[:n]); ferr != nil {
				r.err = ferr
				return ferr
			}
		}
		if err != nil {
			if err == io.EOF && r.dec.PendingPartial() {
				err = io.ErrUnexpectedEOF
			}
			r.err = err
			if r.dec.Buffered() > 0 {
				return nil
			}
			return err
		}
	}
	return nil
}

// WriteBuffer sends the [from,to) range of a direct buffer — the Type 3
// send path (IOUtil.writeFromNativeBuffer -> dispatcher write0, Fig. 8).
// It returns the number of data bytes consumed.
func (e *Endpoint) WriteBuffer(src *jni.DirectBuffer, from, to int) (int, error) {
	if err := src.CheckRange(from, to); err != nil {
		return 0, err
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	n := to - from
	if e.agent.Mode() != tracker.ModeDista {
		e.agent.AddTraffic(n, n)
		written, err := jni.DispatcherWrite0(e.conn, src.Data[from:to])
		return written, err
	}
	if e.legacy {
		if err := e.writeLegacyLocked(src.View(from, to), dispatcherWriteAll); err != nil {
			return 0, err
		}
		return n, nil
	}
	if n == 0 {
		_, err := jni.DispatcherWrite0(e.conn, nil)
		return 0, err
	}
	if src.Clean(from, to) {
		if e.adaptive {
			e.tier.observeClean(n)
		}
		if err := e.writeBufferPassthroughLocked(src, from, to); err != nil {
			return 0, err
		}
		return n, nil
	}
	if e.adaptive {
		if err := e.writeAdaptiveLocked(src.View(from, to), dispatcherWriteAll); err != nil {
			return 0, err
		}
		return n, nil
	}
	if err := e.writeGroupsLocked(src.View(from, to), dispatcherWriteAll); err != nil {
		return 0, err
	}
	return n, nil
}

// writeBufferPassthroughLocked is writePassthroughLocked over the
// dispatcher native — the Type 3 clean-path send.
func (e *Endpoint) writeBufferPassthroughLocked(src *jni.DirectBuffer, from, to int) error {
	hdr := e.frameHeaderLocked(wire.FramePassthrough, to-from)
	e.agent.AddTraffic(to-from, len(hdr)+to-from)
	if err := dispatcherWriteAll(e.conn, hdr); err != nil {
		return err
	}
	return dispatcherWriteAll(e.conn, src.Data[from:to])
}

// dispatcherWriteAll adapts DispatcherWrite0 to the all-or-error shape
// writeGroupsLocked expects.
func dispatcherWriteAll(c *netsim.Conn, b []byte) error {
	_, err := jni.DispatcherWrite0(c, b)
	return err
}

// ReadBuffer fills the [from,to) range of a direct buffer — the Type 3
// receive path (dispatcher read0 -> IOUtil.readIntoNativeBuffer). It
// returns the number of data bytes read, or io.EOF.
func (e *Endpoint) ReadBuffer(dst *jni.DirectBuffer, from, to int) (int, error) {
	if err := dst.CheckRange(from, to); err != nil {
		return 0, err
	}
	if to == from {
		return 0, nil
	}
	if e.agent.Mode() != tracker.ModeDista {
		// Phosphor's dispatcher wrapper behaves like Fig. 4 too: the
		// buffer's stale shadow is left in place.
		return jni.DispatcherRead0(e.conn, dst.Data[from:to])
	}
	e.rmu.Lock()
	defer e.rmu.Unlock()
	return e.rd.read(e.agent, e.socketRead, &dst.B, from, to)
}
