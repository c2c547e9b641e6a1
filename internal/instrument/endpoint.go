package instrument

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/bits"
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
	agent *tracker.Agent
	conn  *netsim.Conn

	wmu sync.Mutex // serializes writes so frames never interleave
	wr  streamWriter

	rmu sync.Mutex // protects rd
	rd  streamReader
}

// NewAdaptiveEndpoint wraps conn for the given agent. Each write travels
// on the cheapest tier that carries its buffer's labels — passthrough,
// uniform, sparse or groups (DESIGN.md §7); reads decode whatever tier
// the peer chose.
func NewAdaptiveEndpoint(agent *tracker.Agent, conn *netsim.Conn) *Endpoint {
	return &Endpoint{agent: agent, conn: conn}
}

// Conn exposes the wrapped connection (for close/addr operations).
func (e *Endpoint) Conn() *netsim.Conn { return e.conn }

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

// find returns k's position in keys, or -1 (inlined, as add is: `make
// inline-check`).
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

// reset empties x for the next transfer; what it allocated stays with it.
func (x *firstSeen[K]) reset() {
	x.keys = x.keys[:0]
	if len(x.at) > 0 {
		clear(x.at)
	}
}

// index returns k's position in keys, added there first if find does not
// find it.
func (x *firstSeen[K]) index(k K) int {
	i := x.find(k)
	if i < 0 {
		i = len(x.keys)
		x.add(k)
	}
	return i
}

// add appends k, which find has not found.
func (x *firstSeen[K]) add(k K) {
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

// appendGroups appends the groups frame of b — tier t's head, then the
// group encoding of b — to out and returns the extended slice: the one
// groups writer, behind every send that puts labels on the wire a byte
// at a time (Fig. 9 steps ①②). It walks b's label runs once and encodes
// each straight into out: a taint this node has transferred before
// carries its Global ID on the tree node, so the steady state builds no
// run, id or taint slice at all. A walk that meets taints without an id
// stops encoding and only collects them; one batch registration covers
// them and the frame is redone — on a stream (sc) behind the definitions
// of what was registered or scoped, which so cross ahead of the frame
// that first uses the ids. A caller whose out must not move gives it
// room for the frame plus wire.EncodeSlack.
//
// A dense store already holds what the groups tier ships, one label per
// byte, so it skips the runs: encodeDense goes from the store's array
// to groups directly. Whether that lane runs is the store's business
// alone (taint.Bytes.DenseLabels), and an input it gives up on takes
// the walk below from the top, with nothing encoded.
func appendGroups(agent *tracker.Agent, out []byte, b taint.Bytes, t int, sc *streamScope) ([]byte, error) {
	if agent.TaintMap() == nil && !b.Clean() {
		return nil, ErrNoTaintMap
	}
	n, at := len(b.Data), len(out)
	out = wire.AppendHead(slices.Grow(out, wire.GroupsFrameLen(n)+wire.EncodeSlack), t, n, nil)
	start := len(out)
	end := start + wire.WireLen(n)
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
				pending.index(t)
				return
			default:
				// A scoped taint, or a client that does not stamp what it
				// registers (the uncached ablation): the id is the batch's.
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
		if ids, out, err = registerOrScope(agent, pending.keys, sc, out[:at]); err != nil {
			return nil, err
		}
		out = wire.AppendHead(out, t, n, nil)
	}
}

// encodeDense writes the groups of data, byte i under labels[i], at
// dst[0:] — the send lane of a dense store: one 8-byte store per byte at
// i*GroupLen, no call in between. Each label is compared against the last
// two distinct ones, which keep their id words, so the Global ID is read
// off a tree node only where the label changes to a third. dst reaches
// wire.EncodeSlack past the last group. It reports false, leaving dst
// scratch, on meeting a taint without a Global ID: registering is the run
// walk's job (a scoped id is never stamped on a node, so a taint that has
// only one reads as unregistered here and is scoped again there).
func encodeDense(dst, data []byte, labels []taint.Taint) bool {
	data = data[:len(labels)]
	var t0, t1 taint.Taint // the zero Taint's id word is zero: the caches start out true
	var w0, w1 uint64
	for i, t := range labels {
		o := i * wire.GroupLen // PutGroup stores 8 bytes at dst[o:]
		switch t {
		case t0:
			wire.PutGroup(dst[o:o+8], w0, data[i])
		case t1:
			wire.PutGroup(dst[o:o+8], w1, data[i])
		default:
			id := t.GlobalID()
			if id == 0 && !t.Empty() {
				return false
			}
			t0, w0, t1, w1 = t, wire.GroupWord(id), t0, w0
			wire.PutGroup(dst[o:o+8], w0, data[i])
		}
	}
	return true
}

// streamScope numbers the taints a stream defines inline — every taint
// without a Global ID, fresh or while the Taint Map is down: the k-th is
// StreamScopedID(k), k counting for the stream's life (DESIGN.md §5).
// live maps the scoped taints to their k and forgets those registered
// since when it reaches fill. The slices are scratch.
type streamScope struct {
	k, from uint32 // the last k handed out, and the last before this send
	live    map[taint.Taint]uint32
	fill    int
	queue   []taint.Taint
	qblobs  [][]byte
	ids     []uint32
	defIDs  []uint32
	blobs   [][]byte
}

// lastScoped is the last k a stream-scoped id has room for.
const lastScoped = 1<<31 - 1

// find returns t's k on this stream, 0 if it has none.
func (s *streamScope) find(t taint.Taint) uint32 { return s.live[t] }

// add gives t the stream's next scoped id. A full live first drops the
// taints registered since they were scoped, and fills again at twice
// what that leaves.
func (s *streamScope) add(t taint.Taint) uint32 {
	if len(s.live) >= s.fill {
		maps.DeleteFunc(s.live, func(t taint.Taint, _ uint32) bool { return t.GlobalID() != 0 })
		s.fill = max(2*len(s.live), scanMax)
	}
	if s.live == nil {
		s.live = make(map[taint.Taint]uint32)
	}
	s.k++
	s.live[t] = s.k
	return taintmap.StreamScopedID(int(s.k))
}

// rollback forgets the ids handed out since from, whose definitions never
// left: the next send defines those taints again, under the same ids.
func (s *streamScope) rollback() {
	maps.DeleteFunc(s.live, func(_ taint.Taint, k uint32) bool { return k > s.from })
	s.k = s.from
}

// registerOrScope maps ts, the distinct taints a send met without a
// Global ID, to the ids of its frame, and on a stream (sc) appends their
// definitions to defs. A datagram registers them (Fig. 9 ①②), or fails.
// A stream queues them, with their blobs, on its agent (Agent.Defer) and
// defines each once, under its stream-scoped id — or under the Global ID
// the agent registers it under now, as it crosses again; one too large for
// a unit, or past lastScoped, is registered and looked up.
func registerOrScope(agent *tracker.Agent, ts []taint.Taint, sc *streamScope, defs []byte) ([]uint32, []byte, error) {
	if sc == nil {
		ids, err := agent.TaintMap().RegisterBatch(ts)
		return ids, defs, err
	}
	sc.ids, sc.queue, sc.qblobs = sc.ids[:0], sc.queue[:0], sc.qblobs[:0]
	room := lastScoped - sc.k // the new taints that may still be scoped
	for _, t := range ts {
		k := sc.find(t) // until the ids are known, each taint's k
		if sc.ids = append(sc.ids, k); k > sc.from || k == 0 && room == 0 {
			continue // one this send scoped already, or one to register now
		}
		if blob, err := taint.MarshalTaint(t); err == nil && wire.DefinitionHeadLen+len(blob) <= wire.MaxDefinitionsLen {
			sc.queue, sc.qblobs = append(sc.queue, t), append(sc.qblobs, blob)
			if k == 0 {
				room--
			}
		}
	}
	if len(sc.queue) > 0 {
		err := agent.Defer(sc.queue, sc.qblobs)
		if err != nil && !errors.Is(err, taintmap.ErrDegraded) && !errors.Is(err, taintmap.ErrOverloaded) {
			return nil, defs, err
		}
	}
	sc.defIDs, sc.blobs = sc.defIDs[:0], sc.blobs[:0]
	q := 0 // the queue is ts in order, less what it skipped
	for i, t := range ts {
		var blob []byte
		if q < len(sc.queue) && sc.queue[q] == t {
			blob, q = sc.qblobs[q], q+1
		}
		id, k := t.GlobalID(), sc.ids[i]
		if id == 0 && k != 0 {
			sc.ids[i] = taintmap.StreamScopedID(int(k)) // defined on this stream already
			continue
		}
		var err error
		queued := blob != nil
		if !queued {
			blob, err = taint.MarshalTaint(t)
		}
		if err != nil || wire.DefinitionHeadLen+len(blob) > wire.MaxDefinitionsLen || id == 0 && !queued {
			if id == 0 {
				var rerr error
				if id, rerr = agent.TaintMap().Register(t); rerr != nil {
					return nil, defs, fmt.Errorf("instrument: taint of %d bytes neither defined inline nor registered: %v", len(blob), errors.Join(err, rerr))
				}
			}
			sc.ids[i] = id // the receiver looks it up
			continue
		}
		if id == 0 {
			id = sc.add(t)
		}
		sc.ids[i], sc.defIDs, sc.blobs = id, append(sc.defIDs, id), append(sc.blobs, blob)
	}
	clear(sc.queue)
	clear(sc.qblobs)
	from, size := 0, 0
	for i, blob := range sc.blobs {
		if size += wire.DefinitionHeadLen + len(blob); size > wire.MaxDefinitionsLen {
			defs = wire.AppendDefinitions(defs, sc.defIDs[from:i], sc.blobs[from:i])
			from, size = i, wire.DefinitionHeadLen+len(blob)
		}
	}
	return sc.ids, wire.AppendDefinitions(defs, sc.defIDs[from:], sc.blobs[from:]), nil
}

// sendScratch is what coverRuns reuses from one send to the next: the
// taints met without a Global ID and the cover positions waiting on them.
type sendScratch struct {
	pending   firstSeen[taint.Taint]
	pendingAt []int
}

// coverRuns appends to dst the run cover that the metadata of b's frame
// on tier t is made from, every label mapped to its Global ID; a groups
// body labels itself and gets none. The shapes the raw-body tiers admit
// hold a handful of runs: the steady state is one pointer load per run
// off the tree node, and the taints still without an id share one batch
// registration — which on a stream (sc, nil for a datagram) also yields
// their definitions, appended to defs to go ahead of the frame. s is b's
// shape; x is the sender's scratch.
func coverRuns(agent *tracker.Agent, b taint.Bytes, t int, s wire.Shape, x *sendScratch, dst []wire.Run, defs []byte, sc *streamScope) (runs []wire.Run, _ []byte, _ error) {
	if wire.Tiers[t].Groups {
		return dst, defs, nil
	}
	if s.Clean() {
		return append(dst, wire.Run{N: s.N}), defs, nil
	}
	if agent.TaintMap() == nil {
		return nil, nil, ErrNoTaintMap
	}
	x.pending.reset()
	x.pendingAt = x.pendingAt[:0]
	b.ForEachRun(func(from, to int, t taint.Taint) {
		id := t.GlobalID()
		if id == 0 && !t.Empty() {
			// Until the batch answers, the run holds its taint's place in it.
			id = uint32(x.pending.index(t))
			x.pendingAt = append(x.pendingAt, len(dst))
		}
		dst = append(dst, wire.Run{N: to - from, ID: id})
	})
	if len(x.pendingAt) > 0 {
		var ids []uint32
		var err error
		if ids, defs, err = registerOrScope(agent, x.pending.keys, sc, defs); err != nil {
			return nil, nil, err
		}
		for _, at := range x.pendingAt {
			dst[at].ID = ids[dst[at].ID]
		}
	}
	return dst, defs, nil
}

// adoptRuns gives buf[at:at+n] the labels of the decoded runs — the
// adopt primitive of every delivery that is not read per byte. runs
// cover at least n bytes; what reaches past n is ignored. Each distinct
// id is numbered once in r.seen and all are resolved at once (memo
// first, then one round trip for the unknown ones). Labels are written
// only after every id resolved, so an error leaves buf as it was.
func (r *streamReader) adoptRuns(agent *tracker.Agent, buf *taint.Bytes, at int, runs []wire.Run, n int) error {
	r.seen.reset()
	pos, k := 0, 0
	for ; pos < n; k++ {
		if id := runs[k].ID; id != 0 {
			r.seen.index(id)
		}
		pos += runs[k].N
	}
	if len(r.seen.keys) == 0 {
		// Clean delivery (passthrough frame or untainted groups): no
		// Taint Map round-trip.
		clearStale(buf, at, n)
		return nil
	}
	var one [1]taint.Taint
	labels, err := r.resolve(agent, r.seen.keys, one[:])
	if err != nil {
		return err
	}
	w := buf.WriteLabels(at, at+n, k)
	for _, run := range runs[:k] {
		var t taint.Taint
		if run.ID != 0 {
			t = labels[r.seen.find(run.ID)]
		}
		w.Put(min(run.N, n), t)
		n -= run.N
	}
	return nil
}

// clearStale clears the labels buf[at:at+n] held before a clean delivery;
// a shadow-free buf stays lazy. Inlined (`make inline-check`).
func clearStale(buf *taint.Bytes, at, n int) {
	if buf.HasShadow() {
		buf.SetRange(at, at+n, taint.Taint{})
	}
}

// resolve maps the distinct ids of a delivery to their taints through
// the Taint Map client, one id — the common delivery — into one, which
// Lookup fills without a slice; ids the peer has defined inline, through
// resolveScoped.
func (r *streamReader) resolve(agent *tracker.Agent, ids []uint32, one []taint.Taint) (_ []taint.Taint, err error) {
	tm := agent.TaintMap()
	switch {
	case tm == nil:
		return nil, ErrNoTaintMap
	case len(r.scoped) > 0 && slices.ContainsFunc(ids, taintmap.IsStreamScoped):
		return r.resolveScoped(tm, ids, one)
	case len(ids) != 1:
		r.labels, err = tm.LookupInto(r.labels, ids) // the delivery's scratch, grown
		return r.labels, err
	}
	one[0], err = tm.Lookup(ids[0])
	return one, err
}

// resolveScoped is resolve on a stream that has defined taints inline:
// Global IDs go to the Taint Map client in one batch, scoped ones are
// read off r.scoped, and one the stream never defined is refused. A
// delivery of scoped ids alone — a fresh taint's — makes no call, and
// one id goes into one.
func (r *streamReader) resolveScoped(tm taintmap.Client, ids []uint32, one []taint.Taint) (labels []taint.Taint, err error) {
	var global []uint32 // 0 where scoped: no taint to look up
	for i, id := range ids {
		if !taintmap.IsStreamScoped(id) {
			if global == nil {
				global = make([]uint32, len(ids))
			}
			global[i] = id
		}
	}
	switch {
	case global != nil:
		labels, err = tm.LookupInto(nil, global)
	case len(ids) == 1:
		labels = one
	default:
		labels = make([]taint.Taint, len(ids))
	}
	for i, id := range ids {
		if k := uint64(id - taintmap.StreamScopedID(1)); err == nil && taintmap.IsStreamScoped(id) {
			if k >= uint64(len(r.scoped)) {
				return nil, fmt.Errorf("instrument: corrupt stream: scoped id %#x never defined", id)
			}
			labels[i] = r.scoped[k]
		}
	}
	return labels, err
}

// pickTier classifies b and picks the tier of its frame — the one send
// ladder, behind every stream, vectored and datagram send: the first row
// of wire.Tiers that fits b, read off this buffer alone. A connection
// keeps no history to steer it (DESIGN.md §7), so a frame on a stream is
// the datagram of its buffer. The run count stops where no raw-body row
// reaches (wire.ScanLimit).
func pickTier(b taint.Bytes) (int, wire.Shape) {
	s := wire.Shape{N: len(b.Data), Exact: true}
	if !b.Clean() {
		st, exact := b.Stats(wire.ScanLimit())
		s.DirtyBytes, s.DirtyRuns, s.Exact = st.DirtyBytes, st.DirtyRuns, exact
	}
	return wire.PickTier(s), s
}

// appendFrame appends to dst what precedes the raw payload of b's n-byte
// frame on tier t — the frame header and the metadata made from runs
// (coverRuns) — or, where the tier's body is groups, the whole frame
// (appendGroups; Fig. 9 steps ①②), so that dst plus b.Data, or dst
// alone, is the frame. sc is the stream's scope, nil for a datagram.
func appendFrame(agent *tracker.Agent, dst []byte, b taint.Bytes, t, n int, runs []wire.Run, sc *streamScope) ([]byte, error) {
	if wire.Tiers[t].Groups {
		return appendGroups(agent, dst, b, t, sc)
	}
	return wire.AppendHead(dst, t, n, runs), nil
}

// streamWriter is the send half of a stream endpoint — the magic flag,
// the frame-assembly scratch, the stream's scope — shared by the socket
// and the custom-transport endpoints and guarded by the owner's write lock.
type streamWriter struct {
	wroteMagic bool        // stream magic already emitted on this conn
	head       []byte      // persistent header + metadata scratch
	cover      []wire.Run  // persistent run-cover scratch
	x          sendScratch // persistent coverRuns scratch
	scope      streamScope
}

// write sends b as one frame through emit, the transport's way of
// putting a frame's head and its uncopied raw payload (nil when the head
// is the whole frame) on the wire in order. A raw-body frame is sent in
// the clean-path shape on every tier that has one: metadata in the
// persistent scratch, no copy of the payload, zero allocations once the
// scratch has warmed up. A groups frame is encoded into a pooled buffer,
// released by hand: a defer in this function, taken or not, is paid by
// every clean write.
func (w *streamWriter) write(agent *tracker.Agent, b taint.Bytes, emit func(head, payload []byte) error) error {
	n := len(b.Data)
	if n == 0 {
		// Nothing to frame; still touch the native so conn-level
		// semantics (faults, delays) match the uninstrumented call.
		return emit(nil, nil)
	}
	head, payload := w.head[:0], b.Data
	if !w.wroteMagic {
		head = wire.AppendAdaptiveStreamMagic(head)
	}
	var pooled *[]byte
	w.scope.from = w.scope.k // where a refused write rolls back to
	if b.Clean() {
		// The clean path keeps its own short body ahead of the ladder,
		// which would answer the same — the first row of wire.Tiers fits
		// a clean payload, and a passthrough frame is its header — at the
		// cost of its calls on the one path priced against a bare copy:
		// 15-20 ns a frame, which clean_rpc reads as 8 % of overhead_x
		// (CHANGES.md, PR 19). TestStreamFrameIsItsDatagram holds these
		// bytes to the table's.
		head = wire.AppendFrameHeader(head, wire.FramePassthrough, n)
	} else {
		t, s := pickTier(b)
		var runs []wire.Run
		var err error
		if runs, head, err = coverRuns(agent, b, t, s, &w.x, w.cover[:0], head, &w.scope); err != nil {
			w.scope.rollback()
			return err
		}
		w.cover = runs[:0]
		if wire.Tiers[t].Groups {
			pooled = wire.GetBuf(len(head) + wire.GroupsFrameLen(n) + wire.EncodeSlack)
			head, payload = append(*pooled, head...), nil
		}
		if head, err = appendFrame(agent, head, b, t, n, runs, &w.scope); err != nil {
			w.scope.rollback()
			return err // a refused transfer leaves its buffer to the collector
		}
	}
	if payload != nil {
		w.head = head[:0]
	}
	agent.AddTraffic(n, len(head)+len(payload))
	err := emit(head, payload)
	if pooled != nil {
		wire.PutBuf(pooled)
	}
	if err != nil {
		// A native that refused the frame took its definitions with it:
		// the taints this write scoped must be defined again, as a
		// gathering write's are.
		w.scope.rollback()
		return err
	}
	w.wroteMagic = true
	return nil
}

// Write sends b through the instrumented socketWrite0 wrapper.
//
//   - off:      the original native — raw data only;
//   - phosphor: the original native — the labels are *dropped* at the
//     JNI boundary, exactly the limitation of §II-C;
//   - dista:    the bytes cross in one frame with the Global ID of every
//     byte's taint (Fig. 6 sender side).
func (e *Endpoint) Write(b taint.Bytes) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.agent.Mode() != tracker.ModeDista {
		e.agent.AddTraffic(len(b.Data), len(b.Data))
		return jni.SocketWrite0(e.conn, b.Data)
	}
	return e.wr.write(e.agent, b, e.socketEmit)
}

// socketEmit puts a frame on the connection through the Type 1 native.
func (e *Endpoint) socketEmit(head, payload []byte) error {
	if err := jni.SocketWrite0(e.conn, head); err != nil || payload == nil {
		return err
	}
	return e.torn(len(head), jni.SocketWrite0(e.conn, payload))
}

// torn resets the connection when a native write failed after wrote bytes
// of its frames went out: the peer would decode the next write as their rest.
func (e *Endpoint) torn(wrote int, err error) error {
	if err != nil && wrote > 0 {
		e.conn.Reset()
	}
	return err
}

// WritePassthrough sends bytes that are untainted by construction —
// protocol framing, handshakes, padding a wrapper itself built. In
// dista mode they cross as a passthrough frame; other modes write the
// bytes unchanged. This is the sanctioned way to put a raw []byte on a
// tracked connection: the shadowdrop analyzer allowlists passthrough
// helpers by name because the bytes never had labels to drop.
func (e *Endpoint) WritePassthrough(data []byte) error {
	return e.Write(taint.WrapBytes(data))
}

// WriteUniform sends bytes that all carry the same single taint — a
// wrapper forwarding one labelled record it assembled itself. This is
// the sanctioned way to put a raw []byte with a label on a tracked
// connection (the fast-path analyzer allowlists uniform helpers by name
// because the label rides alongside). An empty t degrades to
// WritePassthrough. Modes other than dista write the bytes unchanged.
func (e *Endpoint) WriteUniform(data []byte, t taint.Taint) error {
	b := taint.WrapBytes(data)
	if !t.Empty() {
		b.SetRange(0, len(data), t)
	}
	return e.Write(b)
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
	dec    wire.FrameDecoder
	rbuf   []byte            // persistent raw-read scratch
	seen   firstSeen[uint32] // persistent scratch for the ids of a delivery
	labels []taint.Taint     // persistent scratch for their taints
	scoped []taint.Taint     // the taints the peer defined inline, scoped id k at k-1
	err    error             // what the source last failed with, reported once dec is drained
	// The first two distinct tainted ids adoptGroups resolved last (0: none)
	// and their labels: never stale, as an id names one taint for a stream's
	// life — while k does not wrap; ROADMAP 17's window must clear them there.
	hot  [2]uint32
	hotT [2]taint.Taint
}

// read fills buf[from:to] with pending bytes and their labels and
// returns the count — the one receive primitive, behind every stream
// read and every datagram (Fig. 9 steps ④⑤) — making native reads through
// recv (nil for a datagram, fed whole) while nothing is buffered, a large
// one into borrowed scratch; a whole passthrough frame is copied out of
// the read buffer, a whole groups frame adopted there (FrameDecoder.Whole,
// feed). Labels first, bytes second: a failed lookup leaves buf untouched
// and the bytes in the decoder, so the same bytes are there for a retry.
// A groups body still raw at the head of the stream is offered to
// adoptGroups; what that turns down, and all else, goes through the
// decoder's runs.
func (r *streamReader) read(agent *tracker.Agent, recv func([]byte) (int, error), buf *taint.Bytes, from, to int) (int, error) {
	for recv != nil && r.dec.Buffered() == 0 {
		if rawLen(to-from) > borrowAbove && r.err == nil {
			if n, err := r.borrowed(agent, recv, buf, from, to); n > 0 || err != nil {
				return n, err
			}
			continue
		}
		raw, err := r.native(recv, to-from)
		if p := r.dec.Whole(raw, to-from); p != nil && raw[0] == wire.FramePassthrough {
			r.err = err // reported by the next read
			clearStale(buf, from, len(p))
			return copy(buf.Data[from:to], p), nil
		} else if n, err := r.feed(agent, buf, from, raw, p, err); n > 0 || err != nil {
			return n, err
		}
	}
	if r.dec.Defines() {
		if err := r.learn(agent); err != nil {
			return 0, err
		}
	}
	if g := r.dec.PeekGroups(to - from); len(g) > 0 {
		if took, err := r.adoptGroups(agent, buf, from, g); took > 0 || err != nil {
			r.dec.SkipGroups(took)
			return took, err
		}
	}
	n, runs := r.dec.PeekRuns(to - from)
	if err := r.adoptRuns(agent, buf, from, runs, n); err != nil {
		return 0, err
	}
	return r.dec.PopInto(buf.Data[from : from+n]), nil
}

// learn gives the node's Taint Map client the Global IDs the stream has
// defined, ahead of the labels that use them, and keeps the scoped ones,
// decoded into the node's tree, in r.scoped alone: they name taints of
// this stream. They come in order, k after k-1; a skipped or redefined
// one, like any refusal, fails this read and every later one.
func (r *streamReader) learn(agent *tracker.Agent) error {
	ids, blobs := r.dec.Definitions()
	g := 0 // the Global IDs move to the front, the scoped ones into r.scoped
	for i, id := range ids {
		if !taintmap.IsStreamScoped(id) {
			ids[g], blobs[g] = id, blobs[i]
			g++
			continue
		}
		t, err := agent.Tree().UnmarshalTaint(blobs[i])
		if err != nil || t.Empty() || id != taintmap.StreamScopedID(len(r.scoped)+1) {
			return fmt.Errorf("instrument: corrupt definitions unit: scoped id %#x after %d (%v)", id, len(r.scoped), err)
		}
		r.scoped = append(r.scoped, t)
	}
	if tm := agent.TaintMap(); tm != nil {
		if err := tm.Learn(ids[:g], blobs[:g]); err != nil {
			return fmt.Errorf("instrument: corrupt definitions unit: %w", err)
		}
	}
	r.dec.DropDefinitions()
	return nil
}

// native makes one read through recv, unless its source failed before,
// into the raw-read scratch: persistent, at most borrowAbove (a larger
// read is borrowed's), and enlarged by the group factor plus framing
// overhead as the paper's receiver enlarges its buffer.
func (r *streamReader) native(recv func([]byte) (int, error), want int) ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	if need := rawLen(want); cap(r.rbuf) < need {
		r.rbuf = make([]byte, need)
	}
	n, err := recv(r.rbuf[:cap(r.rbuf)])
	return r.rbuf[:n], err
}

// feed takes a read and what it failed with: p, the body of raw when raw
// is a whole groups frame (FrameDecoder.Whole), is adopted where it lies,
// buf from at on; the rest, and what adoptGroups turns down or leaves
// unresolved, goes to the decoder, where a retry finds it. A decode error,
// or the read's once nothing decoded is buffered, is returned and sticks.
func (r *streamReader) feed(agent *tracker.Agent, buf *taint.Bytes, at int, raw, p []byte, err error) (n int, aerr error) {
	if p != nil {
		if n, aerr = r.adoptGroups(agent, buf, at, p); n == len(p)/wire.GroupLen {
			r.err = err // reported by the next read
			return n, nil
		}
	}
	if ferr := r.dec.Feed(raw); ferr != nil {
		r.err = ferr
		return 0, ferr
	}
	r.dec.SkipGroups(n) // what adoptGroups delivered before a failed lookup; Feed kept p's groups raw
	if err == io.EOF && r.dec.PendingPartial() {
		err = io.ErrUnexpectedEOF
	}
	if r.err = err; err == nil || r.dec.Buffered() > 0 {
		return n, aerr
	}
	return 0, err
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
	if e.agent.Mode() != tracker.ModeDista {
		e.agent.AddTraffic(to-from, to-from)
		return jni.DispatcherWrite0(e.conn, src.Data[from:to])
	}
	if err := e.wr.write(e.agent, src.View(from, to), e.dispatcherEmit); err != nil {
		return 0, err
	}
	return to - from, nil
}

// dispatcherEmit puts a frame on the connection through the Type 3
// native.
func (e *Endpoint) dispatcherEmit(head, payload []byte) error {
	if n, err := jni.DispatcherWrite0(e.conn, head); err != nil || payload == nil {
		return e.torn(n, err)
	}
	_, err := jni.DispatcherWrite0(e.conn, payload)
	return e.torn(len(head), err)
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

// adoptGroups is the receive lane of fragmented groups: it gives buf,
// from at on, the bytes and labels of the whole groups g — kept raw by
// the decoder because they arrived fragmented, or a whole frame's body in
// the read buffer — and returns their count, or, for clean groups, writes
// nothing and returns 0 for the run path to take over. Pass 1 strides the
// ids, one 5-byte window a group: one compare inside a run, two under the
// id before last, each distinct id numbered once in r.seen (a call, off
// the loop's registers), the runs counted. The ids are resolved at once
// and the run count lets buf's store pick its representation as for any
// delivery (taint.Bytes.WriteLabels); where that is dense, pass 2 writes
// each byte and its label straight from its group, the labels of the last
// two distinct ids at hand; where it is not, putRuns puts the resolved
// labels run by run, as the run path would, without resolving them again.
// Both passes compare ids raw, as their bytes read little endian, and
// byte-swap one only to number or resolve it. An error leaves buf as it
// was.
//
// A window already dense whose delivery opens with r.hot's ids (warm)
// skips pass 1 and the lookup. A third id there hands the rest to the two
// passes; if its lookup fails, the delivery ends short before it.
//
// It sits last in the file on a measurement: between coverRuns and
// adoptRuns, where it reads best, it moves every function of the clean
// path and clean_rpc reads 1–3 % worse with the same machine code in
// them (CHANGES.md, PR 20).
func (r *streamReader) adoptGroups(agent *tracker.Agent, buf *taint.Bytes, at int, g []byte) (int, error) {
	n := len(g) / wire.GroupLen
	r.seen.reset()
	labels, runs := r.hotT[:], n // one pass: the window is dense whatever runs says
	if buf.DenseLabels() != nil && r.warm(g) {
		r.seen.add(r.hot[0])
		r.seen.add(r.hot[1])
	} else {
		w0, w1 := binary.LittleEndian.Uint32(g[1:wire.GroupLen]), uint32(0) // the last two distinct raw ids seen
		if w0 != 0 {
			r.seen.index(bits.ReverseBytes32(w0))
		}
		runs = 1
		for rest := g[wire.GroupLen:]; len(rest) >= wire.GroupLen; rest = rest[wire.GroupLen:] {
			w := binary.LittleEndian.Uint32(rest[1:wire.GroupLen])
			if w == w0 {
				continue
			}
			runs++
			if w != w1 && w != 0 {
				r.seen.index(bits.ReverseBytes32(w))
			}
			w0, w1 = w, w0
		}
		if len(r.seen.keys) == 0 {
			return 0, nil // clean: the run path's to say
		}
		var one [1]taint.Taint
		var err error
		if labels, err = r.resolve(agent, r.seen.keys, one[:]); err != nil {
			return 0, err
		}
		r.hot, r.hotT = [2]uint32{}, [2]taint.Taint{}
		copy(r.hot[:], r.seen.keys)
		copy(r.hotT[:], labels)
	}
	w := buf.WriteLabels(at, at+n, runs)
	lane := w.DenseLabels()
	if lane == nil {
		return r.putRuns(&w, buf.Data[at:at+n], g, labels), nil
	}
	if i := r.putDense(buf.Data[at:at+n], lane, g, labels); i < n { // one pass met a third id
		m, _ := r.adoptGroups(agent, buf, at+i, g[i*wire.GroupLen:]) // 0 if its lookup fails
		return i + m, nil
	}
	return n, nil
}

// putDense is adoptGroups' pass 2, into a dense window; it stops at an id
// r.seen does not number and returns the count written.
func (r *streamReader) putDense(dst []byte, lane []taint.Taint, g []byte, labels []taint.Taint) int {
	var t0, t1 taint.Taint // the labels of raw ids w0 and w1; the zero id's is the zero Taint
	var w0, w1 uint32
	lane = lane[:len(dst)]
	for i := 0; i < len(lane) && len(g) >= wire.GroupLen; i++ {
		grp := g[:wire.GroupLen]
		g = g[wire.GroupLen:]
		switch w := binary.LittleEndian.Uint32(grp[1:]); w {
		case w0:
			lane[i] = t0
		case w1:
			lane[i] = t1
		default: // a third id takes the older one's place
			t0, w0, t1, w1 = taint.Taint{}, w, t0, w0
			if w != 0 {
				k := r.seen.find(bits.ReverseBytes32(w))
				if k < 0 {
					return i
				}
				t0 = labels[k]
			}
			lane[i] = t0
		}
		dst[i] = grp[0]
	}
	return len(dst)
}

// warm reports whether the first two distinct tainted ids of groups g —
// the one, if g has no second — are r.hot's: adoptGroups' look-ahead.
func (r *streamReader) warm(g []byte) bool {
	first := uint32(0)
	for ; len(g) >= wire.GroupLen; g = g[wire.GroupLen:] {
		switch w := wire.GroupID(g); {
		case w == 0 || w == first:
		case w != r.hot[0] && w != r.hot[1]:
			return false
		case first != 0:
			return true
		default:
			first = w
		}
	}
	return first != 0
}

// putRuns gives the bytes of groups g to dst and their labels, resolved
// at r.seen's positions, to w a run at a time — adoptGroups' delivery
// into a window that stays in run mode — and returns the byte count.
func (r *streamReader) putRuns(w *taint.LabelWriter, dst, g []byte, labels []taint.Taint) int {
	dst = dst[:len(g)/wire.GroupLen]
	for i := range dst {
		dst[i] = g[i*wire.GroupLen]
	}
	for i := 0; i < len(dst); {
		id := binary.LittleEndian.Uint32(g[i*wire.GroupLen+1:])
		j := i + 1
		for j < len(dst) && binary.LittleEndian.Uint32(g[j*wire.GroupLen+1:]) == id {
			j++
		}
		var t taint.Taint
		if id != 0 {
			t = labels[r.seen.find(bits.ReverseBytes32(id))]
		}
		w.Put(j-i, t)
		i = j
	}
	return len(dst)
}

// borrowAbove is the raw scratch, in bytes, past which a read borrows it
// rather than keep it: reads over ~13 KiB, the paper's fresh 32–64 KiB
// transfers among them. Not 0: pooling every small read cost clean_rpc
// more than the allocation saves (1.30 → 1.38×), and allocates under
// -race, whose sync.Pool drops one Put in four.
const borrowAbove = 64 << 10

// rawLen is the raw scratch a read of want data bytes asks for.
func rawLen(want int) int { return wire.WireLen(want) + wire.StreamMagicLen + wire.FrameHeaderLen }

// borrowed is native for a read past borrowAbove, into scratch from
// wire's pool, given back once Whole's payload is copied out or adopted,
// or Feed has copied what it keeps. At most 256 KiB (a netsim
// connection's buffer), every large read shares one size class, warm
// where GC emptied a rarer one between reads; a larger window is filled
// in pieces. It sits after adoptGroups to keep the clean path's layout.
func (r *streamReader) borrowed(agent *tracker.Agent, recv func([]byte) (int, error), buf *taint.Bytes, from, to int) (int, error) {
	s := wire.GetBuf(min(rawLen(to-from), 256<<10))
	defer wire.PutBuf(s)
	n, err := recv((*s)[:cap(*s)])
	p := r.dec.Whole((*s)[:n], to-from)
	if p != nil && (*s)[:n][0] == wire.FramePassthrough {
		r.err = err // reported by the next read
		clearStale(buf, from, len(p))
		return copy(buf.Data[from:to], p), nil
	}
	return r.feed(agent, buf, from, (*s)[:n], p, err)
}
