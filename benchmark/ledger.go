package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// The ledger pass prices each layer on the payload the workload's op
// carries. It runs on one goroutine (the raw netsim ping-pong excepted):
// a layer's public functions are called directly, with its neighbours
// replaced from outside -- a pipe drained by hand instead of a peer
// endpoint, taints registered beforehand so a write finds the Taint Map
// warm, a Taint Map reached locally, over one server, or over the
// cluster. A layer's self time is its span minus the isolated cost of
// the calls beneath it.

// lap times repeated calls and reports the median over chunks of the
// mean time per call, which a collection or a descheduling in one chunk
// does not move.
type lap struct {
	budget time.Duration
	tick   float64 // cost of reading the clock twice, taken off every per-call sample
}

const lapChunk = 32

func newLap(budget time.Duration) *lap {
	l := &lap{budget: budget}
	l.tick = l.each(nil, func() {}, nil)
	return l
}

// each times fn call by call; before and after run untimed around it.
func (l *lap) each(before, fn, after func()) float64 {
	var chunks []float64
	for start := now(); now()-start < int64(l.budget) || len(chunks) < 3; {
		var sum int64
		for i := 0; i < lapChunk; i++ {
			if before != nil {
				before()
			}
			t0 := now()
			fn()
			sum += now() - t0
			if after != nil {
				after()
			}
		}
		chunks = append(chunks, float64(sum)/lapChunk)
	}
	return max(median(chunks)-l.tick, 0)
}

// batch times fn in runs of calls between two clock reads, for calls
// too short to time one by one.
func (l *lap) batch(fn func()) float64 {
	n := 1
	for {
		t0 := now()
		for i := 0; i < n; i++ {
			fn()
		}
		if now()-t0 > int64(50*time.Microsecond) {
			break
		}
		n *= 2
	}
	var chunks []float64
	for start := now(); now()-start < int64(l.budget) || len(chunks) < 3; {
		t0 := now()
		for i := 0; i < n; i++ {
			fn()
		}
		chunks = append(chunks, float64(now()-t0)/float64(n))
	}
	return median(chunks)
}

// allocsPer returns the mallocs per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	fn()
	m0 := memNow()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(memNow().Mallocs-m0.Mallocs) / float64(n)
}

// heapPer returns the live-heap growth per call of fn over n calls;
// whatever fn builds must stay reachable until heapPer returns.
func heapPer(n int, fn func()) float64 {
	h0 := liveHeap()
	for i := 0; i < n; i++ {
		fn()
	}
	grown := max(float64(liveHeap())-float64(h0), 0)
	runtime.KeepAlive(fn) // and with it everything fn captured
	return grown / float64(n)
}

// drain reads the n bytes a write left in the pipe out of its far end.
func drain(c *Conn, scratch []byte, n int) error {
	_, err := io.ReadFull(c, scratch[:n])
	return err
}

// ledgerEnv is the two-node rig the ledger takes apart: the same agents
// and Taint Map as the workload's, but every connection is a pipe whose
// far end the ledger holds itself.
type ledgerEnv struct {
	w      *workload
	in     *inputs
	rig    *rig // driven for one op only (selfTime): the ledger uses its agents, clients and network
	a, b   *Agent
	ca, cb Client
	pair   [2]Taint
	bLocal Taint
	msg    Bytes
	rbuf   Bytes
	frame  []byte // the wire bytes of one steady-state message
	parts  [][]byte
	runs   []Run // the frame's decoded run cover
	ids    []uint32
	labels []Taint
	stamp  uint64
	quick  bool
}

// count scales a fixed repeat count down for smoke tests.
func (e *ledgerEnv) count(n int) int {
	if e.quick {
		return n / 20
	}
	return n
}

// wireBytes is what A's endpoints have put on the wire so far.
func (e *ledgerEnv) wireBytes() int64 {
	_, w := e.a.Traffic()
	return w
}

func (e *ledgerEnv) label(fresh Taint) {
	e.stamp++
	applyLabels(e.w, &e.msg, e.stamp, &e.pair, e.in.fieldOff, fresh)
}

// fresh draws a new taint as the op does and registers it, so that a
// timed write finds it on the fast path.
func (e *ledgerEnv) fresh() (Taint, error) {
	if e.w.shape != shapeField {
		return Taint{}, nil
	}
	t := e.a.SourceSeq(srcField, "f")
	_, err := e.ca.Register(t)
	return t, err
}

// ledger runs the pass for m's workload and adds its rows to out.
func (o *options) ledger(m *measurement, seconds float64, out metrics) error {
	w := m.w
	if w.paper {
		off, dista := m.off.(*paperRig), m.dista.(*paperRig)
		phos, err := newPaperRig(&m.in, ModePhosphor, o.outDir)
		if err != nil {
			return err
		}
		defer phos.close()
		phos.runSegment(time.Duration(0.2*seconds*float64(time.Second)), 0, nil, false)
		paperMetrics(off, dista, phos, out)
		seconds *= 0.8
	}
	r, err := newRig(w, &m.in, ModeDista, respReal, o.timeout)
	if err != nil {
		return err
	}
	defer r.close()
	e := &ledgerEnv{w: w, in: &m.in, quick: o.quick, rig: r, a: r.a, b: r.b, pair: r.conns[0].pair, bLocal: r.conns[0].bLocal}
	e.ca, e.cb = r.clients[0], r.clients[1]
	e.msg = wrapBytes(append([]byte(nil), m.in.payload...))
	e.rbuf = wrapBytes(make([]byte, w.size))

	const timedLoops = 26
	l := newLap(time.Duration(seconds / timedLoops * float64(time.Second)))
	if err := e.capture(out); err != nil {
		return err
	}
	if err := e.taintRows(l, out); err != nil {
		return err
	}
	e.wireRows(l, out)
	if err := e.endpointRows(l, out); err != nil {
		return err
	}
	if err := e.netsimRows(l, out); err != nil {
		return err
	}
	if err := e.taintMapRows(l, out); err != nil {
		return err
	}
	if out["driver.self_ns_per_op"], err = r.conns[0].selfTime(l); err != nil {
		return err
	}
	e.rollUp(out, m)
	return nil
}

// send labels the message afresh, writes it (or, with head, its first
// settleLen bytes) through ep and drains the far end y into scratch. It
// returns the wire bytes the write produced.
func (e *ledgerEnv) send(ep *Endpoint, y *Conn, scratch []byte, head bool) (int, error) {
	t, err := e.fresh()
	if err != nil {
		return 0, err
	}
	e.label(t)
	msg := e.msg
	if head {
		msg = msg.Slice(0, min(e.w.size, settleLen))
	}
	before := e.wireBytes()
	if err := ep.Write(msg); err != nil {
		return 0, err
	}
	n := int(e.wireBytes() - before)
	return n, drain(y, scratch, n)
}

// settleLen bounds the writes that settle a connection's tier. A new
// connection starts on the groups tier at five wire bytes per byte, and
// a write the pipe's 256 KiB of credit cannot hold would wait for a
// reader this goroutine is yet to become.
const settleLen = 32 << 10

// settle writes until the connection's adaptive tier has converged on
// the message's label shape, and fails rather than hang if the whole
// message would then still not fit the pipe.
func (e *ledgerEnv) settle(ep *Endpoint, y *Conn, scratch []byte) error {
	for i := 0; i < 32; i++ {
		if _, err := e.send(ep, y, scratch, true); err != nil {
			return err
		}
	}
	if scratch[0] == FrameGroups && 5*e.w.size > 200<<10 {
		return fmt.Errorf("a %d-byte groups frame does not fit a pipe drained by its own writer", e.w.size)
	}
	return nil
}

// capture writes the message through a real endpoint until the
// adaptive tier has settled, keeps one steady-state message's wire
// bytes, and counts the frame tags the endpoint chose.
func (e *ledgerEnv) capture(out metrics) error {
	x, y := e.rig.net.Pipe()
	defer x.Close()
	defer y.Close()
	ep := newAdaptiveEndpoint(e.a, x)
	scratch := make([]byte, 6*e.w.size+64)
	tags := map[byte]float64{}
	if err := e.settle(ep, y, scratch); err != nil {
		return err
	}
	const sample = 32
	for i := 0; i < sample; i++ {
		n, err := e.send(ep, y, scratch, false)
		if err != nil {
			return err
		}
		tags[scratch[0]]++
		e.frame = append(e.frame[:0], scratch[:n]...)
	}
	out["instrument.frame_share_passthrough"] = tags[FramePassthrough] / sample
	out["instrument.frame_share_uniform"] = tags[FrameUniform] / sample
	out["instrument.frame_share_sparse"] = tags[FrameSparse] / sample
	out["instrument.frame_share_groups"] = tags[FrameGroups] / sample
	out["wire.frame_bytes_per_payload_byte"] = float64(len(e.frame)) / float64(e.w.size)

	// Decode the kept frame once: its run cover and ids are what the
	// encoders, the Taint Map client and SetRange are given below.
	var dec FrameDecoder
	if err := dec.Feed(appendAdaptiveMagic(nil)); err != nil {
		return err
	}
	if err := dec.Feed(e.frame); err != nil {
		return err
	}
	n, runs := dec.NextRunsInto(e.rbuf.Data)
	if n != e.w.size {
		return fmt.Errorf("captured frame decodes to %d of %d bytes", n, e.w.size)
	}
	e.runs = append([]Run(nil), runs...)
	for _, r := range e.runs {
		e.ids = append(e.ids, r.ID)
	}
	// The endpoint hands the native a groups frame whole, and every
	// other tier as a header followed by the caller's payload.
	e.parts = [][]byte{e.frame}
	if e.frame[0] != FrameGroups {
		hdr := len(e.frame) - e.w.size
		e.parts = [][]byte{e.frame[:hdr], e.frame[hdr:]}
	}
	var err error
	e.labels, err = e.cb.LookupBatch(e.ids)
	return err
}

func (e *ledgerEnv) tainted() bool {
	for _, id := range e.ids {
		if id != 0 {
			return true
		}
	}
	return false
}

// adopt gives buf the labels of the decoded runs, as Endpoint.Read does
// after resolving them.
func (e *ledgerEnv) adopt(buf *Bytes) {
	if !e.tainted() {
		if buf.HasShadow() {
			buf.SetRange(0, len(buf.Data), Taint{})
		}
		return
	}
	pos := 0
	for i, r := range e.runs {
		buf.SetRange(pos, pos+r.N, e.labels[i])
		pos += r.N
	}
}

func (e *ledgerEnv) taintRows(l *lap, out metrics) error {
	var fresh Taint
	var err error
	draw := func() {
		var e2 error
		if fresh, e2 = e.fresh(); err == nil {
			err = e2
		}
	}
	out["taint.label_ns_per_op"] = l.each(draw, func() { e.label(fresh) }, nil)
	runs := 0
	count := func(from, to int, t Taint) { runs++ }
	out["taint.scan_ns_per_op"] = l.each(func() { draw(); e.label(fresh) }, func() {
		runs = 0
		e.msg.Clean()
		e.msg.Stats(32)
		e.msg.ForEachRun(count)
	}, nil)
	out["taint.runs_per_op"] = float64(runs)
	out["taint.adopt_ns_per_op"] = l.each(nil, func() { e.adopt(&e.rbuf) }, nil)
	if e.w.shape == shapeField {
		out["tracker.source_seq_ns"] = l.batch(func() { e.a.SourceSeq(srcField, "f") })
	}
	if e.w.paper {
		e.adopt(&e.rbuf)
		out["tracker.check_sink_ns"] = l.batch(func() { e.a.CheckSinkBytes("benchmark#sink", e.rbuf) })
	}
	if !e.tainted() {
		return err
	}
	if e.w.relabel {
		// B's relabel step on what it received: every tainted run gets
		// its taint combined with B's own.
		var dirty []dirtyRun
		collect := func(from, to int, t Taint) { dirty = append(dirty, dirtyRun{from, to, t}) }
		buf := wrapBytes(make([]byte, e.w.size))
		out["taint.combine_ns"] = l.each(func() {
			draw()
			e.label(fresh)
			e.msg.CopyLabelsInto(&buf, 0)
		}, func() {
			dirty = dirty[:0]
			buf.ForEachDirtyRun(collect)
			for _, d := range dirty {
				buf.SetRange(d.from, d.to, combine(d.t, e.bLocal))
			}
		}, nil)
	}
	// One taint of the kind this workload puts on the wire, new every
	// call: what a Taint Map miss marshals, unmarshals and retains.
	src := newTree()
	n := 0
	mint := func() Taint {
		n++
		t := src.NewSource(fmt.Sprintf("m%d", n), "a:1")
		if e.w.relabel {
			t = combine(t, e.bLocal)
		}
		return t
	}
	if err != nil {
		return err
	}
	var t Taint
	var blob []byte
	out["taint.marshal_ns_per_taint"] = l.each(func() { t = mint() }, func() { blob, err = marshalTaint(t) }, nil)
	if err != nil {
		return err
	}
	dst := newTree()
	out["taint.unmarshal_ns_per_taint"] = l.each(func() { blob, _ = marshalTaint(mint()) }, func() { _, err = unmarshalTaint(dst, blob) }, nil)
	if err != nil {
		return err
	}
	held := make([]Taint, 0, e.count(20_000))
	out["taint.tree_bytes_per_taint"] = heapPer(cap(held), func() { held = append(held, mint()) })
	return nil
}

func (e *ledgerEnv) wireRows(l *lap, out metrics) {
	n := e.w.size
	var enc func()
	buf := make([]byte, 0, len(e.frame)+64)
	switch e.frame[0] {
	case FramePassthrough:
		enc = func() { buf = appendFrameHeader(buf[:0], FramePassthrough, n) }
	case FrameUniform:
		enc = func() { buf = appendUniformHeader(buf[:0], n, e.ids[0]) }
	case FrameSparse:
		ranges := appendDirtyRanges(nil, e.runs)
		enc = func() { buf = appendSparseHeader(buf[:0], n, ranges) }
	default:
		enc = func() { buf = appendGroupsFrame(buf[:0], e.msg.Data, e.runs) }
	}
	var dec FrameDecoder
	dec.Feed(appendAdaptiveMagic(nil))
	dst := make([]byte, n)
	decode := func() {
		dec.Feed(e.frame)
		for got := 0; got < n; {
			k, _ := dec.NextRunsInto(dst[got:])
			if k == 0 {
				break
			}
			got += k
		}
	}
	out["wire.encode_ns_per_op"] = l.batch(enc)
	out["wire.decode_ns_per_op"] = l.batch(decode)
	out["wire.encode_ns_per_byte"] = out["wire.encode_ns_per_op"] / float64(n)
	out["wire.decode_ns_per_byte"] = out["wire.decode_ns_per_op"] / float64(n)
	out["wire.allocs_per_op"] = allocsPer(200, func() { enc(); decode() })
}

// endpointRows times Endpoint.Write and Endpoint.Read on pipes whose
// other end the ledger drains or fills itself, and the natives beneath
// them on the same bytes.
func (e *ledgerEnv) endpointRows(l *lap, out metrics) error {
	x, y := e.rig.net.Pipe()
	p, q := e.rig.net.Pipe()
	defer func() { x.Close(); y.Close(); p.Close(); q.Close() }()
	wep, rep := newAdaptiveEndpoint(e.a, x), newAdaptiveEndpoint(e.b, q)
	scratch := make([]byte, 6*e.w.size+64)
	var err error
	keep := func(e2 error) {
		if err == nil {
			err = e2
		}
	}
	var sent int64 // wire-byte count before the write being drained
	prepare := func() {
		fresh, e2 := e.fresh()
		keep(e2)
		e.label(fresh)
		sent = e.wireBytes()
	}
	write := func() { keep(wep.Write(e.msg)) }
	emptied := func() { keep(drain(y, scratch, int(e.wireBytes()-sent))) }
	// The first write on a connection carries the stream magic and the
	// tier takes a few writes to settle: keep both out of the timed
	// calls, and tell the reading endpoint's decoder what follows.
	keep(e.settle(wep, y, scratch))
	_, e2 := p.Write(appendAdaptiveMagic(nil))
	keep(e2)
	if err != nil {
		return err
	}
	fill := func() { _, e2 := p.Write(e.frame); keep(e2) }
	read := func() { keep(readFull(rep, &e.rbuf)) }

	d0, w0 := e.a.Traffic()
	out["instrument.write_ns_per_op"] = l.each(prepare, write, emptied)
	d1, w1 := e.a.Traffic()
	out["instrument.wire_bytes_per_payload_byte"] = ratio(float64(w1-w0), float64(d1-d0))
	out["instrument.read_ns_per_op"] = l.each(fill, read, nil)
	out["instrument.allocs_per_op"] = allocsPer(200, func() { prepare(); write(); emptied(); fill(); read() })

	drained := func() { keep(drain(y, scratch, len(e.frame))) }
	out["jni.socket_write_ns_per_op"] = l.each(nil, func() {
		for _, part := range e.parts {
			keep(socketWrite0(x, part))
		}
	}, drained)
	// The endpoint reads into a buffer sized for the enlarged stream.
	big := make([]byte, 5*e.w.size+64)
	out["jni.socket_read_ns_per_op"] = l.each(fill, func() {
		for got := 0; got < len(e.frame) && err == nil; {
			k, e2 := socketRead0(q, big)
			got += k
			keep(e2)
		}
	}, nil)
	return err
}

// netsimRows prices the fabric alone on the op's wire size: the copy in
// and out on one goroutine, and the raw two-goroutine ping-pong that is
// the floor under any exchange of that size.
func (e *ledgerEnv) netsimRows(l *lap, out metrics) error {
	x, y := e.rig.net.Pipe()
	defer func() { x.Close(); y.Close() }()
	n := len(e.frame)
	scratch := make([]byte, n)
	var err error
	out["netsim.copy_ns_per_kib"] = l.each(nil, func() {
		for _, part := range e.parts {
			x.Write(part)
		}
		err = drain(y, scratch, n)
	}, nil) / (float64(n) / 1024)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		back := make([]byte, n)
		for {
			if _, err := io.ReadFull(y, back); err != nil {
				return
			}
			for _, part := range e.parts {
				if _, err := y.Write(back[:len(part)]); err != nil {
					return
				}
			}
		}
	}()
	out["netsim.pipe_rtt_ns"] = l.batch(func() {
		for _, part := range e.parts {
			x.Write(part)
		}
		_, err = io.ReadFull(x, scratch)
	})
	x.Close()
	y.Close()
	wg.Wait()
	if err == io.EOF {
		err = nil
	}
	return err
}

// tmDial starts a Taint Map on net and returns how a node connects to
// it and how to stop it.
type tmDial func(net *Network) (connect func(*Tree) (Client, error), stop func(), err error)

// tmKinds are the ways for a node to reach the Taint Map.
var tmKinds = []struct {
	name string
	dial tmDial
}{
	{"local", func(net *Network) (func(*Tree) (Client, error), func(), error) {
		store := newStore()
		return func(tr *Tree) (Client, error) { return newLocalClient(store, tr), nil }, func() {}, nil
	}},
	{"remote", func(net *Network) (func(*Tree) (Client, error), func(), error) {
		srv, err := startSimServer(net, "tm:1")
		if err != nil {
			return nil, nil, err
		}
		return func(tr *Tree) (Client, error) { return dialSim(net, "tm:1", tr) }, func() { srv.Close() }, nil
	}},
	{"cluster", clusterDial(2)},
}

// clusterDial is the workload's own Taint Map: three members, rf
// replicas of every taint.
func clusterDial(rf int) tmDial {
	return func(net *Network) (func(*Tree) (Client, error), func(), error) {
		servers, ring, err := startSimCluster(net, 3, rf)
		if err != nil {
			return nil, nil, err
		}
		n := 0
		connect := func(tr *Tree) (Client, error) {
			n++
			return dialSimCluster(net, fmt.Sprintf("n%d", n), ring, tr)
		}
		stop := func() {
			for _, s := range servers {
				s.Close()
			}
		}
		return connect, stop, nil
	}
}

// missPair is two nodes sharing one Taint Map: a registers taints b has
// never seen, b resolves them -- the two misses of a fresh taint's hop.
type missPair struct {
	net    *Network
	a      *Agent
	ca, cb Client
	stop   func()
}

func newMissPair(dial tmDial) (*missPair, error) {
	p := &missPair{net: newNetwork(), stop: func() {}}
	connect, stop, err := dial(p.net)
	if err != nil {
		p.close()
		return nil, err
	}
	p.stop = stop
	if p.a, p.ca, err = newAgent("a", ModeDista, connect); err != nil {
		p.close()
		return nil, err
	}
	if _, p.cb, err = newAgent("b", ModeDista, connect); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *missPair) close() {
	for _, c := range []Client{p.ca, p.cb} {
		if c != nil {
			c.Close()
		}
	}
	p.stop()
	p.net.Shutdown()
}

func (p *missPair) fresh() Taint { return p.a.SourceSeq(srcField, "f") }

// hop registers one fresh taint at a and resolves it at b.
func (p *missPair) hop() error {
	id, err := p.ca.Register(p.fresh())
	if err == nil {
		_, err = p.cb.Lookup(id)
	}
	return err
}

// taintMapRows prices the Taint Map client on this workload's ids (all
// memo hits once warm) and, where the workload keeps missing, a miss
// against each way of reaching the map, the server and the store.
func (e *ledgerEnv) taintMapRows(l *lap, out metrics) error {
	if !e.tainted() {
		return nil
	}
	var err error
	keep := func(e2 error) {
		if err == nil {
			err = e2
		}
	}
	var hitID uint32
	var hit Taint
	for i, id := range e.ids {
		if id != 0 {
			hitID, hit = id, e.labels[i]
		}
	}
	out["taintmap.client.register_hit_ns"] = l.batch(func() { _, e2 := e.cb.Register(hit); keep(e2) })
	out["taintmap.client.lookup_hit_ns"] = l.batch(func() { _, e2 := e.cb.Lookup(hitID); keep(e2) })
	out["taintmap.client.lookup_batch_ns_per_id"] = l.batch(func() { _, e2 := e.cb.LookupBatch(e.ids); keep(e2) }) / float64(len(e.ids))
	if err != nil || e.w.shape != shapeField {
		return err
	}

	reg, look := map[string]float64{}, map[string]float64{}
	for _, k := range tmKinds {
		p, e2 := newMissPair(k.dial)
		if e2 != nil {
			return e2
		}
		var t Taint
		var id uint32
		reg[k.name] = l.each(func() { t = p.fresh() }, func() { _, e2 := p.ca.Register(t); keep(e2) }, nil)
		look[k.name] = l.each(func() { id, e2 = p.ca.Register(p.fresh()); keep(e2) }, func() { _, e2 := p.cb.Lookup(id); keep(e2) }, nil)
		out["taintmap.client.register_miss_ns_"+k.name] = reg[k.name]
		out["taintmap.client.lookup_miss_ns_"+k.name] = look[k.name]
		switch k.name {
		case "local":
			out["taintmap.client.memo_bytes_per_taint"] = heapPer(e.count(20_000), func() { keep(p.hop()) })
		case "cluster":
			out["taintmap.client.allocs_per_miss"] = allocsPer(e.count(2_000), func() { keep(p.hop()) }) / 2
		}
		p.close()
		if err != nil {
			return err
		}
	}
	out["taintmap.server.rtt_ns"] = (reg["remote"] - reg["local"] + look["remote"] - look["local"]) / 2
	out["taintmap.cluster.rtt_ns"] = (reg["cluster"] - reg["remote"] + look["cluster"] - look["remote"]) / 2

	// Replication traffic: what a register puts on the wire with two
	// replicas, less what it does with one.
	var perReg [3]float64
	for rf := 1; rf <= 2; rf++ {
		p, e2 := newMissPair(clusterDial(rf))
		if e2 != nil {
			return e2
		}
		n := e.count(2_000)
		b0 := p.net.Stats().StreamBytes
		for i := 0; i < n; i++ {
			_, e2 := p.ca.Register(p.fresh())
			keep(e2)
		}
		perReg[rf] = float64(p.net.Stats().StreamBytes-b0) / float64(n)
		p.close()
	}
	out["taintmap.cluster.replication_bytes_per_register"] = perReg[2] - perReg[1]

	// The store alone, on the blobs a hop registers.
	store, src, n := newStore(), newTree(), 0
	var blob []byte
	var id uint32
	mint := func() {
		n++
		blob, _ = marshalTaint(src.NewSource(fmt.Sprintf("f%d", n), "a:1"))
	}
	out["taintmap.store.register_blob_ns"] = l.each(mint, func() { id = store.RegisterBlob(blob) }, nil)
	out["taintmap.store.lookup_blob_ns"] = l.batch(func() { _, e2 := store.LookupBlob(id); keep(e2) })
	out["taintmap.store.bytes_per_taint"] = heapPer(e.count(20_000), func() { mint(); id = store.RegisterBlob(blob) })
	out["taintmap.client.memo_bytes_per_taint"] = max(out["taintmap.client.memo_bytes_per_taint"]-out["taintmap.store.bytes_per_taint"], 0)
	return err
}

// selfTime prices the driver's own steps around an op -- clock reads,
// the watchdog's stores, the latency record and the verification of a
// correct echo -- after running one real op so that there is such an
// echo to verify.
func (c *conn) selfTime(l *lap) (float64, error) {
	var lat hist
	if seg := c.drive(0, 1, &lat, false); seg.failed != 0 {
		return 0, fmt.Errorf("the ledger rig's own op failed")
	}
	ok := true
	ns := l.batch(func() {
		t0 := now()
		c.opStart.Store(t0)
		t3 := now()
		c.opStart.Store(0)
		ok = ok && c.ver.check(c.rbuf, c.msg.Data)
		lat.record(t3 - t0)
	})
	if !ok {
		return 0, fmt.Errorf("a verified echo failed verification")
	}
	return ns, nil
}

// rollUp adds the rows up into each layer's self time for one op (two
// writes, two reads, one round trip of the fabric, the run's misses)
// and compares the sum with the op as the closed loop measured it.
func (e *ledgerEnv) rollUp(out metrics, m *measurement) {
	jniSelf := max(out["jni.socket_write_ns_per_op"]+out["jni.socket_read_ns_per_op"]-
		out["netsim.copy_ns_per_kib"]*float64(len(e.frame))/1024, 0)
	lookups := out["taintmap.client.lookup_batch_ns_per_id"] * float64(len(e.ids))
	out["instrument.write_self_ns"] = max(out["instrument.write_ns_per_op"]-out["taint.scan_ns_per_op"]-
		out["wire.encode_ns_per_op"]-out["jni.socket_write_ns_per_op"], 0)
	out["instrument.read_self_ns"] = max(out["instrument.read_ns_per_op"]-out["jni.socket_read_ns_per_op"]-
		out["wire.decode_ns_per_op"]-lookups-out["taint.adopt_ns_per_op"], 0)

	// hit_share: of the ids the endpoints resolved in the measured run,
	// four per tainted run and op, the part no store had to serve.
	taintedRuns := 0
	for _, id := range e.ids {
		if id != 0 {
			taintedRuns++
		}
	}
	d := sum(m.distaSegs)
	out["taintmap.client.hit_share"] = 1
	if resolved := 4 * float64(taintedRuns) * float64(d.ops); resolved > 0 && !e.w.paper {
		out["taintmap.client.hit_share"] = max(1-float64(d.served)/resolved, 0)
	}
	misses := (1 - out["taintmap.client.hit_share"]) * 2 * float64(taintedRuns)
	kind := "local"
	if e.w.cluster {
		kind = "cluster"
	}

	out["ledger.taint_ns_per_op"] = out["taint.label_ns_per_op"] + 2*out["taint.scan_ns_per_op"] +
		2*out["taint.adopt_ns_per_op"] + out["taint.combine_ns"]
	out["ledger.wire_ns_per_op"] = 2 * (out["wire.encode_ns_per_op"] + out["wire.decode_ns_per_op"])
	out["ledger.instrument_ns_per_op"] = 2 * (out["instrument.write_self_ns"] + out["instrument.read_self_ns"])
	out["ledger.jni_ns_per_op"] = 2 * jniSelf
	out["ledger.netsim_ns_per_op"] = out["netsim.pipe_rtt_ns"]
	out["ledger.taintmap_ns_per_op"] = 2*lookups +
		misses*(out["taintmap.client.register_miss_ns_"+kind]+out["taintmap.client.lookup_miss_ns_"+kind])
	out["ledger.tracker_ns_per_op"] = out["tracker.source_seq_ns"] + out["tracker.check_sink_ns"]

	var total float64
	for _, layer := range []string{"taint", "wire", "instrument", "jni", "netsim", "taintmap", "tracker"} {
		total += out["ledger."+layer+"_ns_per_op"]
	}
	out["driver.ledger_sum_ns_per_op"] = total
	if !e.w.paper { // a paper_tables op is a whole case, not this exchange
		// Every row is a median, so the sum is held against the median
		// round trip, which like the rows leaves out verification and
		// whatever a collection or a stall adds to the mean.
		out["driver.ledger_coverage"] = ratio(total, m.lat.quantile(0.5))
	}
}
