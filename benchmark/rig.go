package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors the monotonic clock every timestamp is read from.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// responder selects what node B does with a request. Only respReal is
// the program under test; the other two exist so that the checker can
// be shown to fail.
type responder int

const (
	respReal     responder = iota
	respPhosphor           // B runs a ModePhosphor agent: labels are dropped at the boundary
	respFlip               // B flips one payload byte before echoing
)

const (
	srcField = "benchmark#field"
	srcBulk  = "benchmark#bulk"
	srcB     = "benchmark#b"
)

// segment is what one timed stretch of ops produced.
type segment struct {
	ops      int64 // attempted
	failed   int64
	wall     time.Duration
	payload  int64 // payload bytes delivered by verified ops
	netBytes int64 // bytes netsim carried, Taint Map control traffic included
	ctlBytes int64 // the part of netBytes on Taint Map connections
	served   int64 // register + lookup calls that reached a Taint Map store
	mem      memDelta
}

func (s *segment) nsPerOp() float64 { return ratio(float64(s.wall), float64(s.ops)) }

type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	m := memNow()
	return memDelta{
		mallocs:   m.Mallocs - before.Mallocs,
		bytes:     m.TotalAlloc - before.TotalAlloc,
		gcCycles:  m.NumGC - before.NumGC,
		gcPauseNs: m.PauseTotalNs - before.PauseTotalNs,
	}
}

// liveHeap returns the heap still reachable after a full collection.
// Two cycles, so sync.Pool victims are gone too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return memNow().HeapAlloc
}

// runner is one mode's half of a workload: something that can run a
// timed segment of verified ops.
type runner interface {
	// runSegment runs ops until slice has passed (0 = no time limit) or
	// maxOps were attempted (0 = no op limit). lat may be nil.
	runSegment(slice time.Duration, maxOps int64, lat *hist, traced bool) segment
	// writeTrace writes the spans of the traced segments, one JSON
	// object per line. A rig's responders record their last spans
	// after the last echo has left: call it after close.
	writeTrace(path string) error
	close()
}

// rig is two nodes A and B on one simulated network with their agents,
// Taint Map clients and connections: the exchange workloads' runner.
type rig struct {
	w       *workload
	mode    Mode
	net     *Network
	a, b    *Agent
	servers []*Server
	stores  []*Store // every store a register or a lookup can reach
	clients []Client
	conns   []*conn
	timeout time.Duration
	tracing atomic.Bool   // the running segment records spans
	done    chan struct{} // closed by close(): stops the watchdog
	wg      sync.WaitGroup
}

// conn is one connection with its driver (A) and responder (B) state.
// One op is outstanding per connection: the loop is closed.
type conn struct {
	r        *rig
	id       int
	aC, bC   *Conn
	aEp, bEp *Endpoint

	// A side, touched only by the driver goroutine.
	msg   Bytes    // the request, relabelled every op
	rbuf  Bytes    // the reply
	pair  [2]Taint // reused taints (dense, uniform shapes)
	seq   uint64
	ver   verifier
	field int

	// B side, touched only by the responder goroutine.
	bbuf    Bytes
	bLocal  Taint
	dirty   []dirtyRun
	collect func(from, to int, t Taint)
	bSpans  []span

	opStart atomic.Int64 // start of the outstanding op, 0 if none: read by the watchdog
	broken  bool
	aSpans  []span
}

type dirtyRun struct {
	from, to int
	t        Taint
}

// connections is the closed loop's client count: a driver and a
// responder goroutine per connection, so no more than half the cores.
func connections() int {
	return max(1, min(4, runtime.NumCPU()/2))
}

// newRig builds the network, both agents, the Taint Map and the
// connections, and starts the responders.
func newRig(w *workload, in *inputs, mode Mode, resp responder, timeout time.Duration) (*rig, error) {
	r := &rig{w: w, mode: mode, net: newNetwork(), timeout: timeout, done: make(chan struct{})}
	var dialA, dialB func(*Tree) (Client, error)
	if mode == ModeDista {
		if w.cluster {
			servers, ring, err := startSimCluster(r.net, 3, 2)
			if err != nil {
				return nil, fmt.Errorf("start cluster: %w", err)
			}
			r.servers = servers
			for _, s := range servers {
				r.stores = append(r.stores, s.Store())
			}
			dialA = func(tr *Tree) (Client, error) { return dialSimCluster(r.net, "a", ring, tr) }
			dialB = func(tr *Tree) (Client, error) { return dialSimCluster(r.net, "b", ring, tr) }
		} else {
			store := newStore()
			r.stores = []*Store{store}
			dialA = func(tr *Tree) (Client, error) { return newLocalClient(store, tr), nil }
			dialB = dialA
		}
	}
	modeB := mode
	if resp == respPhosphor {
		modeB, dialB = ModePhosphor, nil
	}
	var err error
	var ca, cb Client
	if r.a, ca, err = newAgent("a", mode, dialA); err != nil {
		r.close()
		return nil, fmt.Errorf("agent a: %w", err)
	}
	if r.b, cb, err = newAgent("b", modeB, dialB); err != nil {
		r.close()
		return nil, fmt.Errorf("agent b: %w", err)
	}
	for _, c := range []Client{ca, cb} {
		if c != nil {
			r.clients = append(r.clients, c)
		}
	}
	bLocal := r.b.Source(srcB, in.tagB)
	pair := [2]Taint{r.a.Source(srcBulk, in.tagA[0]), r.a.Source(srcBulk, in.tagA[1])}
	for i := 0; i < connections(); i++ {
		c := &conn{r: r, id: i, pair: pair, bLocal: bLocal, field: in.fieldOff}
		c.aC, c.bC = r.net.Pipe()
		c.aEp, c.bEp = newAdaptiveEndpoint(r.a, c.aC), newAdaptiveEndpoint(r.b, c.bC)
		c.msg = wrapBytes(append([]byte(nil), in.payload...))
		c.rbuf = wrapBytes(make([]byte, w.size))
		c.bbuf = wrapBytes(make([]byte, w.size))
		c.collect = func(from, to int, t Taint) { c.dirty = append(c.dirty, dirtyRun{from, to, t}) }
		c.ver.init(w, in.fieldOff, pair, bLocal)
		r.conns = append(r.conns, c)
		r.wg.Add(1)
		go c.respond(resp)
	}
	r.wg.Add(1)
	go r.watchdog()
	return r, nil
}

// watchdog closes a connection whose op has been outstanding for longer
// than the timeout, which fails the op in the driver. It costs the
// driver one atomic store per op instead of a deadline per read.
func (r *rig) watchdog() {
	defer r.wg.Done()
	tick := time.NewTicker(max(r.timeout/4, 5*time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
		}
		for _, c := range r.conns {
			if s := c.opStart.Load(); s != 0 && now()-s > int64(r.timeout) {
				c.aC.Close()
				c.bC.Close()
			}
		}
	}
}

// close tears the rig down and waits for every goroutine it started.
func (r *rig) close() {
	close(r.done)
	for _, c := range r.conns {
		c.aC.Close()
		c.bC.Close()
	}
	r.wg.Wait()
	for _, c := range r.clients {
		c.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
	r.net.Shutdown()
}

// served counts the register and lookup calls that reached a store.
func (r *rig) served() int64 {
	var n int64
	for _, s := range r.stores {
		st := s.Stats()
		n += st.Registrations + st.Lookups
	}
	return n
}

func (r *rig) netBytes() int64 {
	st := r.net.Stats()
	return st.StreamBytes + st.DatagramBytes
}

// dataWire returns the bytes the two agents put on data connections.
func (r *rig) dataWire() int64 {
	_, wa := r.a.Traffic()
	_, wb := r.b.Traffic()
	return wa + wb
}

func (r *rig) runSegment(slice time.Duration, maxOps int64, lat *hist, traced bool) segment {
	runtime.GC()
	var seg segment
	net0, wire0, served0 := r.netBytes(), r.dataWire(), r.served()
	hists := make([]hist, len(r.conns))
	segs := make([]segment, len(r.conns))
	mem0 := memNow()
	start := now()
	deadline := int64(0)
	if slice > 0 {
		deadline = start + int64(slice)
	}
	perConn := (maxOps + int64(len(r.conns)) - 1) / int64(len(r.conns))
	if traced && r.conns[0].aSpans == nil {
		r.arm(tracedOpsMax)
	}
	r.tracing.Store(traced)
	var wg sync.WaitGroup
	for i, c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			segs[i] = c.drive(deadline, perConn, &hists[i], traced)
		}()
	}
	wg.Wait()
	r.tracing.Store(false)
	seg.wall = time.Duration(now() - start)
	seg.mem = memSince(mem0)
	for i := range segs {
		seg.ops += segs[i].ops
		seg.failed += segs[i].failed
		if lat != nil {
			lat.merge(&hists[i])
		}
	}
	seg.payload = 2 * int64(r.w.size) * (seg.ops - seg.failed)
	seg.netBytes = r.netBytes() - net0
	seg.ctlBytes = seg.netBytes - (r.dataWire() - wire0)
	seg.served = r.served() - served0
	return seg
}

// applyLabels stamps the op number into msg and labels it according to
// the workload's shape. fresh is the op's new taint (shapeField only).
func applyLabels(w *workload, msg *Bytes, stamp uint64, pair *[2]Taint, field int, fresh Taint) {
	msg.ResetLabels()
	binary.LittleEndian.PutUint64(msg.Data, stamp)
	switch w.shape {
	case shapeDense:
		for i := range msg.Data {
			msg.SetLabel(i, pair[i&1])
		}
	case shapeField:
		msg.SetRange(field, field+fieldLen, fresh)
	case shapeUniform:
		msg.SetRange(0, len(msg.Data), pair[0])
	}
}

// label is the first step of an op: A draws the op's fresh taint where
// the workload has one and labels the request.
func (c *conn) label() {
	c.seq++
	var fresh Taint
	if c.r.w.shape == shapeField {
		fresh = c.r.a.SourceSeq(srcField, "f")
		c.ver.setFresh(fresh)
	}
	applyLabels(c.r.w, &c.msg, c.seq<<8|uint64(c.id), &c.pair, c.field, fresh)
}

// drive runs ops on this connection until the deadline or the op limit.
// A connection that errored or timed out is out of step with its peer
// and attempts nothing further.
func (c *conn) drive(deadline, maxOps int64, lat *hist, traced bool) segment {
	var seg segment
	for !c.broken && (maxOps == 0 || seg.ops < maxOps) {
		var t1, t2 int64
		t0 := now()
		if deadline != 0 && t0 >= deadline {
			break
		}
		c.opStart.Store(t0)
		c.label()
		if traced {
			t1 = now()
		}
		err := c.aEp.Write(c.msg)
		if traced {
			t2 = now()
		}
		if err == nil {
			err = readFull(c.aEp, &c.rbuf)
		}
		t3 := now()
		c.opStart.Store(0)
		ok := err == nil && c.ver.check(c.rbuf, c.msg.Data)
		seg.ops++
		lat.record(t3 - t0)
		if !ok {
			seg.failed++
			c.broken = err != nil
		}
		if traced {
			t4 := now()
			op := uint32(c.seq)
			c.aSpans = append(c.aSpans,
				span{op, spanOp, t0, t4}, span{op, spanALabel, t0, t1}, span{op, spanAWrite, t1, t2},
				span{op, spanARead, t2, t3}, span{op, spanAVerify, t3, t4})
		}
	}
	return seg
}

// respond is node B: read a whole request, relabel it if the workload
// says so, and write it back through B's own endpoint.
func (c *conn) respond(kind responder) {
	defer c.r.wg.Done()
	idle := int64(0) // when B last went back to waiting, if that op was traced
	for op := uint32(1); ; op++ {
		if err := readFull(c.bEp, &c.bbuf); err != nil {
			return
		}
		traced := c.r.tracing.Load()
		var t1, t2 int64
		if traced {
			t1 = now()
		}
		if c.r.w.relabel {
			c.dirty = c.dirty[:0]
			c.bbuf.ForEachDirtyRun(c.collect)
			for _, d := range c.dirty {
				c.bbuf.SetRange(d.from, d.to, combine(d.t, c.bLocal))
			}
		}
		if kind == respFlip {
			c.bbuf.Data[len(c.bbuf.Data)/2] ^= 0xff
		}
		if traced {
			t2 = now()
		}
		if err := c.bEp.Write(c.bbuf); err != nil {
			return
		}
		if !traced {
			idle = 0
			continue
		}
		t3 := now()
		if idle == 0 {
			idle = t1
		}
		c.bSpans = append(c.bSpans, span{op, spanBRead, idle, t1}, span{op, spanBRelabel, t1, t2}, span{op, spanBWrite, t2, t3})
		idle = t3
	}
}

// readFull fills buf from ep. The first read goes into buf itself so a
// shadow store the read creates belongs to buf; a later partial read
// lands in a view, whose labels are copied over if buf had no store for
// the view to share.
func readFull(ep *Endpoint, buf *Bytes) error {
	got := 0
	for got < len(buf.Data) {
		sub := buf
		if got > 0 {
			v := buf.Slice(got, len(buf.Data))
			sub = &v
		}
		n, err := ep.Read(sub)
		if got > 0 && sub.HasShadow() && !buf.HasShadow() {
			base := got
			sub.Slice(0, n).ForEachDirtyRun(func(from, to int, t Taint) { buf.SetRange(base+from, base+to, t) })
		}
		got += n
		if err != nil {
			if got == len(buf.Data) {
				return nil
			}
			if errors.Is(err, io.EOF) && got > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// verifier checks an echo byte for byte and label run for label run
// against what the op must produce. Comparing runs against the expected
// cover is a per-byte comparison of tag sets at the cost of one step
// per run.
type verifier struct {
	exp    []expRun
	sets   [3][]TagKey // tag set per expected-set index; sets[0] is always empty
	bKeys  []TagKey    // B's tag, where B relabels
	memo   [3]Taint    // last taint found equal to the set, so the set walk runs once per taint
	memoOK [3]bool
	i      int
	bad    bool
	yield  func(from, to int, t Taint)
}

type expRun struct {
	to  int // end of the run; it starts where the previous one ends
	set uint8
}

// init sets up what A must find on the echo: the cover of label runs
// the shape produces and, per run, the tag set -- what A labelled plus
// B's own tag where B relabels. With tracking off every taint is empty
// and so is every set.
func (v *verifier) init(w *workload, fieldOff int, pair [2]Taint, bLocal Taint) {
	v.yield = v.onRun
	if w.relabel {
		v.bKeys = bLocal.Keys()
	}
	for i, t := range pair {
		v.sets[i+1] = append(t.Keys(), v.bKeys...)
	}
	switch w.shape {
	case shapeClean:
		v.exp = []expRun{{w.size, 0}}
	case shapeDense:
		v.exp = make([]expRun, w.size)
		for i := range v.exp {
			v.exp[i] = expRun{i + 1, uint8(1 + i&1)}
		}
	case shapeField:
		v.exp = []expRun{{fieldOff, 0}, {fieldOff + fieldLen, 1}, {w.size, 0}}
	case shapeUniform:
		v.exp = []expRun{{w.size, 1}}
	}
}

// setFresh installs this op's expectation for the field: the fresh
// taint's tag (none in off mode) plus B's.
func (v *verifier) setFresh(fresh Taint) {
	v.sets[1] = append(append(v.sets[1][:0], fresh.Keys()...), v.bKeys...)
	v.memoOK[1] = false
}

func (v *verifier) check(got Bytes, want []byte) bool {
	if !bytes.Equal(got.Data, want) {
		return false
	}
	v.i, v.bad = 0, false
	got.ForEachRun(v.yield)
	return !v.bad
}

func (v *verifier) onRun(from, to int, t Taint) {
	for from < to && !v.bad {
		e := v.exp[v.i]
		if !v.matches(e.set, t) {
			v.bad = true
		}
		if e.to <= to {
			v.i++
			from = e.to
		} else {
			from = to
		}
	}
}

func (v *verifier) matches(set uint8, t Taint) bool {
	if v.memoOK[set] && t == v.memo[set] {
		return true
	}
	keys := v.sets[set]
	if t.Len() != len(keys) {
		return false
	}
	for _, k := range keys {
		if !t.HasKey(k) {
			return false
		}
	}
	v.memo[set], v.memoOK[set] = t, true
	return true
}
