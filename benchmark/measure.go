package main

import (
	"fmt"
	"time"
)

// options are the knobs of one run. Only seed and seconds come from the
// command line in contract mode; the rest exist for the tests.
type options struct {
	seed    int64
	seconds float64
	outDir  string
	timeout time.Duration // an op outstanding for longer has failed
	resp    responder
	setups  int  // set-up is repeated this often and its median reported
	pairs   int  // interleaved off/dista segment pairs per run
	quick   bool // smoke-test scale: a twentieth of the warm-up

	childArgs []string // the flags that make a child process run at this scale
}

// warmOps is the fixed number of warm-up ops per mode. On paper_tables
// a pass is the unit, at any scale.
func (o *options) warmOps(w *workload) int64 {
	if o.quick && !w.paper {
		return max(w.warmOps/20, 1)
	}
	return w.warmOps
}

const (
	runPairs    = 10
	distaShare  = 0.7 // of a pair's time; off needs less for the same precision
	opTimeout   = 5 * time.Second
	setupRepeat = 5
)

// measurement is one closed-loop run of a workload: set-up, then pairs
// of an off segment and a dista segment on the same inputs.
type measurement struct {
	w          *workload
	pairs      int
	in         inputs
	off, dista runner
	setupS     []float64
	liveHeap   []float64 // bytes still reachable after each set-up
	offSegs    []segment
	distaSegs  []segment
	lat        hist      // dista op round trips, all segments
	segLat     []hist    // the same, segment by segment
	offLat     []hist    // off op round trips, segment by segment
	offWarm    []segment // warm-up and traced segments: counted, not measured
	distaWarm  []segment
	retained   float64 // live heap growth over the measured window, bytes
}

func (o *options) build(w *workload, in *inputs, mode Mode) (runner, error) {
	if w.paper {
		return newPaperRig(in, mode, o.outDir)
	}
	resp := o.resp
	if mode != ModeDista {
		resp = respReal
	}
	return newRig(w, in, mode, resp, o.timeout)
}

// setUp builds both modes' runners and warms them up with a fixed
// number of ops: everything between workload start and the first
// measured op.
func (o *options) setUp(m *measurement) error {
	off, err := o.build(m.w, &m.in, ModeOff)
	if err != nil {
		return err
	}
	dista, err := o.build(m.w, &m.in, ModeDista)
	if err != nil {
		off.close()
		return err
	}
	m.off, m.dista = off, dista
	m.offWarm = append(m.offWarm, off.runSegment(0, o.warmOps(m.w), nil, false))
	m.distaWarm = append(m.distaWarm, dista.runSegment(0, o.warmOps(m.w), nil, false))
	return nil
}

// measure runs workload w for about seconds of measured time.
func (o *options) measure(w *workload, seconds float64) (*measurement, error) {
	m := &measurement{w: w, pairs: o.pairs, in: genInputs(w, o.seed)}
	for i := 0; i < o.setups; i++ {
		m.close()
		t0 := now()
		if err := o.setUp(m); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		m.setupS = append(m.setupS, float64(now()-t0)/1e9)
		m.liveHeap = append(m.liveHeap, float64(liveHeap()))
	}
	heap0 := m.liveHeap[len(m.liveHeap)-1]
	pair := time.Duration(seconds / float64(m.pairs) * float64(time.Second))
	distaSlice := time.Duration(float64(pair) * distaShare)
	for i := 0; i < m.pairs; i++ {
		m.offLat = append(m.offLat, hist{})
		m.offSegs = append(m.offSegs, m.off.runSegment(pair-distaSlice, 0, &m.offLat[i], false))
		m.segLat = append(m.segLat, hist{})
		m.distaSegs = append(m.distaSegs, m.dista.runSegment(distaSlice, 0, &m.segLat[i], false))
		m.lat.merge(&m.segLat[i])
	}
	m.retained = float64(liveHeap()) - heap0
	return m, nil
}

// close releases both runners; a second call does nothing.
func (m *measurement) close() {
	if m.off != nil {
		m.off.close()
		m.dista.close()
		m.off, m.dista = nil, nil
	}
}

// printSegments shows each pair's ns/op, for judging a run's steadiness.
func (m *measurement) printSegments() {
	for i := range m.distaSegs {
		o, d := m.offSegs[i], m.distaSegs[i]
		fmt.Printf("  pair %d: off %d ops %.0f ns/op, dista %d ops %.0f ns/op, %d collections\n",
			i+1, o.ops, o.nsPerOp(), d.ops, d.nsPerOp(), d.mem.gcCycles)
	}
}

// sum adds up segments.
func sum(segs []segment) segment {
	var t segment
	for _, s := range segs {
		t.ops += s.ops
		t.failed += s.failed
		t.wall += s.wall
		t.payload += s.payload
		t.netBytes += s.netBytes
		t.ctlBytes += s.ctlBytes
		t.served += s.served
		t.mem.mallocs += s.mem.mallocs
		t.mem.bytes += s.mem.bytes
		t.mem.gcCycles += s.mem.gcCycles
		t.mem.gcPauseNs += s.mem.gcPauseNs
	}
	return t
}

// counts returns the ops attempted and failed in both modes, warm-up
// and traced segments included.
func (m *measurement) counts() (attempted, failed int64) {
	da, df := m.distaCounts()
	o, w := sum(m.offSegs), sum(m.offWarm)
	return da + o.ops + w.ops, df + o.failed + w.failed
}

// distaCounts is counts for the tracked side alone.
func (m *measurement) distaCounts() (attempted, failed int64) {
	d, w := sum(m.distaSegs), sum(m.distaWarm)
	return d.ops + w.ops, d.failed + w.failed
}

// endToEnd returns the metrics a user of the tracker sees. The timed
// one is the ratio of a dista segment to the off segment run just
// before it, the median over the run's pairs: the shared box this runs
// on drifts by tens of percent over minutes, which a ratio taken within
// a pair cancels and an absolute time cannot.
func (m *measurement) endToEnd() metrics {
	d := sum(m.distaSegs)
	var x []float64
	for i := range m.distaSegs {
		x = append(x, ratio(m.distaSegs[i].nsPerOp(), m.offSegs[i].nsPerOp()))
	}
	return metrics{
		"setup_s":                     median(m.setupS),
		"overhead_x":                  median(x),
		"wire_bytes_per_payload_byte": ratio(float64(d.netBytes), float64(d.payload)),
		"live_heap_mb":                median(m.liveHeap) / (1 << 20),
	}
}

// driverRows returns the driver's own per-layer rows: what explains
// the end-to-end numbers without belonging to a layer of the program.
func (m *measurement) driverRows() metrics {
	d, o := sum(m.distaSegs), sum(m.offSegs)
	ops := float64(d.ops)
	var rate, p50, p50x []float64
	for i, s := range m.distaSegs {
		rate = append(rate, ratio(float64(s.ops-s.failed), s.wall.Seconds()))
		p50 = append(p50, m.segLat[i].quantile(0.5)/1e3)
		p50x = append(p50x, ratio(m.segLat[i].quantile(0.5), m.offLat[i].quantile(0.5)))
	}
	return metrics{
		"driver.ops_per_s":                  median(rate),
		"driver.lat_p50_us":                 median(p50),
		"driver.lat_overhead_x":             median(p50x),
		"driver.lat_p99_us":                 m.lat.quantile(0.99) / 1e3,
		"driver.lat_samples":                float64(m.lat.n),
		"driver.dista_ns_per_op":            d.nsPerOp(),
		"driver.off_ns_per_op":              o.nsPerOp(),
		"driver.allocs_per_op":              ratio(float64(d.mem.mallocs), ops),
		"driver.alloc_bytes_per_op":         ratio(float64(d.mem.bytes), ops),
		"driver.heap_retained_mb":           m.retained / (1 << 20),
		"driver.gc_cycles":                  float64(d.mem.gcCycles),
		"driver.gc_pause_total_ms":          float64(d.mem.gcPauseNs) / 1e6,
		"netsim.stream_bytes_per_op":        ratio(float64(d.netBytes), ops),
		"netsim.control_bytes_per_op":       ratio(float64(d.ctlBytes), ops),
		"taintmap.server.ops_served_per_op": ratio(float64(d.served), ops),
	}
}

// traced reruns the dista side with spans recorded, alternating with
// untraced segments so both see the same machine. It returns the ratio
// of the two median round trips.
func (m *measurement) traced(seconds float64) float64 {
	slice := time.Duration(seconds / float64(2*m.pairs) * float64(time.Second))
	var plain, spans hist
	for i := 0; i < m.pairs; i++ {
		m.distaWarm = append(m.distaWarm,
			m.dista.runSegment(slice, 0, &plain, false),
			m.dista.runSegment(slice, int64(tracedOpsMax/m.pairs), &spans, true))
	}
	return ratio(spans.quantile(0.5), plain.quantile(0.5))
}
