package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// paperPassOps is the number of ops in one pass of paper_tables: the 30
// micro cases plus the five systems in the SDT and the SIM scenario.
const paperPassOps = 30 + 2*5

// paperCaseSize is the per-side payload of a micro case.
const paperCaseSize = 64 << 10

// paperOp is one row of the paper's tables as an op.
type paperOp struct {
	row    string
	group  string // micro cases: the Table II protocol group
	caseID int    // micro cases: 1-based Table II position, 0 for systems
	sc     Scenario
	run    func(mode Mode, workDir string) (paperResult, error)
}

type paperResult struct {
	payload, wire int64
	sinkTags      []string // micro cases
	globalTaints  int      // systems
}

func paperOps() []paperOp {
	var ops []paperOp
	for _, c := range microCases() {
		ops = append(ops, paperOp{
			row: fmt.Sprintf("case%02d", c.ID), group: c.Group, caseID: c.ID,
			run: func(mode Mode, _ string) (paperResult, error) {
				h, err := runCase(c, mode, paperCaseSize)
				if err != nil {
					return paperResult{}, err
				}
				st := h.Net.Stats()
				d1, _ := h.Node1.Agent.Traffic()
				d2, _ := h.Node2.Agent.Traffic()
				return paperResult{payload: d1 + d2, wire: st.StreamBytes + st.DatagramBytes, sinkTags: h.SinkTags()}, nil
			},
		})
	}
	for _, sc := range []Scenario{SDT, SIM} {
		for _, s := range benchSystems() {
			ops = append(ops, paperOp{
				row: fmt.Sprintf("%s/%v", s.Name, sc), sc: sc,
				run: func(mode Mode, workDir string) (paperResult, error) {
					st, err := runSystem(s, mode, sc, workDir)
					return paperResult{payload: st.DataBytes, wire: st.WireBytes, globalTaints: st.GlobalTaints}, err
				},
			})
		}
	}
	return ops
}

// paperRig runs passes over the paper's rows in one mode.
type paperRig struct {
	mode    Mode
	ops     []paperOp
	order   []int
	workDir string
	rows    [paperPassOps][]float64 // ns per run, by op index
	taints  [paperPassOps]int       // systems: global taints of the first run, which later runs must repeat
	spans   []paperSpan
}

type paperSpan struct {
	op         int
	start, end int64
}

func newPaperRig(in *inputs, mode Mode, outDir string) (*paperRig, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return nil, err
	}
	r := &paperRig{mode: mode, ops: paperOps(), order: in.caseOrder, workDir: dir}
	for i := range r.taints {
		r.taints[i] = -1
	}
	return r, nil
}

func (r *paperRig) close() { os.RemoveAll(r.workDir) }

// verify checks an op's observable result: a micro case must see
// exactly Data1 and Data2 at its sink under dista and nothing with
// tracking off; a system must register the same number of global
// taints on every run, and none with tracking off.
func (r *paperRig) verify(i int, res paperResult) bool {
	op := &r.ops[i]
	switch {
	case r.mode == ModePhosphor:
		return true // loses inter-node taints by design; only timed
	case op.caseID != 0 && r.mode == ModeDista:
		return slices.Equal(res.sinkTags, []string{"Data1", "Data2"})
	case op.caseID != 0:
		return len(res.sinkTags) == 0
	case r.mode == ModeOff:
		return res.globalTaints == 0
	}
	if r.taints[i] < 0 {
		r.taints[i] = res.globalTaints
	}
	return res.globalTaints > 0 && res.globalTaints == r.taints[i]
}

func (r *paperRig) runSegment(slice time.Duration, maxOps int64, lat *hist, traced bool) segment {
	runtime.GC()
	var seg segment
	mem0 := memNow()
	start := now()
	for (maxOps == 0 || seg.ops < maxOps) && (slice == 0 || now()-start < int64(slice)) {
		for _, i := range r.order {
			t0 := now()
			res, err := r.ops[i].run(r.mode, r.workDir)
			t1 := now()
			seg.ops++
			if err != nil || !r.verify(i, res) {
				seg.failed++
				continue
			}
			r.rows[i] = append(r.rows[i], float64(t1-t0))
			if lat != nil {
				lat.record(t1 - t0)
			}
			if traced {
				r.spans = append(r.spans, paperSpan{i, t0, t1})
			}
			seg.payload += res.payload
			seg.netBytes += res.wire
		}
	}
	seg.wall = time.Duration(now() - start)
	seg.mem = memSince(mem0)
	return seg
}

func (r *paperRig) rowMedian(i int) float64 { return median(r.rows[i]) }

// paperMetrics folds the per-row medians of the three modes into the
// paper's table rows, added to m.
func paperMetrics(off, dista, phos *paperRig, m metrics) {
	var caseOff, caseDista, casePhos float64
	sysOff, sysDista := map[Scenario]float64{}, map[Scenario]float64{}
	bestX, worstX := 0.0, 0.0
	for i, op := range dista.ops {
		o, d := off.rowMedian(i), dista.rowMedian(i)
		if op.caseID == 0 {
			sysOff[op.sc] += o
			sysDista[op.sc] += d
			key := "paper.global_taints_sdt_max"
			if op.sc == SIM {
				key = "paper.global_taints_sim_max"
			}
			m[key] = max(m[key], float64(dista.taints[i]))
			continue
		}
		caseOff += o
		caseDista += d
		casePhos += phos.rowMedian(i)
		ms := d / 1e6
		if op.group == "JRE Socket" {
			x := ratio(d, o)
			if bestX == 0 || x < bestX {
				bestX, m["jre.case_ms_socket_best"] = x, ms
			}
			if x > worstX {
				worstX, m["jre.case_ms_socket_worst"] = x, ms
			}
		}
		switch op.caseID {
		case 23:
			m["jre.case_ms_datagram"] = ms
		case 24:
			m["jre.case_ms_channel"] = ms
		case 27:
			m["jre.case_ms_http"] = ms
		}
	}
	m["paper.tablev_avg_x"] = ratio(caseDista, caseOff)
	m["paper.tablev_socket_best_x"] = bestX
	m["paper.tablev_socket_worst_x"] = worstX
	m["paper.tablevi_sdt_avg_x"] = ratio(sysDista[SDT], sysOff[SDT])
	m["paper.tablevi_sim_avg_x"] = ratio(sysDista[SIM], sysOff[SIM])
	m["paper.phosphor_avg_x"] = ratio(casePhos, caseOff)
}
