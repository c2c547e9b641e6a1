// Command benchmark is the repository's one performance harness: a
// single-process, seeded, closed-loop driver that runs whole taint
// exchanges between two instrumented nodes, checks every byte and
// every byte's tag set, and prices each layer of the exchange on the
// same payloads. See README.md for the workloads and the metrics.
//
//	go run ./benchmark                      # every workload, end to end and per layer
//	go run ./benchmark -sets 2              # run the suite twice and compare against the bounds
//	go run ./benchmark -workload dense_bulk -seed 3 -seconds 12 -trace 1
//
// With -workload the last line of standard output is one JSON object
// (correct, attempted, failed, metrics): the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// defaultSeconds is the measured time of one run; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 20

// result is what one run of one workload reports.
type result struct {
	workload  string
	attempted int64
	failed    int64
	defs      []metricDef
	m         metrics
}

func (r *result) correct() bool {
	if r.failed != 0 || r.attempted < 1 {
		return false
	}
	for _, d := range r.defs {
		if !finite(r.m[d.name]) {
			return false
		}
	}
	return true
}

// run measures one workload: end to end with trace 0; with trace 1 a
// shorter untraced run for the driver's rows, a traced rerun and the
// ledger pass, which together give every per-layer row.
func (o *options) run(w *workload, trace int) (*result, error) {
	if trace == 0 {
		m, err := o.measure(w, o.seconds)
		if err != nil {
			return nil, err
		}
		defer m.close()
		m.printSegments()
		res := &result{workload: w.name, defs: endToEnd, m: m.endToEnd()}
		res.attempted, res.failed = m.counts()
		return res, nil
	}
	m, err := o.measure(w, 0.4*o.seconds)
	if err != nil {
		return nil, err
	}
	defer m.close()
	rows := m.driverRows()
	rows["driver.trace_overhead_x"] = m.traced(0.1 * o.seconds)
	tracedRun := m.dista
	if !w.paper {
		// The ledger needs the run's counts, not its rigs, and must not
		// time its calls against a collector tracing their heaps. And a
		// responder records its last spans after its last echo has left,
		// so the rig is closed before they are written out.
		m.close()
	}
	if err := tracedRun.writeTrace(filepath.Join(o.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, fmt.Errorf("%s: trace: %w", w.name, err)
	}
	// Rows neither part sets read 0: layers this workload never reaches.
	if err := o.ledger(m, 0.5*o.seconds, rows); err != nil {
		return nil, fmt.Errorf("%s: ledger: %w", w.name, err)
	}
	res := &result{workload: w.name, defs: perLayer, m: rows}
	res.attempted, res.failed = m.counts()
	return res, nil
}

// json renders the result as the one-line object the driver reads.
func (r *result) json() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, d := range r.defs {
		v := r.m[d.name]
		if !finite(v) {
			v = 0
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only finite floats and strings: cannot fail
	}
	return string(b)
}

// parseResult reads a result line back.
func parseResult(workload string, defs []metricDef, line string) (*result, error) {
	var in struct {
		Attempted, Failed int64
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(line), &in); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	res := &result{workload: workload, attempted: in.Attempted, failed: in.Failed, defs: defs, m: metrics{}}
	for name, v := range in.Metrics {
		res.m[name] = v.Value
	}
	return res, nil
}

// child runs one workload in a process of its own, as the driver does:
// the program keeps some state per run, and what one workload leaves on
// the heap must not be charged to the next one's live_heap_mb. The
// child's report goes to report, if not nil, without its result line,
// which is returned parsed.
func (o *options) child(w *workload, trace int, report io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append(o.childArgs, "-workload", w.name, "-trace", strconv.Itoa(trace))...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if err != nil {
		os.Stdout.Write(out)
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if report != nil {
		fmt.Fprintln(report, strings.Join(lines[:len(lines)-1], "\n"))
	}
	defs := endToEnd
	if trace != 0 {
		defs = perLayer
	}
	return parseResult(w.name, defs, lines[len(lines)-1])
}

func (r *result) print() {
	fmt.Printf("%s: attempted %d, failed %d, failed_ops_share %g\n",
		r.workload, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for _, d := range r.defs {
		fmt.Printf("  %-48s %16.6g %s\n", d.name, r.m[d.name], d.unit)
	}
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (o *options) printHeader() {
	fmt.Printf("seed %d  seconds %g  commit %s  %s  nproc %d  GOMAXPROCS %d  connections %d  set-ups %d  pairs %d\n",
		o.seed, o.seconds, commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), connections(), o.setups, o.pairs)
	fmt.Print("warm-up ops per mode (fixed):")
	for i := range workloads {
		fmt.Printf(" %s %d", workloads[i].name, o.warmOps(&workloads[i]))
	}
	fmt.Println("; measured ops fill the time and are counted in each result's attempted")
}

// compareSets runs the end-to-end suite n times and reports, per
// workload and metric, every value, how far the worst later set is
// worse than the first, and the bound. It returns false if a gap exceeds
// its bound.
func (o *options) compareSets(n int) (bool, error) {
	sets := make([]map[string]metrics, n)
	for s := range sets {
		sets[s] = map[string]metrics{}
		for i := range workloads {
			res, err := o.child(&workloads[i], 0, nil)
			if err != nil {
				return false, fmt.Errorf("set %d: %w", s+1, err)
			}
			sets[s][res.workload] = res.m
		}
	}
	ok := true
	fmt.Printf("%-18s %-28s %s  gap  bound\n", "workload", "metric", strings.Repeat("value ", n))
	for _, w := range workloads {
		for _, d := range endToEnd {
			base, gap := sets[0][w.name][d.name], 0.0
			var vals []string
			for s := range sets {
				v := sets[s][w.name][d.name]
				vals = append(vals, fmt.Sprintf("%.6g", v))
				worse := (v - base) / base
				if d.better == "higher" {
					worse = -worse
				}
				gap = math.Max(gap, worse)
			}
			verdict := ""
			if gap > d.bound {
				ok, verdict = false, "  EXCEEDS BOUND"
			}
			fmt.Printf("%-18s %-28s %s  %.2f%%  %.0f%%%s\n", w.name, d.name, strings.Join(vals, " "), 100*gap, 100*d.bound, verdict)
		}
	}
	return ok, nil
}

func main() {
	var (
		name  = flag.String("workload", "", "run this workload only and end with the result as one line of JSON")
		seed  = flag.Int64("seed", 1, "seed of every generated input")
		secs  = flag.Float64("seconds", defaultSeconds, "measured seconds per run")
		trace = flag.Int("trace", 0, "0: end-to-end metrics from the untraced run; 1: per-layer metrics from the traced run and the ledger pass")
		quick = flag.Bool("quick", false, "divide the measured time and the warm-up by 20, set up once, run one pair of segments")
		sets  = flag.Int("sets", 1, "run the end-to-end suite this many times and compare the sets against the bounds")
		out   = flag.String("out", "benchmark/out", "directory for traces and scratch files")
	)
	flag.Parse()
	o := &options{seed: *seed, seconds: *secs, outDir: *out, timeout: opTimeout, setups: setupRepeat, pairs: runPairs}
	o.childArgs = []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.FormatFloat(*secs, 'g', -1, 64), "-out", *out}
	if *quick {
		o.seconds, o.setups, o.pairs, o.quick = o.seconds/20, 1, 1, true
		o.childArgs = append(o.childArgs, "-quick")
	}
	if err := o.main(*name, *trace, *sets); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func (o *options) main(name string, trace, sets int) error {
	switch {
	case name != "":
		o.printHeader()
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		res, err := o.run(w, trace)
		if err != nil {
			return err
		}
		res.print()
		fmt.Println(res.json())
		if !res.correct() {
			return fmt.Errorf("%s: %d of %d ops failed or a metric is missing", w.name, res.failed, res.attempted)
		}
	case sets > 1:
		o.printHeader()
		ok, err := o.compareSets(sets)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("sets differ by more than a bound")
		}
	default:
		for i := range workloads {
			for trace := 0; trace <= 1; trace++ {
				if _, err := o.child(&workloads[i], trace, os.Stdout); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
