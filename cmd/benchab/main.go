// Command benchab measures a change against a base commit the way the
// choosing-metrics guide asks a gain to be shown: the repository's
// benchmark (BENCHMARK.json's command) is built once at the base — its
// tree unpacked from `git archive` into a temporary directory, so no
// worktree is needed — and once in the working tree, the two binaries
// run one workload in alternating pairs with identical seed and run
// length, and every end-to-end metric gets each side's median and
// quartiles, the pairs the change won, and a verdict. Each binary's
// address mod 64 of every function holding one of dense_bulk's per-byte
// loops (denseLoops) is printed too, and "placement differs" names those
// where the two disagree: dense_bulk moves by several percent with the
// cache line such a loop starts on, so a dense_bulk reading is only
// judged beside them.
//
//	go run ./cmd/benchab -base HEAD~1 -workload dense_bulk [-pairs 10] [-seed 1] [-seconds 20]
//
// Verdicts, per metric: "better" needs the change to win at least nine
// tenths of the pairs (ties count for neither side) and the medians to
// lie further apart than the base's own interquartile distance, and no
// gain counts while the change failed more operations than the base;
// "worse" is a median beyond the bound BENCHMARK.json allows; anything
// else is "same". A run whose result lacks an end-to-end metric is an
// error, not a zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// report is the last stdout line of one benchmark run.
type report struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "git ref to compare the working tree against")
	workload := flag.String("workload", "", "benchmark workload to run")
	pairs := flag.Int("pairs", 10, "alternating base/change pairs")
	seed := flag.Int("seed", 1, "workload seed, the same on both sides")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: BENCHMARK.json run_seconds)")
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchab -base <ref> -workload <name> [-pairs 10] [-seed 1] [-seconds 20]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := compare(ctx, *base, *workload, *pairs, *seed, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func compare(ctx context.Context, base, workload string, pairs, seed int, seconds float64) error {
	var mf manifest
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(mf.Command) != 3 || mf.Command[0] != "go" || mf.Command[1] != "run" {
		return fmt.Errorf("BENCHMARK.json command %q is not `go run <package>`", mf.Command)
	}
	pkg := mf.Command[2]
	if seconds == 0 {
		seconds = mf.RunSeconds
	}

	tmp, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tree, archive := filepath.Join(tmp, "base"), filepath.Join(tmp, "base.tar")
	if err := run(ctx, ".", "git", "archive", "--prefix=base/", "-o", archive, base); err != nil {
		return err
	}
	if err := run(ctx, ".", "tar", "-x", "-f", archive, "-C", tmp); err != nil {
		return err
	}

	sides := [2]struct{ name, dir, bin string }{
		{"base", tree, filepath.Join(tmp, "bench-base")},
		{"change", ".", filepath.Join(tmp, "bench-change")},
	}
	var placed [2][]uint64 // per side, each dense loop's address (0: absent)
	for i, s := range sides {
		if err := run(ctx, s.dir, "go", "build", "-o", s.bin, pkg); err != nil {
			return fmt.Errorf("building %s at the %s: %w", pkg, s.name, err)
		}
		syms, err := output(ctx, ".", "go", "tool", "nm", s.bin)
		if err != nil {
			return err
		}
		for _, loop := range denseLoops {
			addr, ok := lineAt(syms, loop)
			placed[i] = append(placed[i], addr)
			if !ok {
				fmt.Printf("%s: %s not in the binary\n", s.name, short(loop[0]))
				continue
			}
			fmt.Printf("%s: %s at %#x (mod 64: %d)\n", s.name, short(loop[0]), addr, addr%64)
		}
	}
	var moved []string
	for k, loop := range denseLoops {
		if a, b := placed[0][k], placed[1][k]; a != 0 && b != 0 && a%64 != b%64 {
			moved = append(moved, short(loop[0]))
		}
	}
	if len(moved) > 0 {
		fmt.Printf("placement differs (another offset in the cache line): %s\n", strings.Join(moved, ", "))
	}

	var got [2][]report
	for p := 0; p < pairs; p++ {
		for k := 0; k < 2; k++ {
			i := (p + k) % 2 // alternate which side runs first
			s := sides[i]
			out, err := output(ctx, s.dir, s.bin,
				"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-out", filepath.Join(tmp, "out-"+s.name))
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", p+1, s.name, err)
			}
			r, err := parseResult(out, mf)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", p+1, s.name, err)
			}
			got[i] = append(got[i], r)
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", p+1, pairs)
	}

	var failed, attempted [2]int64
	for i := range got {
		for _, r := range got[i] {
			failed[i], attempted[i] = failed[i]+r.Failed, attempted[i]+r.Attempted
		}
	}
	fmt.Printf("%s, seed %d, %g s a run, %d pairs, base %s\n", workload, seed, seconds, pairs, base)
	fmt.Printf("%-30s %-6s %28s %28s %7s  %s\n", "metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, m := range mf.EndToEnd {
		var v [2][]float64
		for i := range got {
			for _, r := range got[i] {
				v[i] = append(v[i], r.Metrics[m.Name].Value)
			}
		}
		wins, verdict := judge(v[0], v[1], m.Better == "higher", m.Bound, failed[1] > failed[0])
		bq1, bmed, bq3 := quartiles(v[0])
		cq1, cmed, cq3 := quartiles(v[1])
		fmt.Printf("%-30s %-6s %28s %28s %4d/%-2d  %s\n", m.Name, m.Unit,
			fmt.Sprintf("%.4g [%.4g, %.4g]", bmed, bq1, bq3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", cmed, cq1, cq3), wins, pairs, verdict)
	}
	for i, s := range sides {
		fmt.Printf("%s: %d of %d operations failed\n", s.name, failed[i], attempted[i])
	}
	return nil
}

// parseResult reads a run's result from the last line of its output. An
// end-to-end metric missing from it is an error: read as 0, it would be
// a win for any lower-is-better metric.
func parseResult(out string, mf manifest) (report, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("last line is not the result: %w", err)
	}
	for _, m := range mf.EndToEnd {
		if _, ok := r.Metrics[m.Name]; !ok {
			return r, fmt.Errorf("the result has no %s", m.Name)
		}
	}
	return r, nil
}

// judge compares one metric over the pairs, base[p] against change[p],
// and returns the pairs the change won and the verdict. moreFailed — the
// change failed more operations than the base — withholds "better": a
// gain bought with failures is not one.
func judge(base, change []float64, higherBetter bool, bound float64, moreFailed bool) (wins int, verdict string) {
	sign := 1.0 // after this, lower is better
	if higherBetter {
		sign = -1
	}
	for p := range base {
		if sign*change[p] < sign*base[p] {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, cmed, _ := quartiles(change)
	gain := sign * (bmed - cmed)
	better := 10*wins >= 9*len(base) && gain > bq3-bq1
	switch {
	case better && moreFailed:
		return wins, "same (more operations failed)"
	case better:
		return wins, "better"
	case -gain > bound*math.Abs(bmed):
		return wins, "worse"
	}
	return wins, "same"
}

// quartiles returns the first quartile, median and third quartile of
// xs by linear interpolation between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// denseLoops are the functions that hold dense_bulk's per-byte loops,
// each by every name it has had: adoptGroups and putDense on the way in,
// encodeDense on the way out, the store's run walk and SetLabel in the
// labelling. A dense_bulk reading moves by several percent with the
// offset in its cache line that any of them starts at, and with no
// change in behaviour, so each one's is printed and compared.
var denseLoops = [][]string{
	{"dista/internal/instrument.(*streamReader).adoptGroups", "dista/internal/instrument.adoptGroups"},
	{"dista/internal/instrument.(*streamReader).putDense"},
	{"dista/internal/instrument.encodeDense"},
	{"dista/internal/core/taint.(*shadow).forEach"},
	{"dista/internal/core/taint.(*Bytes).SetLabel"},
}

// short drops the module's internal prefix from a symbol name.
func short(sym string) string { return strings.TrimPrefix(sym, "dista/internal/") }

// lineAt finds one of syms in `go tool nm` output and returns its
// address.
func lineAt(nm string, syms []string) (uint64, bool) {
	for _, line := range strings.Split(nm, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && slices.Contains(syms, f[2]) {
			if addr, err := strconv.ParseUint(f[0], 16, 64); err == nil {
				return addr, true
			}
		}
	}
	return 0, false
}

// run executes a command in dir, passing its output through to stderr.
func run(ctx context.Context, dir, name string, args ...string) error {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return nil
}

// output executes a command in dir and returns its standard output.
func output(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s: %w", filepath.Base(name), err)
	}
	return string(out), nil
}
