// Command dista-load is the closed-loop load generator for the netsim
// scheduler fabric (DESIGN.md §12): it drives tens of thousands of
// concurrent instrumented connections — stream, datagram and vectored
// paths over a configurable taint-density mix, optionally against a
// live simulated taintmap cluster — and reports the tail latency the
// fabric actually delivers.
//
// Usage:
//
//	go run ./cmd/dista-load -conns 50000 -ops 4 -payload 1024
//	go run ./cmd/dista-load -conns 10000 -cluster 4 -json
//
// The default output is the human-readable report (throughput,
// p50/p99/p999, goroutine bill); -json emits the same fields as one
// JSON object for scripting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dista/internal/load"
)

func main() {
	var (
		conns       = flag.Int("conns", 10000, "concurrent sessions (connections)")
		ops         = flag.Int("ops", 8, "operations per session")
		payload     = flag.Int("payload", 1024, "payload bytes per operation")
		workers     = flag.Int("workers", 4, "driver goroutines multiplexing the sessions")
		sinkWorkers = flag.Int("sink-workers", 4, "echo-sink goroutines (polled mode)")
		mix         = flag.String("mix", "70/10/10/10", "clean/uniform/sparse/dense percentage split")
		paths       = flag.String("paths", "60/20/20", "stream/datagram/vectored percentage split")
		cluster     = flag.Int("cluster", 0, "taintmap cluster members (0 = shared local store)")
		perConn     = flag.Bool("sink-per-conn", false, "goroutine-per-connection echo sink (pre-fabric comparison shape)")
		jsonOut     = flag.Bool("json", false, "emit the report as JSON")
	)
	flag.Parse()

	cfg := load.Config{
		Conns:                *conns,
		Ops:                  *ops,
		Payload:              *payload,
		Workers:              *workers,
		SinkWorkers:          *sinkWorkers,
		ClusterMembers:       *cluster,
		SinkGoroutinePerConn: *perConn,
	}
	var err error
	if cfg.Mix, err = parseMix(*mix); err != nil {
		fmt.Fprintln(os.Stderr, "dista-load:", err)
		os.Exit(2)
	}
	if cfg.Paths, err = parsePaths(*paths); err != nil {
		fmt.Fprintln(os.Stderr, "dista-load:", err)
		os.Exit(2)
	}
	if err := run(cfg, *jsonOut, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dista-load:", err)
		os.Exit(1)
	}
}

func run(cfg load.Config, jsonOut bool, w io.Writer) error {
	r, err := load.Run(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonReport(r))
	}
	_, err = fmt.Fprintln(w, r)
	return err
}

// jsonReport flattens the Report into stable machine-readable fields
// (durations in nanoseconds, derived rates precomputed).
func jsonReport(r load.Report) map[string]any {
	return map[string]any{
		"conns":           r.Conns,
		"ops":             r.Ops,
		"bytes":           r.Bytes,
		"taint_bytes":     r.TaintBytes,
		"elapsed_ns":      r.Elapsed.Nanoseconds(),
		"p50_ns":          r.P50.Nanoseconds(),
		"p99_ns":          r.P99.Nanoseconds(),
		"p999_ns":         r.P999.Nanoseconds(),
		"ops_per_sec":     r.OpsPerSec(),
		"bytes_per_sec":   r.BytesPerSec(),
		"taints_per_sec":  r.TaintsPerSec(),
		"sink_goroutines": r.SinkGoroutines,
		"peak_goroutines": r.PeakGoroutines,
		"heap_per_conn_b": r.HeapPerConn,
	}
}

// parseMix parses "clean/uniform/sparse/dense" percentages.
func parseMix(s string) (load.Mix, error) {
	ps, err := splitPercents(s, 4)
	if err != nil {
		return load.Mix{}, fmt.Errorf("-mix %q: %w", s, err)
	}
	return load.Mix{Clean: ps[0], Uniform: ps[1], Sparse: ps[2], Dense: ps[3]}, nil
}

// parsePaths parses "stream/datagram/vectored" percentages.
func parsePaths(s string) (load.PathMix, error) {
	ps, err := splitPercents(s, 3)
	if err != nil {
		return load.PathMix{}, fmt.Errorf("-paths %q: %w", s, err)
	}
	return load.PathMix{Stream: ps[0], Datagram: ps[1], Vectored: ps[2]}, nil
}

func splitPercents(s string, n int) ([]int, error) {
	parts := strings.Split(s, "/")
	if len(parts) != n {
		return nil, fmt.Errorf("want %d '/'-separated percentages", n)
	}
	out := make([]int, n)
	sum := 0
	for i, p := range parts {
		v := 0
		if _, err := fmt.Sscanf(p, "%d", &v); err != nil || v < 0 {
			return nil, fmt.Errorf("bad percentage %q", p)
		}
		out[i] = v
		sum += v
	}
	if sum != 100 {
		return nil, fmt.Errorf("percentages sum to %d, want 100", sum)
	}
	return out, nil
}
