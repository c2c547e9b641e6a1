package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dista/internal/load"
)

func TestParseMix(t *testing.T) {
	m, err := parseMix("70/10/10/10")
	if err != nil {
		t.Fatal(err)
	}
	if m != (load.Mix{Clean: 70, Uniform: 10, Sparse: 10, Dense: 10}) {
		t.Fatalf("mix = %+v", m)
	}
	for _, bad := range []string{"70/10/10", "70/10/10/20", "a/b/c/d", "-10/50/30/30"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("parseMix(%q) accepted", bad)
		}
	}
	p, err := parsePaths("60/20/20")
	if err != nil {
		t.Fatal(err)
	}
	if p != (load.PathMix{Stream: 60, Datagram: 20, Vectored: 20}) {
		t.Fatalf("paths = %+v", p)
	}
	if _, err := parsePaths("50/50"); err == nil {
		t.Fatal("short path mix accepted")
	}
}

func TestRunHuman(t *testing.T) {
	var out bytes.Buffer
	cfg := load.Config{Conns: 50, Ops: 2, Payload: 256}
	if err := run(cfg, false, &out); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"p999=", "heap per idle conn"} {
		if !strings.Contains(out.String(), k) {
			t.Fatalf("human report missing %q: %q", k, out.String())
		}
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	cfg := load.Config{Conns: 50, Ops: 2, Payload: 256}
	if err := run(cfg, true, &out); err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep["ops"].(float64) != 100 {
		t.Fatalf("ops = %v, want 100", rep["ops"])
	}
	for _, k := range []string{"p50_ns", "p99_ns", "p999_ns", "sink_goroutines", "taints_per_sec", "heap_per_conn_b"} {
		if _, ok := rep[k]; !ok {
			t.Fatalf("JSON report missing %q", k)
		}
	}
	if h := rep["heap_per_conn_b"].(float64); h <= 0 {
		t.Fatalf("heap_per_conn_b = %v, want > 0: an open connection holds heap", h)
	}
}
