package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run(0, "dista", 0, true); err != nil {
		t.Fatal(err)
	}
}

// TestWriteTableII checks the -list output: the Table II case inventory
// and its group counts.
func TestWriteTableII(t *testing.T) {
	var buf bytes.Buffer
	writeTableII(&buf)
	out := buf.String()
	if !strings.Contains(out, "TABLE II") || !strings.Contains(out, "Netty HTTP") {
		t.Fatalf("table II output:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got < 35 {
		t.Fatalf("table II too short: %d lines", got)
	}
}

func TestRunSmallCase(t *testing.T) {
	for _, mode := range []string{"off", "phosphor", "dista"} {
		if err := run(1, mode, 8<<10, false); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
}

func TestRunBadCase(t *testing.T) {
	if err := run(99, "dista", 1024, false); err == nil {
		t.Fatal("want error for unknown case")
	}
}

func TestRunBadMode(t *testing.T) {
	if err := run(1, "warp", 1024, false); err == nil {
		t.Fatal("want error for unknown mode")
	}
}

// TestRunBadSize: a payload of no bytes has nothing to taint, and a
// negative one nothing to allocate; both are refused before the case runs.
func TestRunBadSize(t *testing.T) {
	for _, size := range []int{0, -5} {
		if err := run(1, "dista", size, false); err == nil || !strings.Contains(err.Error(), "-size") {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

// TestVerdict: the exit status is the soundness and precision verdict —
// exactly both sources' taints at the sink, in order, and nothing else.
func TestVerdict(t *testing.T) {
	if err := verdict([]string{"Data1", "Data2"}); err != nil {
		t.Fatal(err)
	}
	for _, tags := range [][]string{nil, {"Data1"}, {"Data2", "Data1"}, {"Data1", "Data2", "Data3"}} {
		if err := verdict(tags); err == nil {
			t.Fatalf("sink tags %v passed the verdict", tags)
		}
	}
}
