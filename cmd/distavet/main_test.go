package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

var corpus = filepath.Join("..", "..", "internal", "analysis", "testdata", "src")

// TestSeededViolationsFailTheRun pins the vet contract: analyzing a
// package seeded with violations prints file:line: analyzer: message
// diagnostics and exits non-zero.
func TestSeededViolationsFailTheRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{filepath.Join(corpus, "errcmp")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "errcmp.go:") || !strings.Contains(out, ": errcmp: sentinel error") {
		t.Fatalf("diagnostics missing file:line: analyzer: message shape:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Fatalf("stderr should summarize the finding count, got %q", stderr.String())
	}
}

// TestRunFilter covers -run selection and unknown-analyzer rejection.
func TestRunFilter(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// lockorder has nothing to say about the errcmp corpus.
	if code := run([]string{"-run", "lockorder", filepath.Join(corpus, "errcmp")}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if code := run([]string{"-run", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown analyzer: exit = %d, want 2", code)
	}
}

// TestJSONOutput covers -json: a well-formed array whose entries carry
// the file/line/analyzer/message fields of the plain format.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", filepath.Join(corpus, "errcmp")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(diags) == 0 {
		t.Fatal("-json reported no diagnostics for the seeded corpus")
	}
	for _, d := range diags {
		if d.File == "" || d.Line <= 0 || d.Analyzer != "errcmp" || d.Message == "" {
			t.Fatalf("malformed diagnostic: %+v", d)
		}
	}
}

// TestList covers -list output.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, name := range []string{"shadowdrop", "labelcopy", "errcmp", "lockorder", "mustcheck"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}
