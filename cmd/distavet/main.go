// Command distavet runs the distavet static-analysis suite: vet-style
// analyzers that enforce this tree's taint-soundness invariants (see
// DESIGN.md §6). It is built entirely on the standard library and
// type-checks the module itself against the standard library's export
// data, so it needs neither golang.org/x/tools nor network access.
//
// Usage:
//
//	distavet [-tests=false] [-run name,name] [-list] [-json] [package dirs]
//
// With no arguments (or "./...") every package of the enclosing module
// is analyzed, test files included. Explicit directory arguments are
// analyzed instead — including directories under testdata/, which the
// go tool ignores; the analyzer golden corpora are loaded this way.
//
// -json emits the diagnostics as a JSON array instead of vet-style
// lines.
//
// Diagnostics print one per line as "file:line: analyzer: message".
// The exit status is 1 when any diagnostic is reported, 2 on usage or
// load errors, 0 on a clean tree. Findings can be suppressed with
//
//	//lint:ignore distavet/<analyzer> reason
//
// on the offending line or the line above it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dista/internal/analysis"
	"dista/internal/analysis/loader"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("distavet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tests := fs.Bool("tests", true, "analyze _test.go files too")
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *runNames != "" {
		var err error
		if analyzers, err = analysis.ByName(*runNames); err != nil {
			fmt.Fprintf(stderr, "distavet: %v\n", err)
			return 2
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "distavet: %v\n", err)
		return 2
	}
	root, err := loader.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "distavet: %v\n", err)
		return 2
	}
	prog, err := loader.New(root, *tests)
	if err != nil {
		fmt.Fprintf(stderr, "distavet: %v\n", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*loader.Package
	for _, pat := range patterns {
		switch pat {
		case "./...", "all":
			mod, err := prog.ModulePackages()
			if err != nil {
				fmt.Fprintf(stderr, "distavet: %v\n", err)
				return 2
			}
			pkgs = append(pkgs, mod...)
		default:
			pkg, err := prog.LoadDir(pat)
			if err != nil {
				fmt.Fprintf(stderr, "distavet: %s: %v\n", pat, err)
				return 2
			}
			pkgs = append(pkgs, pkg)
		}
	}

	diags := analysis.Run(prog, pkgs, analyzers)
	if *jsonOut {
		type jsonDiag struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			name := d.Pos.Filename
			if rel, err := filepath.Rel(cwd, name); err == nil && len(rel) < len(name) {
				name = rel
			}
			out = append(out, jsonDiag{File: name, Line: d.Pos.Line, Analyzer: d.Analyzer, Message: d.Message})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "distavet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			name := d.Pos.Filename
			if rel, err := filepath.Rel(cwd, name); err == nil && len(rel) < len(name) {
				name = rel
			}
			fmt.Fprintf(stdout, "%s:%d: %s: %s\n", name, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "distavet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
