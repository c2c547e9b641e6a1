// Package analysis is distavet's static-analysis suite: a small
// go/analysis-style framework plus the analyzers that machine-check
// the taint-soundness invariants of this tree (see DESIGN.md §6, §11).
//
// The framework mirrors golang.org/x/tools/go/analysis in shape — an
// Analyzer runs over one type-checked package via a Pass and reports
// position-anchored diagnostics — but is built entirely on the
// standard library so the module keeps zero external dependencies.
// Since PR 9 the suite is interprocedural: before any analyzer runs,
// the driver builds a module-wide call graph and per-function
// summaries (callgraph.go, summary.go) that every Pass can query
// through Pass.Index, and packages are analyzed in parallel (bounded
// by GOMAXPROCS) with deterministic output ordering.
//
// A finding can be silenced with a staticcheck-style comment on the
// offending line or the line directly above it:
//
//	//lint:ignore distavet/<analyzer> reason the drop is deliberate
//
// The reason is mandatory: a suppression without one is itself
// reported (as analyzer "suppression") so audits never go stale. And
// since PR 9 a well-formed suppression whose diagnostic no longer
// fires is reported by the deadsuppress analyzer, so stale ignores
// can't linger after the code they excused is gone.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"

	"dista/internal/analysis/loader"
)

// An Analyzer checks one invariant over one package at a time.
type Analyzer struct {
	Name string // short name; diagnostics print as "file:line: <Name>: msg"
	Doc  string // one-paragraph description of the invariant enforced
	Run  func(*Pass)
}

// A Pass is one (analyzer, package) execution: the type-checked
// package plus the interprocedural index and the reporting sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Path     string // import path of the package under analysis
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Index    *Index // module-wide call graph + function summaries

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// All returns the full distavet suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{ShadowDrop, LabelCopy, ErrCmp, LockOrder, MustCheck,
		TierEncode, TaintFlow, DeadSuppress}
}

// ByName resolves a comma-separated analyzer-name list against All.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	return out, nil
}

// indexCache memoizes the interprocedural index per load session. A
// Program's package set only grows (LoadDir adds golden targets), so
// the universe size is a sufficient validity stamp: same size → same
// packages → same summaries.
var (
	indexMu    sync.Mutex
	indexCache = map[*loader.Program]*indexEntry{}
)

type indexEntry struct {
	universe int
	idx      *Index
}

// indexFor returns the (possibly cached) index over prog's current
// package universe.
func indexFor(prog *loader.Program) *Index {
	universe := prog.Packages()
	indexMu.Lock()
	defer indexMu.Unlock()
	if e, ok := indexCache[prog]; ok && e.universe == len(universe) {
		return e.idx
	}
	idx := BuildIndex(universe)
	indexCache[prog] = &indexEntry{universe: len(universe), idx: idx}
	return idx
}

// ResetIndexCache drops every memoized interprocedural index. The
// benchmarks use it to measure cold-start analysis cost; real drivers
// never need to call it.
func ResetIndexCache() {
	indexMu.Lock()
	defer indexMu.Unlock()
	indexCache = map[*loader.Program]*indexEntry{}
}

// Run applies the analyzers to every package (external test packages
// included), honors //lint:ignore suppressions, and returns the
// surviving diagnostics sorted by position. Malformed suppression
// comments are reported under the pseudo-analyzer "suppression".
// Packages are analyzed concurrently; output order is deterministic.
func Run(prog *loader.Program, pkgs []*loader.Package, analyzers []*Analyzer) []Diagnostic {
	var targets []*loader.Package
	for _, pkg := range pkgs {
		targets = append(targets, pkg)
		if pkg.XTest != nil {
			targets = append(targets, pkg.XTest)
		}
	}

	runSet := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		runSet[a.Name] = true
	}

	idx := indexFor(prog)

	// Per-target analysis, run concurrently with pass-local diagnostic
	// slices.
	results := make([][]Diagnostic, len(targets))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range targets {
		wg.Add(1)
		go func(i int, pkg *loader.Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var local []Diagnostic
			for _, a := range analyzers {
				a.Run(&Pass{
					Analyzer: a,
					Fset:     prog.Fset,
					Path:     pkg.Path,
					Files:    pkg.Files,
					Pkg:      pkg.Types,
					Info:     pkg.Info,
					Index:    idx,
					diags:    &local,
				})
			}
			results[i] = local
		}(i, pkg)
	}
	wg.Wait()

	var diags []Diagnostic
	for _, r := range results {
		diags = append(diags, r...)
	}

	sup, bad := collectSuppressions(prog.Fset, targets)
	if runSet[DeadSuppress.Name] {
		diags = append(diags, deadSuppressions(diags, sup, runSet)...)
	}
	diags = append(diags, bad...)
	diags = applySuppressions(diags, sup)
	diags = dedup(diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// dedup collapses identical findings: analyses that rescan a region
// under a different symbolic state (lockorder's loop-carried pass) may
// report the same violation twice.
func dedup(diags []Diagnostic) []Diagnostic {
	seen := make(map[Diagnostic]bool, len(diags))
	keep := diags[:0]
	for _, d := range diags {
		if !seen[d] {
			seen[d] = true
			keep = append(keep, d)
		}
	}
	return keep
}

// suppression is one well-formed //lint:ignore comment: it silences
// the named analyzers on its own line and the line directly below.
type suppression struct {
	file      string
	line      int
	analyzers map[string]bool
}

var ignoreRE = regexp.MustCompile(`^//lint:ignore\s+(distavet/\w+(?:\s*,\s*distavet/\w+)*)\s+(\S.*)$`)

// collectSuppressions scans every comment of every file for
// //lint:ignore markers, returning the valid suppressions and a
// diagnostic for each malformed one.
func collectSuppressions(fset *token.FileSet, pkgs []*loader.Package) ([]suppression, []Diagnostic) {
	var sups []suppression
	var bad []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					if !strings.HasPrefix(text, "//lint:ignore") {
						continue
					}
					m := ignoreRE.FindStringSubmatch(text)
					if m == nil {
						bad = append(bad, Diagnostic{
							Analyzer: "suppression",
							Pos:      fset.Position(c.Pos()),
							Message:  "malformed //lint:ignore comment: needs a reason (//lint:ignore distavet/<analyzer> reason)",
						})
						continue
					}
					names := make(map[string]bool)
					for _, n := range strings.Split(m[1], ",") {
						names[strings.TrimPrefix(strings.TrimSpace(n), "distavet/")] = true
					}
					pos := fset.Position(c.Pos())
					sups = append(sups, suppression{file: pos.Filename, line: pos.Line, analyzers: names})
				}
			}
		}
	}
	return sups, bad
}

// applySuppressions drops the diagnostics covered by a suppression.
func applySuppressions(diags []Diagnostic, sups []suppression) []Diagnostic {
	if len(sups) == 0 {
		return diags
	}
	keep := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, s := range sups {
			if s.file == d.Pos.Filename && (s.line == d.Pos.Line || s.line+1 == d.Pos.Line) &&
				s.analyzers[d.Analyzer] {
				suppressed = true
				break
			}
		}
		if !suppressed {
			keep = append(keep, d)
		}
	}
	return keep
}

// deadSuppressions implements the deadsuppress analyzer: a well-formed
// suppression is dead when every analyzer it names was part of this
// run and none of them produced a diagnostic the suppression covers —
// the finding it once excused no longer fires. Suppressions naming an
// analyzer outside the run set are left alone (a partial run proves
// nothing about them).
func deadSuppressions(raw []Diagnostic, sups []suppression, runSet map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, s := range sups {
		judgeable := true
		var names []string
		for name := range s.analyzers {
			names = append(names, name)
			if !runSet[name] {
				judgeable = false
			}
		}
		if !judgeable {
			continue
		}
		matched := false
		for _, d := range raw {
			if s.file == d.Pos.Filename && (s.line == d.Pos.Line || s.line+1 == d.Pos.Line) &&
				s.analyzers[d.Analyzer] {
				matched = true
				break
			}
		}
		if matched {
			continue
		}
		sort.Strings(names)
		out = append(out, Diagnostic{
			Analyzer: DeadSuppress.Name,
			Pos:      token.Position{Filename: s.file, Line: s.line},
			Message: fmt.Sprintf("suppression of distavet/%s matches no diagnostic; "+
				"the finding it excused no longer fires — delete the stale //lint:ignore",
				strings.Join(names, ", distavet/")),
		})
	}
	return out
}
