// Package loader parses and type-checks every package of the
// enclosing module using only the standard library: ASTs come from
// go/parser, types from go/types, and out-of-module imports (the
// standard library) from the compiler's export data, through
// go/importer's "gc" importer. One `go list -export -deps` names the
// export files of the standard packages a load imports, building any
// the build cache lacks; the standard library is never type-checked
// from source. It exists so the distavet analysis suite needs no
// golang.org/x/tools dependency and no network access.
//
// Unlike the go tool, the loader will also type-check packages that
// live under testdata/ directories (via LoadDir), which is how the
// analyzer golden tests compile their deliberately-broken inputs.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked package: its ASTs plus the go/types
// objects the analyzers consume.
type Package struct {
	Path  string      // import path ("dista/internal/core/taint")
	Dir   string      // absolute directory the files came from
	Name  string      // package name from the package clauses
	Files []*ast.File // files type-checked into Types (tests included when requested)
	Types *types.Package
	Info  *types.Info

	// XTest is the external (package foo_test) test package of the
	// same directory, when one exists and test loading is on.
	XTest *Package
}

// Program owns the file set, build context and package cache of one
// load session. It is not safe for concurrent use.
type Program struct {
	Fset         *token.FileSet
	Root         string // module root: the directory holding go.mod
	Module       string // module path from go.mod
	IncludeTests bool

	std     types.Importer         // export-data importer for out-of-module paths
	exports map[string]string      // standard package → export file ("" once listed without one)
	parsed  map[string][]*ast.File // by directory
	pkgs    map[string]*Package    // by import path (and synthetic LoadDir paths)
	loading map[string]bool        // cycle detection
}

// New prepares a load session for the module rooted at root. The
// module path is read from go.mod. Cgo is disabled, here for the
// module's own files and in `go list` for the standard library, so
// cgo-using packages (net) resolve through their pure-Go fallbacks.
func New(root string, includeTests bool) (*Program, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	build.Default.CgoEnabled = false
	p := &Program{
		Fset:         token.NewFileSet(),
		Root:         abs,
		Module:       module,
		IncludeTests: includeTests,
		exports:      make(map[string]string),
		parsed:       make(map[string][]*ast.File),
		pkgs:         make(map[string]*Package),
		loading:      make(map[string]bool),
	}
	p.std = importer.ForCompiler(p.Fset, "gc", p.openExport)
	return p, nil
}

// openExport opens the export file `go list` named for path. A path it
// named none for is an error; there is no other way to import it.
func (p *Program) openExport(path string) (io.ReadCloser, error) {
	file := p.exports[path]
	if file == "" {
		return nil, fmt.Errorf("loader: no export data for %s", path)
	}
	return os.Open(file)
}

// listStd finds the out-of-module imports of the packages in dirs and
// of the module packages they import, transitively, and runs one `go
// list -export -deps` over those not yet listed. The module has no
// dependencies, so only standard paths (no dot in the first element)
// are listed; any other import is left without export data.
func (p *Program) listStd(dirs ...string) error {
	var paths []string
	seen := make(map[string]bool)
	var visit func(dir string) error
	visit = func(dir string) error {
		if seen[dir] {
			return nil
		}
		seen[dir] = true
		files, err := p.parse(dir)
		if err != nil {
			return err
		}
		for _, f := range files {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if dir, ok := p.moduleDir(path); ok {
					if err := visit(dir); err != nil {
						return err
					}
					continue
				}
				first, _, _ := strings.Cut(path, "/")
				if _, listed := p.exports[path]; !listed && !strings.Contains(first, ".") {
					p.exports[path] = ""
					paths = append(paths, path)
				}
			}
		}
		return nil
	}
	for _, dir := range dirs {
		if err := visit(dir); err != nil {
			return err
		}
	}
	if len(paths) == 0 {
		return nil
	}
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps",
		"-f", "{{.ImportPath}}={{.Export}}"}, paths...)...)
	cmd.Dir = p.Root
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("loader: go list -export: %v\n%s", err, stderr.String())
	}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok {
			p.exports[path] = file
		}
	}
	return nil
}

// FindModuleRoot walks up from dir to the nearest directory holding a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("loader: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("loader: no module line in %s", gomod)
}

// ModulePackages loads every package of the module, in deterministic
// (import-path) order. Directories named testdata or vendor and
// dot/underscore directories are skipped, matching the go tool.
func (p *Program) ModulePackages() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(p.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != p.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	if err := p.listStd(dirs...); err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(p.Root, dir)
		if err != nil {
			return nil, err
		}
		ipath := p.Module
		if rel != "." {
			ipath = p.Module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := p.load(ipath)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// Package returns the already-loaded package for an import path, or
// loads it on demand (module paths only).
func (p *Program) Package(path string) (*Package, error) {
	return p.load(path)
}

// Packages returns a snapshot of every package loaded so far — module
// packages and LoadDir targets, external test packages included as
// their own entries — in deterministic import-path order. The
// interprocedural analysis layer uses this as the summary universe:
// a target package's callees are always in here, because type-checking
// the target forced their load.
func (p *Program) Packages() []*Package {
	paths := make([]string, 0, len(p.pkgs))
	for path := range p.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var out []*Package
	for _, path := range paths {
		pkg := p.pkgs[path]
		out = append(out, pkg)
		if pkg.XTest != nil {
			out = append(out, pkg.XTest)
		}
	}
	return out
}

// LoadDir type-checks the single package rooted at dir — which may be
// anywhere under the module, including testdata trees the go tool
// ignores — under a synthetic import path derived from its location.
func (p *Program) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(p.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		rel = filepath.Base(abs)
	}
	synthetic := "distavet.test/" + filepath.ToSlash(rel)
	if pkg, ok := p.pkgs[synthetic]; ok {
		return pkg, nil
	}
	pkg, err := p.loadDir(abs, synthetic)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("loader: no buildable Go files in %s", dir)
	}
	return pkg, nil
}

// hasGoFiles reports whether dir directly contains any .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// load resolves a module import path to its directory and loads it.
func (p *Program) load(path string) (*Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	if p.loading[path] {
		return nil, fmt.Errorf("loader: import cycle through %s", path)
	}
	p.loading[path] = true
	defer delete(p.loading, path)

	dir, ok := p.moduleDir(path)
	if !ok {
		return nil, fmt.Errorf("loader: %s is outside module %s", path, p.Module)
	}
	return p.loadDir(dir, path)
}

// moduleDir maps a module import path to its directory.
func (p *Program) moduleDir(path string) (string, bool) {
	if path == p.Module {
		return p.Root, true
	}
	rest, ok := strings.CutPrefix(path, p.Module+"/")
	if !ok {
		return "", false
	}
	return filepath.Join(p.Root, filepath.FromSlash(rest)), true
}

// loadDir partitions and type-checks the package in dir, registering
// it (and its external test package, if any) under path. Returns (nil,
// nil) when the directory has no buildable files.
func (p *Program) loadDir(dir, path string) (*Package, error) {
	if err := p.listStd(dir); err != nil {
		return nil, err
	}
	files, err := p.parse(dir)
	if err != nil || len(files) == 0 {
		return nil, err
	}

	// Partition: the primary package (plain files plus same-package
	// _test.go files) and the external foo_test package.
	primaryName := ""
	for _, f := range files {
		if !strings.HasSuffix(p.Fset.File(f.Pos()).Name(), "_test.go") {
			primaryName = f.Name.Name
			break
		}
	}
	if primaryName == "" { // test-only directory (e.g. the module root)
		primaryName = strings.TrimSuffix(files[0].Name.Name, "_test")
	}
	var primary, xtest []*ast.File
	for _, f := range files {
		if f.Name.Name == primaryName+"_test" {
			xtest = append(xtest, f)
		} else {
			primary = append(primary, f)
		}
	}

	pkg, err := p.check(path, primaryName, dir, primary)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = pkg // register before xtest so its self-import resolves
	if len(xtest) > 0 {
		xpkg, err := p.check(path+"_test", primaryName+"_test", dir, xtest)
		if err != nil {
			return nil, err
		}
		pkg.XTest = xpkg
	}
	return pkg, nil
}

// parse parses the buildable Go files of dir once per session.
func (p *Program) parse(dir string) ([]*ast.File, error) {
	if files, ok := p.parsed[dir]; ok {
		return files, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !p.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Respect build constraints (//go:build lines, GOOS/GOARCH
		// file suffixes) the same way the go tool would.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p.parsed[dir] = files
	return files, nil
}

// check runs the go/types checker over one file set.
func (p *Program) check(path, name, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var errs []error
	conf := types.Config{
		Importer: importerFunc(p.importPkg),
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, p.Fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, e := range errs {
			if i == 10 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-10))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("loader: type errors in %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return &Package{Path: path, Dir: dir, Name: name, Files: files, Types: tpkg, Info: info}, nil
}

// importPkg resolves one import encountered while type-checking:
// module paths through this loader, everything else (the standard
// library) from the export data listStd found.
func (p *Program) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == p.Module || strings.HasPrefix(path, p.Module+"/") {
		pkg, err := p.load(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("loader: no buildable Go files for %s", path)
		}
		return pkg.Types, nil
	}
	return p.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
