package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// ErrCmp enforces the typed-error discipline introduced with the
// resilience layer (taintmap.ErrDegraded, ErrCallTimeout, …): package
// sentinel errors must be matched with errors.Is, never ==/!=. The
// resilient client wraps sentinels (ErrDegraded and ErrOverloaded
// reach callers in %w wraps), so an identity comparison
// silently stops matching the moment a wrap is added — exactly the
// regression class errors.Is exists for. Comparisons against io
// sentinels (io.EOF et al.) are exempt: the io.Reader contract
// guarantees they are returned unwrapped.
//
// It also flags errors.As(err, &Sentinel) where Sentinel is one of
// those package sentinels: the target then has type *error, so As
// matches the first error in the chain unconditionally and assigns it
// into the package-level sentinel — a mutation of shared state dressed
// up as a check. The wire path makes this tempting: the client
// re-types the server's ErrOverloaded marker into a fresh %w wrap
// (protocol decode), and As "works" on it in tests while silently
// corrupting the sentinel for every other comparison in the process.
var ErrCmp = &Analyzer{
	Name: "errcmp",
	Doc: "sentinel errors (Err*/err*) must be matched with errors.Is, not ==/!=, " +
		"switch cases, or errors.As against the sentinel; io.EOF conventions are exempt",
	Run: runErrCmp,
}

// sentinelNameRE matches the naming convention of package sentinel
// errors in this tree: ErrClosed, ErrDegraded, errProtocol, …
var sentinelNameRE = regexp.MustCompile(`^(Err|err)[A-Z]`)

func runErrCmp(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				x, y := unparen(n.X), unparen(n.Y)
				if isNilIdent(pass, x) || isNilIdent(pass, y) {
					return true // nil checks are fine
				}
				s := sentinelVar(pass, x)
				if s == nil {
					s = sentinelVar(pass, y)
				}
				if s == nil || hasPathSuffix(s.Pkg(), "io") {
					return true
				}
				pass.Reportf(n.Pos(),
					"sentinel error %s compared with %s; wrapped errors will not match — use errors.Is",
					s.Name(), n.Op)
			case *ast.CallExpr:
				if !isErrorsAs(pass, n) || len(n.Args) != 2 {
					return true
				}
				addr, ok := unparen(n.Args[1]).(*ast.UnaryExpr)
				if !ok || addr.Op != token.AND {
					return true
				}
				s := sentinelVar(pass, unparen(addr.X))
				if s == nil || hasPathSuffix(s.Pkg(), "io") {
					return true
				}
				pass.Reportf(n.Pos(),
					"errors.As target &%s is a pointer to the sentinel itself: it matches any error "+
						"and overwrites %s — use errors.Is(err, %s)",
					s.Name(), s.Name(), s.Name())
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				if t := pass.TypeOf(n.Tag); t == nil || !implementsError(t) {
					return true
				}
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if s := sentinelVar(pass, unparen(e)); s != nil && !hasPathSuffix(s.Pkg(), "io") {
							pass.Reportf(e.Pos(),
								"sentinel error %s used as a switch case (identity comparison); use an errors.Is chain",
								s.Name())
						}
					}
				}
			}
			return true
		})
	}
}

// sentinelVar returns the package-level error variable e refers to, if
// its name follows the sentinel convention.
func sentinelVar(pass *Pass, e ast.Expr) *types.Var {
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[e.Sel]
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !sentinelNameRE.MatchString(v.Name()) || !implementsError(v.Type()) {
		return nil
	}
	return v
}

// isErrorsAs reports whether call invokes the stdlib errors.As.
func isErrorsAs(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "As" {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "errors"
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.Info.Uses[id].(*types.Nil)
	return isNil
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func implementsError(t types.Type) bool {
	return types.Implements(t, errorIface)
}
