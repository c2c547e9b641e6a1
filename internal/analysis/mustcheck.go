package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MustCheck flags discarded results of the Taint Map client/store
// surface: Register*, Lookup*, Drain* and TryTake* calls on
// internal/taintmap types. Dropping the returned Global ID breaks the
// cross-node transfer chain (the byte ships untainted), dropping the
// error hides degraded-mode outcomes (ErrDegraded, ErrOverloaded) that
// callers are required to route — see the resilience contract in
// DESIGN.md §5 — and dropping a Budget.TryTake
// verdict charges the retry budget while ignoring its denial, exactly
// the retry-storm the budget exists to prevent (§10).
var MustCheck = &Analyzer{
	Name: "mustcheck",
	Doc: "results of internal/taintmap Register*/Lookup*/Drain*/TryTake* calls must be used: " +
		"the Global ID, error, and admission verdict carry the soundness signal",
	Run: runMustCheck,
}

func runMustCheck(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			how := "discarded"
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = n.Call
			case *ast.DeferStmt:
				call = n.Call
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 || !allBlank(n.Lhs) {
					return true
				}
				call, _ = n.Rhs[0].(*ast.CallExpr)
				how = "assigned to blanks"
			default:
				return true
			}
			if call == nil {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || !isTaintMapMust(fn.Name()) {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil {
				return true
			}
			if sig.Results().Len() == 0 {
				return true
			}
			// Scope to the taintmap package's own API, wherever the
			// method is declared (client structs, Store, Budget).
			if !hasPathSuffix(fn.Pkg(), "internal/taintmap") {
				return true
			}
			pass.Reportf(call.Pos(),
				"result of %s %s; the Global ID / error must be checked (or //lint:ignore with a reason)",
				fn.Name(), how)
			return true
		})
	}
}

// isTaintMapMust reports whether name is part of the must-check
// surface of the taintmap package.
func isTaintMapMust(name string) bool {
	return strings.HasPrefix(name, "Register") ||
		strings.HasPrefix(name, "Lookup") ||
		strings.HasPrefix(name, "Drain") ||
		strings.HasPrefix(name, "TryTake")
}

// allBlank reports whether every expression is the blank identifier.
func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
