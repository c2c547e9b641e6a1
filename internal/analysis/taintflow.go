package analysis

import (
	"go/ast"
	"go/types"
)

// TaintFlow is the interprocedural escape analyzer: it tracks raw
// tracked-storage bytes (the .Data of taint.Bytes / jni.DirectBuffer,
// and values returned raw by callees) through local assignments and
// across call boundaries using the function summaries of DESIGN.md
// §11, and reports when they can reach write-shaped I/O with no label
// movement. This closes the two blind spots of the purely syntactic
// shadowdrop:
//
//   - laundering through a helper: `emit(b.Data)` where emit's body
//     (or anything it transitively calls, interface dispatch
//     included) hands the bytes to a sink — shadowdrop sees neither
//     the call site (emit is not a sink) nor the helper (no .Data
//     selection there);
//   - laundering through a local: `d := b.Data; w.Write(d)` — the
//     sink argument is a plain identifier, not a .Data selection.
//
// Syntactic `.Data`-into-sink escapes stay shadowdrop's findings and
// are deliberately not re-reported here. Callees with a summary are
// judged by the summary alone (a Write-named method that provably
// pairs labels is not a sink); only summary-less callees (stdlib,
// bodiless) fall back to the syntactic sink classification. The core
// label-moving layers are exempt as everywhere else.
var TaintFlow = &Analyzer{
	Name: "taintflow",
	Doc: "raw tracked bytes must not reach write-shaped I/O through helper " +
		"calls or local bindings; summaries make the check interprocedural",
	Run: runTaintFlow,
}

func runTaintFlow(pass *Pass) {
	if isCorePackage(pass) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkTaintFlow(pass, fd)
			}
		}
	}
}

func checkTaintFlow(pass *Pass, fd *ast.FuncDecl) {
	idx := pass.Index
	info := pass.Info

	// Collect assignments, then resolve which locals hold raw tracked
	// bytes — seeded by .Data selections and raw-returning calls,
	// propagated to a fixpoint.
	type assign struct {
		lhs types.Object
		rhs ast.Expr
	}
	var assigns []assign
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil {
					assigns = append(assigns, assign{lhs: obj, rhs: st.Rhs[i]})
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i, id := range st.Names {
					if obj := info.Defs[id]; obj != nil {
						assigns = append(assigns, assign{lhs: obj, rhs: st.Values[i]})
					}
				}
			}
		}
		return true
	})

	rawOwner := make(map[types.Object]string)
	var ownerOf func(e ast.Expr) (string, bool)
	ownerOf = func(e ast.Expr) (string, bool) {
		e = unparen(e)
		if owner, ok := taintedRawData(pass, e); ok {
			return owner, true
		}
		switch v := e.(type) {
		case *ast.SliceExpr:
			return ownerOf(v.X)
		case *ast.Ident:
			obj := info.Uses[v]
			if obj != nil && rawOwner[obj] != "" {
				return rawOwner[obj], true
			}
		case *ast.CallExpr:
			if callee := calleeFunc(pass, v); callee != nil {
				if cs := idx.SummaryOf(callee); cs != nil && len(cs.ReturnsRaw) == 1 && cs.ReturnsRaw[0] {
					return "tracked bytes returned by " + callee.Name(), true
				}
			}
		}
		return "", false
	}
	for changed := true; changed; {
		changed = false
		for _, a := range assigns {
			if rawOwner[a.lhs] != "" {
				continue
			}
			if owner, ok := ownerOf(a.rhs); ok {
				rawOwner[a.lhs] = owner
				changed = true
			}
		}
	}

	// Walk every call, judging each raw argument: callees with
	// summaries by their summaries, summary-less callees by the
	// syntactic sink classification (local bindings only — syntactic
	// .Data into a direct sink is shadowdrop's finding).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil || labelSafeCallee(idx, callee) {
			return true
		}
		calleeSig, _ := callee.Type().(*types.Signature)

		// Resolve the summaries that may run at this site.
		type target struct {
			fn *types.Func
			s  *FuncSummary
		}
		_, isIfaceCall := interfaceMethod(callee)
		var targets []target
		if isIfaceCall {
			for _, impl := range idx.Implementations(callee) {
				if cs := idx.SummaryOf(impl); cs != nil {
					targets = append(targets, target{fn: impl, s: cs})
				}
			}
		} else if cs := idx.SummaryOf(callee); cs != nil {
			targets = append(targets, target{fn: callee, s: cs})
		}

		for argIdx, arg := range call.Args {
			owner, isRaw := ownerOf(arg)
			if !isRaw {
				continue
			}
			_, syntactic := taintedRawData(pass, arg)

			// Interface calls may dispatch outside the universe, so the
			// syntactic sink classification applies alongside candidate
			// summaries; a static callee with a summary is judged by
			// the summary alone.
			if len(targets) == 0 || isIfaceCall {
				if sink, isSink := externalSink(idx, callee); isSink {
					if !syntactic {
						pass.Reportf(arg.Pos(),
							"raw bytes of %s reach %s through a local binding; shadow labels are dropped — route through the jre/instrument API",
							owner, sink)
					}
					continue // the syntactic direct form is shadowdrop's finding
				}
			}
			if calleeSig == nil {
				continue
			}
			j := paramIndexForArg(calleeSig, argIdx)
			if j < 0 {
				continue
			}
			for _, t := range targets {
				if j < len(t.s.Escapes) && t.s.Escapes[j] {
					via := callee.Name()
					if t.fn != callee {
						via = callee.Name() + " (dispatching to " + t.fn.Name() + ")"
					}
					pass.Reportf(arg.Pos(),
						"raw bytes of %s are laundered through %s, which lets them escape into %s with no label movement; shadow labels are dropped — route through the jre/instrument API",
						owner, via, t.s.EscapeSink[j])
					break
				}
			}
		}
		return true
	})
}
