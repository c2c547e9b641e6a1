package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// hasPathSuffix reports whether pkg's import path equals suffix or
// ends in "/"+suffix. Matching by suffix instead of the full "dista/…"
// path keeps the analyzers working if the module is ever renamed.
func hasPathSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// pathHasSuffix is hasPathSuffix for a bare import-path string.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// unparen strips any number of parentheses around e.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// namedOf unwraps pointers and aliases down to the named type of t.
func namedOf(t types.Type) (*types.Named, bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u, true
		default:
			return nil, false
		}
	}
}

// calleeFunc resolves the called function or method of a call, or nil
// for builtins, conversions and calls through function values.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	return calleeFuncInfo(pass.Info, call)
}

// calleeFuncInfo is calleeFunc against a bare types.Info, usable from
// the summary engine where no Pass exists.
func calleeFuncInfo(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// taintedValueType reports whether named is one of the tracked value
// types whose Data field is raw label-less storage: core/taint.Bytes
// or jni.DirectBuffer.
func taintedValueType(named *types.Named) (string, bool) {
	obj := named.Obj()
	switch {
	case obj.Name() == "Bytes" && hasPathSuffix(obj.Pkg(), "internal/core/taint"):
		return "taint.Bytes", true
	case obj.Name() == "DirectBuffer" && hasPathSuffix(obj.Pkg(), "internal/jni"):
		return "jni.DirectBuffer", true
	}
	return "", false
}

// taintedRawData reports whether e denotes the raw []byte backing a
// tracked value: a (possibly re-sliced) selection of the Data field of
// taint.Bytes or jni.DirectBuffer. The returned string names the
// owning type for the diagnostic.
func taintedRawData(pass *Pass, e ast.Expr) (string, bool) {
	return taintedRawDataInfo(pass.Info, e)
}

// taintedRawDataInfo is taintedRawData against a bare types.Info.
func taintedRawDataInfo(info *types.Info, e ast.Expr) (string, bool) {
	for {
		switch v := unparen(e).(type) {
		case *ast.SliceExpr:
			e = v.X
		case *ast.SelectorExpr:
			sel := info.Selections[v]
			if sel == nil || sel.Kind() != types.FieldVal || sel.Obj().Name() != "Data" {
				return "", false
			}
			named, ok := namedOf(sel.Recv())
			if !ok {
				return "", false
			}
			return taintedValueType(named)
		default:
			return "", false
		}
	}
}

// corePackages are the layers allowed to touch raw tainted storage:
// the label store itself and the instrumented native/JRE surface that
// is responsible for moving labels alongside data.
var corePackages = []string{
	"internal/core/taint",
	"internal/jni",
	"internal/jre",
	"internal/instrument",
}

// isCorePackage reports whether the pass's package is one of the
// whitelisted raw-data layers.
func isCorePackage(pass *Pass) bool {
	for _, suffix := range corePackages {
		// The "_test" variant of a core package is core too.
		if pathHasSuffix(strings.TrimSuffix(pass.Path, "_test"), suffix) {
			return true
		}
	}
	return false
}

// trustedPackage reports whether pkg belongs to the label-moving trust
// domain: the core layers plus the wire codec. Functions defined here
// may take raw tainted storage — moving labels next to data is exactly
// their job — so their summaries never mark a parameter as escaping,
// and raw .Data handed to their label-safe parameters is the sanctioned
// fast path rather than a drop. The boundary is the package layer, not
// a naming convention: a lookalike helper elsewhere earns nothing.
func trustedPackage(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	if hasPathSuffix(pkg, "internal/core/wire") {
		return true
	}
	for _, suffix := range corePackages {
		if hasPathSuffix(pkg, suffix) {
			return true
		}
	}
	return false
}

// byteSlice reports whether t's underlying type is []byte.
func byteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// carriesLabels reports whether the signature has a parameter that can
// hold a payload's labels: []Run, []DirtyRange, []uint32, a single
// uint32 Global ID, or a core taint.Taint value.
func carriesLabels(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.Uint32 {
			return true
		}
		if named, ok := namedOf(t); ok {
			if named.Obj().Name() == "Taint" && hasPathSuffix(named.Obj().Pkg(), "internal/core/taint") {
				return true
			}
		}
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			continue
		}
		if b, ok := s.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Uint32 {
			return true
		}
		if named, ok := namedOf(s.Elem()); ok {
			if n := named.Obj().Name(); n == "Run" || n == "DirtyRange" {
				return true
			}
		}
	}
	return false
}

// labelSafeCallee reports whether handing the raw .Data of a tracked
// value to fn is sanctioned. This replaces the old name-based
// *Passthrough*/*Uniform*/*Sparse* allowlist: the exemption is now a
// fact derived from the callee, not its name. fn is label-safe when it
// is defined in the trust domain AND either
//
//   - its signature carries the payload's labels ([]Run, []DirtyRange,
//     Global IDs, or a taint.Taint) — the uniform/sparse tier shape
//     that Rule A of tierencode verifies, or
//   - its summary declares the payload untainted (DeclaresClean): the
//     parameter flows, possibly through wrappers, into a passthrough
//     emission — semantics the caller must have Clean()-gated, which
//     tierencode Rule B enforces.
//
// Interface methods and other bodiless functions fall back to the
// signature test plus the passthrough name marker (Rule A pins that
// naming in the wire codec), preserving the old behavior where no
// summary can exist.
func labelSafeCallee(idx *Index, fn *types.Func) bool {
	if fn == nil || !trustedPackage(fn.Pkg()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if carriesLabels(sig) {
		return true
	}
	if s := idx.SummaryOf(fn); s != nil {
		return s.AnyDeclaresClean()
	}
	// Bodiless (interface method): the declaration marker.
	return strings.Contains(fn.Name(), "Passthrough") ||
		strings.Contains(fn.Name(), "Uniform") || strings.Contains(fn.Name(), "Sparse")
}

// writeVerb reports whether a function name is write-shaped I/O.
func writeVerb(name string) bool {
	for _, prefix := range []string{"Write", "Send", "Publish", "Post", "Broadcast"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
