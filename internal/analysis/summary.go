package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// FuncSummary is the interprocedural fact record of one function: how
// its []byte parameters behave with respect to the label plane
// (DESIGN.md §11). The lattice is per-parameter bits plus three
// function-level bits; all facts are computed bottom-up over the call
// graph so a caller's summary is expressed in terms of its callees'.
type FuncSummary struct {
	// Escapes[i]: parameter i's raw bytes can reach a write-shaped
	// I/O sink (directly or through further calls) with no paired
	// label movement — handing tainted .Data to this parameter drops
	// labels. EscapeSink[i] names the sink for diagnostics.
	Escapes    []bool
	EscapeSink []string

	// DeclaresClean[i]: parameter i flows (by identity forwarding
	// only) into a Passthrough emission, i.e. the function declares
	// the bytes label-free on the wire. The caller owes a
	// cleanliness proof — tierencode Rule B's obligation, now
	// transitive through wrappers.
	DeclaresClean []bool

	// ReturnsRaw[i]: result i is the raw .Data of a tracked value
	// (or forwarded from a callee that returns one) — the value a
	// caller receives is label-less tainted storage.
	ReturnsRaw []bool

	// LabelPaired: the body performs a paired label-plane operation
	// (CopyLabelsInto, SetRange, … or a label-safe fast-path call),
	// so raw byte movement inside it is the sanctioned two-plane
	// move. CleanGated: the body performs a cleanliness
	// classification (Clean/Uniform/Stats/ForEachDirtyRun/
	// RunsAllUntainted). Trusted: defined in the label-moving trust
	// domain. Any of the three suppresses Escapes.
	LabelPaired bool
	CleanGated  bool
	Trusted     bool
}

// AnyDeclaresClean reports whether any parameter declares its payload
// label-free on the wire.
func (s *FuncSummary) AnyDeclaresClean() bool {
	for _, b := range s.DeclaresClean {
		if b {
			return true
		}
	}
	return false
}

// equal is structural equality, used for fixpoint termination.
func (s *FuncSummary) equal(t *FuncSummary) bool {
	if s.LabelPaired != t.LabelPaired || s.CleanGated != t.CleanGated || s.Trusted != t.Trusted {
		return false
	}
	eqb := func(a, b []bool) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !eqb(s.Escapes, t.Escapes) || !eqb(s.DeclaresClean, t.DeclaresClean) || !eqb(s.ReturnsRaw, t.ReturnsRaw) {
		return false
	}
	if len(s.EscapeSink) != len(t.EscapeSink) {
		return false
	}
	for i := range s.EscapeSink {
		if s.EscapeSink[i] != t.EscapeSink[i] {
			return false
		}
	}
	return true
}

// externalSink classifies a callee with no summary (stdlib, bodiless)
// as a label-dropping sink, mirroring shadowdrop's escapeCallee set:
// write-verb methods, write-shaped package functions of os/io/net/
// bufio/netsim, fmt.Fprint*, and taint.WrapBytes. Label-safe callees
// are never sinks.
func externalSink(idx *Index, fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	name := fn.Name()
	if sig.Recv() != nil {
		if !writeVerb(name) || labelSafeCallee(idx, fn) {
			return "", false
		}
		if named, ok := namedOf(sig.Recv().Type()); ok {
			return named.Obj().Name() + "." + name, true
		}
		return name, true
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch {
	case pkg.Path() == "fmt":
		if strings.HasPrefix(name, "Fprint") {
			return "fmt." + name, true
		}
	case pkg.Path() == "os" || pkg.Path() == "io" || pkg.Path() == "net" ||
		pkg.Path() == "bufio" || hasPathSuffix(pkg, "internal/netsim"):
		if writeVerb(name) {
			return pkg.Name() + "." + name, true
		}
	case hasPathSuffix(pkg, "internal/core/taint") && name == "WrapBytes":
		return "taint.WrapBytes (an untainted re-wrap)", true
	}
	return "", false
}

// paramIndexForArg maps argument position to parameter index,
// collapsing variadic tails onto the last parameter.
func paramIndexForArg(sig *types.Signature, arg int) int {
	n := sig.Params().Len()
	if n == 0 {
		return -1
	}
	if arg >= n {
		if sig.Variadic() {
			return n - 1
		}
		return -1
	}
	return arg
}

// evalSummary computes fn's summary from the current summaries of its
// callees. It is re-invoked by the SCC fixpoint until stable.
func (idx *Index) evalSummary(fn *types.Func) *FuncSummary {
	info := idx.fns[fn]
	sig := fn.Type().(*types.Signature)
	nParams := sig.Params().Len()
	s := &FuncSummary{
		Escapes:       make([]bool, nParams),
		EscapeSink:    make([]string, nParams),
		DeclaresClean: make([]bool, nParams),
		ReturnsRaw:    make([]bool, sig.Results().Len()),
		Trusted:       trustedPackage(fn.Pkg()),
	}

	// Byte-slice parameters are the tracked positions; everything
	// else is opaque to the raw-byte plane.
	byteParam := make(map[types.Object]int)
	for i := 0; i < nParams; i++ {
		p := sig.Params().At(i)
		if byteSlice(p.Type()) {
			byteParam[p] = i
		}
	}

	// A Passthrough-named function declares every byte payload it
	// takes label-free on the wire — the root of the DeclaresClean
	// fact that Rule A's naming convention pins down in the codec.
	if strings.Contains(fn.Name(), "Passthrough") {
		for _, i := range byteParam {
			s.DeclaresClean[i] = true
		}
	}

	// Collect assignments once; derived-from-param and raw-local
	// resolution iterate over this list to their own fixpoints.
	type assign struct {
		lhs types.Object
		rhs ast.Expr
	}
	var assigns []assign
	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true // multi-value unpacking: handled via ReturnsRaw calls only
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.pkg.Info.Defs[id]
				if obj == nil {
					obj = info.pkg.Info.Uses[id]
				}
				if obj != nil {
					assigns = append(assigns, assign{lhs: obj, rhs: st.Rhs[i]})
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i, id := range st.Names {
					if obj := info.pkg.Info.Defs[id]; obj != nil {
						assigns = append(assigns, assign{lhs: obj, rhs: st.Values[i]})
					}
				}
			}
		}
		return true
	})

	// deriveMap: local object → the byte parameter it is an identity
	// (or reslice, or append) alias of. Deriving through .Data is
	// deliberately NOT a forward: handing the .Data of a tracked value
	// anywhere is the sink event itself, owned by shadowdrop/taintflow.
	deriveMap := make(map[types.Object]int)
	var resolveParam func(e ast.Expr) (int, bool)
	resolveParam = func(e ast.Expr) (int, bool) {
		for {
			switch v := unparen(e).(type) {
			case *ast.SliceExpr:
				e = v.X
			case *ast.CallExpr:
				// append(p, …) carries p's bytes on, whatever array it returns.
				if !isBuiltin(info.pkg.Info, v, "append") || len(v.Args) == 0 {
					return -1, false
				}
				e = v.Args[0]
			case *ast.Ident:
				obj := info.pkg.Info.Uses[v]
				if obj == nil {
					return -1, false
				}
				if i, ok := byteParam[obj]; ok {
					return i, true
				}
				if i, ok := deriveMap[obj]; ok {
					return i, true
				}
				return -1, false
			default:
				return -1, false
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, a := range assigns {
			if _, done := deriveMap[a.lhs]; done {
				continue
			}
			if _, isParam := byteParam[a.lhs]; isParam {
				continue // reassigned params keep their own index
			}
			if i, ok := resolveParam(a.rhs); ok {
				deriveMap[a.lhs] = i
				changed = true
			}
		}
	}

	// rawLocals: locals holding the raw .Data of a tracked value —
	// assigned from a syntactic .Data selection or from a callee whose
	// summary says it returns raw tracked bytes.
	rawLocals := make(map[types.Object]bool)
	var isRawExpr func(e ast.Expr) bool
	isRawExpr = func(e ast.Expr) bool {
		e = unparen(e)
		if _, ok := taintedRawDataInfo(info.pkg.Info, e); ok {
			return true
		}
		switch v := e.(type) {
		case *ast.SliceExpr:
			return isRawExpr(v.X)
		case *ast.Ident:
			obj := info.pkg.Info.Uses[v]
			return obj != nil && rawLocals[obj]
		case *ast.CallExpr:
			callee := calleeFuncInfo(info.pkg.Info, v)
			if callee == nil {
				return false
			}
			if cs := idx.summaries[callee]; cs != nil && len(cs.ReturnsRaw) == 1 {
				return cs.ReturnsRaw[0]
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, a := range assigns {
			if rawLocals[a.lhs] {
				continue
			}
			if isRawExpr(a.rhs) {
				rawLocals[a.lhs] = true
				changed = true
			}
		}
	}

	// One walk over every call (function literals included — a
	// closure's calls can run): escape events, DeclaresClean
	// forwarding, and the pairing/gating bits.
	markEscape := func(i int, sink string) {
		if !s.Escapes[i] {
			s.Escapes[i] = true
			s.EscapeSink[i] = sink
		}
	}
	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFuncInfo(info.pkg.Info, call)
		if callee == nil {
			return true
		}
		name := callee.Name()
		if (labelOps[name] && labelOpReceiver(callee)) || labelSafeCallee(idx, callee) {
			s.LabelPaired = true
		}
		if name == "RunsAllUntainted" || (cleanlinessOps[name] && labelOpReceiver(callee)) {
			s.CleanGated = true
		}

		// Resolve the callee to the summaries that may run: the
		// static one, or the dispatch fan-out for interface methods.
		_, isIfaceCall := interfaceMethod(callee)
		var targets []*FuncSummary
		if isIfaceCall {
			for _, impl := range idx.Implementations(callee) {
				if cs := idx.summaries[impl]; cs != nil {
					targets = append(targets, cs)
				}
			}
		} else if cs := idx.summaries[callee]; cs != nil {
			targets = append(targets, cs)
		}

		calleeSig, _ := callee.Type().(*types.Signature)
		for argIdx, arg := range call.Args {
			srcParam, fromParam := resolveParam(arg)
			if !fromParam {
				continue
			}
			// An interface call may dispatch to implementations outside
			// the universe (stdlib io.Writer, net.Conn), so the
			// syntactic sink classification applies alongside any
			// in-universe candidate summaries; a static callee with a
			// summary is judged by the summary alone.
			if len(targets) == 0 || isIfaceCall {
				if sink, isSink := externalSink(idx, callee); isSink {
					markEscape(srcParam, sink)
				}
			}
			if calleeSig == nil {
				continue
			}
			j := paramIndexForArg(calleeSig, argIdx)
			if j < 0 {
				continue
			}
			for _, cs := range targets {
				if j < len(cs.Escapes) && cs.Escapes[j] {
					markEscape(srcParam, cs.EscapeSink[j]+" (via "+name+")")
				}
				if j < len(cs.DeclaresClean) && cs.DeclaresClean[j] {
					s.DeclaresClean[srcParam] = true
				}
			}
		}
		// Bodiless trusted passthrough callees still root the
		// DeclaresClean forward (interface methods of the codec).
		if len(targets) == 0 && trustedPackage(callee.Pkg()) &&
			strings.Contains(name, "Passthrough") && calleeSig != nil {
			for argIdx, arg := range call.Args {
				if srcParam, ok := resolveParam(arg); ok {
					if j := paramIndexForArg(calleeSig, argIdx); j >= 0 && byteSlice(calleeSig.Params().At(j).Type()) {
						s.DeclaresClean[srcParam] = true
					}
				}
			}
		}
		return true
	})

	// Returns: walked with function literals excluded — a literal's
	// return is not fn's return.
	var walkReturns func(n ast.Node)
	walkReturns = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			if len(ret.Results) == 1 && len(s.ReturnsRaw) > 1 {
				// return g(...): forward the callee's result facts.
				if call, ok := unparen(ret.Results[0]).(*ast.CallExpr); ok {
					if callee := calleeFuncInfo(info.pkg.Info, call); callee != nil {
						if cs := idx.summaries[callee]; cs != nil && len(cs.ReturnsRaw) == len(s.ReturnsRaw) {
							for i, b := range cs.ReturnsRaw {
								if b {
									s.ReturnsRaw[i] = true
								}
							}
						}
					}
				}
				return true
			}
			for i, e := range ret.Results {
				if i < len(s.ReturnsRaw) && isRawExpr(e) {
					s.ReturnsRaw[i] = true
				}
			}
			return true
		})
	}
	walkReturns(info.decl.Body)

	// The trust domain and functions that pair or gate their raw
	// moves do not escape: moving labels next to data is their job.
	if s.Trusted || s.LabelPaired || s.CleanGated {
		for i := range s.Escapes {
			s.Escapes[i] = false
			s.EscapeSink[i] = ""
		}
	}
	return s
}
