package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// TierEncode machine-checks the tier-lattice soundness convention of
// the tiered wire format (DESIGN.md §7): no tier's encoder may be
// able to drop a label. Two rules, both structural so they hold for
// every tier added later:
//
// Rule A — encoder signatures. In a wire codec package (import path
// ending in internal/core/wire, or any package named "wire"), every
// exported Append*/Encode* function that takes a raw payload parameter
// named "data" must either accept a label-carrying parameter — a slice
// of Run or DirtyRange, a []uint32 of Global IDs, or a single uint32
// Global ID — or declare itself label-free by carrying "Passthrough"
// in its name. An encoder that takes bytes but has nowhere to put
// their labels is a label drop waiting for a call site.
//
// Rule B — clean gating. Everywhere (core packages included), handing
// the raw .Data of a tracked value to a passthrough emission is only
// sound if the enclosing function established that the bytes are
// label-free: it must contain a cleanliness classification call
// (Clean / Uniform / Stats / ForEachDirtyRun on a tracked value, or
// wire.RunsAllUntainted), or itself declare the payload clean so the
// obligation moves to its callers. Since PR 9 both sides of the rule
// are summary-driven (DESIGN.md §11), not purely name-driven: a
// callee is a passthrough sink when it is Passthrough-named OR its
// summary says the parameter receiving the bytes DeclaresClean —
// wrappers around WritePassthrough no longer launder the obligation
// away — and the enclosing function is exempt when Passthrough-named
// OR when its own summary declares a payload parameter clean.
// Uniform- and Sparse-named helpers are exempt from Rule B: their
// signatures carry the labels, which is exactly what Rule A verifies.
var TierEncode = &Analyzer{
	Name: "tierencode",
	Doc: "wire-tier encoders must carry labels in their signature or be " +
		"Passthrough-named; raw .Data into a Passthrough helper needs a " +
		"cleanliness check in the same function",
	Run: runTierEncode,
}

func runTierEncode(pass *Pass) {
	if isWireCodec(pass) {
		checkEncoderSignatures(pass)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkPassthroughGating(pass, fd)
			}
		}
	}
}

// isWireCodec reports whether the package under analysis is a wire
// codec: the real internal/core/wire, or any package presenting itself
// as one by package name.
func isWireCodec(pass *Pass) bool {
	if pathHasSuffix(strings.TrimSuffix(pass.Path, "_test"), "internal/core/wire") {
		return true
	}
	return pass.Pkg != nil && pass.Pkg.Name() == "wire"
}

// checkEncoderSignatures enforces Rule A over the package's exported
// frame/packet builders.
func checkEncoderSignatures(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			if !strings.HasPrefix(name, "Append") && !strings.HasPrefix(name, "Encode") {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if !takesRawPayload(sig) {
				continue // length/header helpers never see the bytes
			}
			if strings.Contains(name, "Passthrough") || carriesLabels(sig) {
				continue
			}
			pass.Reportf(fd.Name.Pos(),
				"wire encoder %s takes a raw payload but no label-carrying parameter "+
					"([]Run, []DirtyRange or Global IDs); an encoder that cannot carry "+
					"labels must be Passthrough-named and Clean()-gated at its callers",
				name)
		}
	}
}

// takesRawPayload reports whether the signature has a []byte parameter
// named "data" — the payload convention every wire builder follows
// (the leading "dst" append target does not count).
func takesRawPayload(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if p.Name() != "data" {
			continue
		}
		if s, ok := p.Type().Underlying().(*types.Slice); ok {
			if b, ok := s.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
				return true
			}
		}
	}
	return false
}

// cleanlinessOps are the tracked-value methods that classify a
// buffer's labels; any one of them in the enclosing function
// discharges Rule B's gating obligation.
var cleanlinessOps = map[string]bool{
	"Clean":           true,
	"Uniform":         true,
	"Stats":           true,
	"ForEachDirtyRun": true,
}

// checkPassthroughGating enforces Rule B within one function.
func checkPassthroughGating(pass *Pass, fd *ast.FuncDecl) {
	if strings.Contains(fd.Name.Name, "Passthrough") {
		return // the obligation is the callers'
	}
	if self, _ := pass.Info.Defs[fd.Name].(*types.Func); self != nil {
		if s := pass.Index.SummaryOf(self); s != nil && s.AnyDeclaresClean() {
			// The summary form of the same exemption: this function
			// forwards a payload parameter into a passthrough, so the
			// cleanliness obligation sits with its callers.
			return
		}
	}
	type sink struct {
		pos    ast.Expr
		callee string
		owner  string
	}
	var sinks []sink
	gated := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil {
			return true
		}
		name := fn.Name()
		if name == "RunsAllUntainted" || (cleanlinessOps[name] && labelOpReceiver(fn)) {
			gated = true
			return true
		}
		cs := pass.Index.SummaryOf(fn)
		sig, _ := fn.Type().(*types.Signature)
		for argIdx, arg := range call.Args {
			owner, ok := taintedRawData(pass, arg)
			if !ok {
				continue
			}
			passthrough := strings.Contains(name, "Passthrough")
			if !passthrough && cs != nil && sig != nil {
				if j := paramIndexForArg(sig, argIdx); j >= 0 && j < len(cs.DeclaresClean) && cs.DeclaresClean[j] {
					passthrough = true
				}
			}
			if passthrough {
				sinks = append(sinks, sink{pos: arg, callee: name, owner: owner})
			}
		}
		return true
	})
	if gated {
		return
	}
	for _, s := range sinks {
		pass.Reportf(s.pos.Pos(),
			"raw .Data of %s reaches passthrough helper %s with no cleanliness check "+
				"(Clean/Uniform/Stats/ForEachDirtyRun/RunsAllUntainted) in this function; "+
				"a tainted buffer here would shed its labels on the wire",
			s.owner, s.callee)
	}
}
