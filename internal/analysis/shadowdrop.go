package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ShadowDrop flags the label-dropping bug class: the raw .Data []byte
// of a tracked value (taint.Bytes, jni.DirectBuffer) escaping into an
// I/O or network call. Once the bare slice crosses such a boundary the
// shadow labels stay behind and the bytes travel untainted — a silent
// soundness hole. Reads (len, indexing, string conversion, decoding)
// are fine; only write-shaped escapes are flagged:
//
//   - method calls named Write*/Send*/Publish*/Post*/Broadcast*,
//   - package functions of os, io, net, bufio and internal/netsim
//     with Write*/Send* names, and fmt.Fprint*,
//   - taint.WrapBytes(x.Data): re-wrapping tainted storage as a fresh
//     untainted view, the in-process variant of the same drop.
//
// The core layers that are responsible for moving labels next to data
// (internal/core/taint, internal/jni, internal/jre,
// internal/instrument) are whitelisted wholesale, and so are the
// label-safe fast-path helpers those layers export: a passthrough
// send declares the bytes untainted on the wire after the caller
// proved them Clean(), and the uniform/sparse tier helpers carry the
// labels out-of-band right next to the raw bytes, so handing them the
// raw slice drops nothing. Since PR 9 that exemption is a derived
// fact, not a naming convention: labelSafeCallee (helpers.go) demands
// the callee live in the trust domain AND either carry labels in its
// signature or have a summary that declares its payload clean.
// Anywhere else a deliberate drop needs a //lint:ignore with its
// justification. Escapes laundered through a helper call or a local
// binding are the taintflow analyzer's findings; shadowdrop stays the
// precise syntactic check for direct .Data-into-sink arguments.
var ShadowDrop = &Analyzer{
	Name: "shadowdrop",
	Doc: "raw .Data of a tracked value must not escape into I/O/network calls " +
		"(or taint.WrapBytes) outside the core label-moving layers",
	Run: runShadowDrop,
}

func runShadowDrop(pass *Pass) {
	if isCorePackage(pass) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sink, ok := escapeCallee(pass, call)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if owner, ok := taintedRawData(pass, arg); ok {
					pass.Reportf(arg.Pos(),
						"raw .Data of %s escapes into %s; shadow labels are dropped — route through the jre/instrument API",
						owner, sink)
				}
			}
			return true
		})
	}
}

// escapeCallee classifies call as a label-dropping sink, returning a
// printable name for it.
func escapeCallee(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	name := fn.Name()
	if sig.Recv() != nil {
		if !writeVerb(name) || labelSafeCallee(pass.Index, fn) {
			return "", false
		}
		recv := sig.Recv().Type()
		if named, ok := namedOf(recv); ok {
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
