package analysis

import (
	"go/ast"
	"go/types"
)

// LabelCopy flags data moves that bypass the label plane: the builtin
// copy/append applied to the raw .Data of a tracked value. Data and
// labels must move together — taint.Bytes provides CopyInto /
// CopyLabelsInto / Append for exactly this — so a raw copy is only
// sound when the enclosing function also performs a paired label-run
// operation (which audited call sites do, e.g. a copy followed by
// CopyLabelsInto). Functions that move raw bytes with no label
// operation anywhere in their body are reported.
//
// Like shadowdrop, the core label-moving layers are whitelisted; the
// analysis is per enclosing function, so a paired operation in a
// different function does not count. A call to a label-safe core
// fast-path helper (labelSafeCallee: trust domain + label-carrying
// signature or a DeclaresClean summary) also counts as the paired
// label operation: those helpers move or declare the labels
// themselves, so a raw byte move feeding one is the sanctioned tier
// encode.
var LabelCopy = &Analyzer{
	Name: "labelcopy",
	Doc: "copy/append on the raw .Data of a tracked value needs a paired label " +
		"operation (CopyInto/CopyLabelsInto/SetRange/…) in the same function",
	Run: runLabelCopy,
}

// labelOps are the taint.Bytes / jni.DirectBuffer methods that move or
// rewrite shadow labels; any one of them in the enclosing function
// marks the raw copy as paired.
var labelOps = map[string]bool{
	"CopyInto":       true,
	"CopyLabelsInto": true,
	"SetRange":       true,
	"SetLabel":       true,
	"TaintRange":     true,
	"TaintAll":       true,
	"ForEachRun":     true,
}

func runLabelCopy(pass *Pass) {
	if isCorePackage(pass) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLabelCopy(pass, fd.Body)
		}
	}
}

// checkLabelCopy reports unpaired raw copies within one function body.
func checkLabelCopy(pass *Pass, body *ast.BlockStmt) {
	type rawMove struct {
		pos   ast.Expr
		verb  string
		owner string
	}
	var moves []rawMove
	paired := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isBuiltin(pass.Info, call, "copy"), isBuiltin(pass.Info, call, "append"):
			verb := "copy"
			if isBuiltin(pass.Info, call, "append") {
				verb = "append"
			}
			for _, arg := range call.Args {
				if owner, ok := taintedRawData(pass, arg); ok {
					moves = append(moves, rawMove{pos: arg, verb: verb, owner: owner})
				}
			}
		default:
			fn := calleeFunc(pass, call)
			if fn == nil {
				break
			}
			if (labelOps[fn.Name()] && labelOpReceiver(fn)) || labelSafeCallee(pass.Index, fn) {
				paired = true
			}
		}
		return true
	})
	if paired {
		return
	}
	for _, m := range moves {
		pass.Reportf(m.pos.Pos(),
			"%s moves the raw .Data of %s with no label operation in this function; labels are left behind — use CopyInto/CopyLabelsInto or taint.Bytes.Append",
			m.verb, m.owner)
	}
}

// labelOpReceiver confirms the method really is the tracked-value API,
// not an unrelated method that happens to share a name.
func labelOpReceiver(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named, ok := namedOf(sig.Recv().Type())
	if !ok {
		return false
	}
	_, ok = taintedValueType(named)
	return ok
}
