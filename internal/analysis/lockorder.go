package analysis

import (
	"go/ast"
	"go/token"
)

// LockOrder enforces the documented mutex orders of the hot-path
// structures, which so far lived only in comments:
//
//   - taint tree (core/taint/tree.go): a tree has one mutex, Tree.mu,
//     held while a node is added and never together with another
//     tree's (readers and the combine cache take no lock);
//   - taint map store (taintmap/store.go): shard locks come before
//     the page table's growMu — growMu is the innermost lock, so
//     acquiring a shard lock while holding growMu inverts the
//     RegisterBlob/AdoptBlob order and can deadlock against them;
//   - admission control (taintmap/server.go, PR 8): the admission
//     semaphore is a mutex+cond pair whose admit() can block
//     indefinitely waiting for a slot. admission.mu is therefore the
//     outermost tracked lock — taking it (or calling admit(), which
//     is modeled as a transient acquire+release) while any tracked
//     lock is held parks that lock behind the admission queue.
//     release() only signals under a brief a.mu critical section that
//     acquires nothing else, so it is safe under other locks and not
//     modeled. The hedgeTracker next to it is atomics-only (no
//     mutex), so it has no lock class at all;
//   - cluster client (taintmap/clusterclient.go, PR 8):
//     ClusterClient.mu guards membership changes only; the routing
//     table is a lock-free atomic.Pointer read on the request path.
//     It is a leaf — no tracked lock may be acquired under it;
//   - mux client (taintmap/mux.go): RemoteClient.sendMu guards the
//     outbound buffer that callers append to and one of them flushes.
//     Every caller on the connection passes through it, so it is a
//     leaf in the strict sense: while it is held no mutex of any kind
//     is acquired (the client's own pmu included, tracked or not),
//     nothing is written (a call to a Write method — the flush
//     happens with the buffers swapped and the mutex released) and
//     no channel is sent to, received from or selected on.
//
// The pinned global order is therefore:
//
//	admission.mu  >  shard.mu > growMu  |  Tree.mu (one at a time)  >  ClusterClient.mu  |  RemoteClient.sendMu (strict leaf)
//
// (admission outermost, growMu inside shard, ClusterClient.mu a leaf;
// the tree locks never interleave with the store locks in code today,
// so no cross pair is in the table.)
//
// Lock classes are recognized by (receiver type name, field name) —
// Tree.mu, shard.mu, pageTable.growMu, admission.mu,
// ClusterClient.mu, RemoteClient.sendMu — so a refactor that renames
// the fields must update this table (a cheap, visible cost; silently
// losing the check would be the expensive one). The analysis is
// intra-procedural and path-insensitive: statements are scanned in
// order, branches with a copy of the held set, and a deferred Unlock
// keeps its mutex held to the end of the function, which matches how
// these functions are written.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "documented mutex orders: at most one taint-tree mutex; " +
		"no shard lock while pageTable.growMu is held; " +
		"admission.mu (and blocking admit()) outermost; ClusterClient.mu a leaf; " +
		"no lock, Write or channel operation under RemoteClient.sendMu",
	Run: runLockOrder,
}

// lockClass identifies one mutex family in the order table.
type lockClass int

const (
	lockNone lockClass = iota
	lockTreeMu
	lockShardMu
	lockGrowMu
	lockAdmissionMu
	lockClusterMu
	lockSendMu
)

var lockClassName = map[lockClass]string{
	lockTreeMu:      "Tree.mu",
	lockShardMu:     "shard.mu",
	lockGrowMu:      "pageTable.growMu",
	lockAdmissionMu: "admission.mu",
	lockClusterMu:   "ClusterClient.mu",
	lockSendMu:      "RemoteClient.sendMu",
}

const (
	admissionOutermost = "the admission semaphore can block on its condition variable; " +
		"admission.mu must be the outermost tracked lock (admission lock order)"
	clusterLeaf = "ClusterClient.mu guards membership only and is a leaf; " +
		"no tracked lock may be acquired under it (cluster lock order)"
	sendLeaf = "every caller on the connection appends under RemoteClient.sendMu; it is released " +
		"before anything that can block or take another lock (mux send order)"
)

// forbiddenNesting maps (held, acquiring) pairs to the invariant they
// violate.
var forbiddenNesting = map[[2]lockClass]string{
	{lockTreeMu, lockTreeMu}:  "at most one tree mutex may be held at a time (taint tree lock order)",
	{lockGrowMu, lockShardMu}: "shard locks come before growMu (Store lock order); growMu is innermost",

	// admission.mu is outermost: admit() may park the caller on the
	// cond var for as long as the server is saturated, so any lock
	// held across it is held for that whole wait.
	{lockTreeMu, lockAdmissionMu}:      admissionOutermost,
	{lockShardMu, lockAdmissionMu}:     admissionOutermost,
	{lockGrowMu, lockAdmissionMu}:      admissionOutermost,
	{lockClusterMu, lockAdmissionMu}:   admissionOutermost,
	{lockAdmissionMu, lockAdmissionMu}: admissionOutermost,

	// ClusterClient.mu is a leaf: membership swaps publish through an
	// atomic.Pointer, so nothing slower than a field update belongs
	// under it.
	{lockClusterMu, lockTreeMu}:    clusterLeaf,
	{lockClusterMu, lockShardMu}:   clusterLeaf,
	{lockClusterMu, lockGrowMu}:    clusterLeaf,
	{lockClusterMu, lockClusterMu}: clusterLeaf,
}

func runLockOrder(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkLockOrder(pass, fd.Body)
			}
		}
	}
}

// checkLockOrder analyzes one function body, then every function
// literal inside it with a fresh held set (literals run later, on
// their own goroutine or call).
func checkLockOrder(pass *Pass, body *ast.BlockStmt) {
	walkLockStmts(pass, body.List, nil)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			walkLockStmts(pass, lit.Body.List, nil)
			return false
		}
		return true
	})
}

// walkLockStmts scans a statement list in order, threading the held
// multiset through and returning it. Branch bodies are analyzed with a
// copy: locks taken and released inside a branch do not leak out, and
// the fall-through path keeps the entry state.
func walkLockStmts(pass *Pass, stmts []ast.Stmt, held []lockClass) []lockClass {
	for _, stmt := range stmts {
		held = walkLockStmt(pass, stmt, held)
	}
	return held
}

func walkLockStmt(pass *Pass, stmt ast.Stmt, held []lockClass) []lockClass {
	if holdsLock(held, lockSendMu) {
		checkSendLeaf(pass, stmt)
	}
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			held = applyLockCall(pass, call, held)
		}
	case *ast.DeferStmt:
		// A deferred Unlock releases at return; the mutex stays held
		// for the rest of the body, which is what the entry in held
		// already says. A deferred Lock would be bizarre; ignore both.
	case *ast.BlockStmt:
		held = walkLockStmts(pass, s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = walkLockStmt(pass, s.Init, held)
		}
		walkLockStmts(pass, s.Body.List, cloneLocks(held))
		if s.Else != nil {
			walkLockStmt(pass, s.Else, cloneLocks(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = walkLockStmt(pass, s.Init, held)
		}
		held = walkLockLoop(pass, s.Body.List, held)
	case *ast.RangeStmt:
		held = walkLockLoop(pass, s.Body.List, held)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLockStmts(pass, cc.Body, cloneLocks(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLockStmts(pass, cc.Body, cloneLocks(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				walkLockStmts(pass, cc.Body, cloneLocks(held))
			}
		}
	case *ast.LabeledStmt:
		held = walkLockStmt(pass, s.Stmt, held)
	}
	return held
}

// walkLockLoop analyzes a loop body. A body that acquires without
// releasing carries its locks into the next iteration (hand-over-hand
// walks, the Reset lock-every-shard pattern), so when one symbolic
// iteration changes the held set the body is analyzed once more with
// the carried state; duplicate reports are collapsed in Run.
func walkLockLoop(pass *Pass, body []ast.Stmt, held []lockClass) []lockClass {
	after := walkLockStmts(pass, body, cloneLocks(held))
	if !sameLocks(after, held) {
		walkLockStmts(pass, body, cloneLocks(after))
	}
	return after
}

func sameLocks(a, b []lockClass) bool {
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

// applyLockCall updates held for one x.Lock()/x.Unlock() call and
// reports forbidden nestings at the acquisition site.
func applyLockCall(pass *Pass, call *ast.CallExpr, held []lockClass) []lockClass {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return held
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	case "admit":
		// admission.admit() is a transient acquire+release of
		// admission.mu that can park on the cond var: report it like
		// an acquisition, but leave the held set unchanged.
		if admissionReceiver(pass, sel.X) {
			for _, h := range held {
				pass.Reportf(call.Pos(), "admit() blocks on %s while %s is held: %s",
					lockClassName[lockAdmissionMu], lockClassName[h], admissionOutermost)
			}
		}
		return held
	default:
		return held
	}
	class := lockClassOf(pass, sel.X)
	if acquire && holdsLock(held, lockSendMu) {
		// The strict leaf: any mutex at all, tracked or not.
		name := lockClassName[class]
		if mu, ok := unparen(sel.X).(*ast.SelectorExpr); ok && class == lockNone {
			name = mu.Sel.Name
		}
		pass.Reportf(call.Pos(), "%s acquired while %s is held: %s",
			name, lockClassName[lockSendMu], sendLeaf)
	}
	if class == lockNone {
		return held
	}
	if !acquire {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i] == class {
				return append(held[:i:i], held[i+1:]...)
			}
		}
		return held
	}
	for _, h := range held {
		if why, bad := forbiddenNesting[[2]lockClass{h, class}]; bad {
			pass.Reportf(call.Pos(), "%s acquired while %s is held: %s",
				lockClassName[class], lockClassName[h], why)
		}
	}
	return append(cloneLocks(held), class)
}

// lockClassOf classifies the mutex operand of a Lock/Unlock call: a
// field selection recv.field whose (type, field) pair is in the table.
func lockClassOf(pass *Pass, e ast.Expr) lockClass {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return lockNone
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return lockNone
	}
	named, ok := namedOf(t)
	if !ok {
		return lockNone
	}
	switch [2]string{named.Obj().Name(), sel.Sel.Name} {
	case [2]string{"Tree", "mu"}:
		return lockTreeMu
	case [2]string{"shard", "mu"}:
		return lockShardMu
	case [2]string{"pageTable", "growMu"}:
		return lockGrowMu
	case [2]string{"admission", "mu"}:
		return lockAdmissionMu
	case [2]string{"ClusterClient", "mu"}:
		return lockClusterMu
	case [2]string{"RemoteClient", "sendMu"}:
		return lockSendMu
	}
	return lockNone
}

// checkSendLeaf reports what one statement executed under
// RemoteClient.sendMu must not do besides locking (applyLockCall's
// part): write, or operate on a channel. Only the statement's own
// expressions are examined — nested statements are walked, with the
// held set they are actually reached with, by walkLockStmt.
func checkSendLeaf(pass *Pass, stmt ast.Stmt) {
	var exprs []ast.Expr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		exprs = []ast.Expr{s.X}
	case *ast.AssignStmt:
		exprs = s.Rhs
	case *ast.ReturnStmt:
		exprs = s.Results
	case *ast.IfStmt:
		exprs = []ast.Expr{s.Cond}
	case *ast.SendStmt:
		pass.Reportf(s.Pos(), "channel send while %s is held: %s", lockClassName[lockSendMu], sendLeaf)
	case *ast.SelectStmt:
		pass.Reportf(s.Pos(), "select while %s is held: %s", lockClassName[lockSendMu], sendLeaf)
	}
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive while %s is held: %s", lockClassName[lockSendMu], sendLeaf)
				}
			case *ast.CallExpr:
				if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Write" {
					pass.Reportf(n.Pos(), "Write called while %s is held: %s", lockClassName[lockSendMu], sendLeaf)
				}
			}
			return true
		})
	}
}

func holdsLock(held []lockClass, class lockClass) bool {
	for _, h := range held {
		if h == class {
			return true
		}
	}
	return false
}

// admissionReceiver reports whether e has the admission semaphore type
// (by type name, matching the class table's convention).
func admissionReceiver(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	named, ok := namedOf(t)
	return ok && named.Obj().Name() == "admission"
}

func cloneLocks(held []lockClass) []lockClass {
	return append([]lockClass(nil), held...)
}
