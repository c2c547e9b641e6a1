package analysis

import (
	"go/ast"
	"go/types"
	"sync"

	"dista/internal/analysis/loader"
)

// Index is the interprocedural layer of the distavet suite: a
// module-wide view of every function with a body in the loaded
// universe, the call edges between them (static calls plus interface
// dispatch resolved via types.Implements), and the per-function
// summaries computed bottom-up over the strongly-connected components
// of that graph (DESIGN.md §11). Analyzers reach it through
// Pass.Index; it is immutable after BuildIndex except for the lazily
// grown dispatch cache, which is mutex-guarded so the parallel driver
// can query it from several packages at once.
type Index struct {
	fns       map[*types.Func]*fnInfo
	summaries map[*types.Func]*FuncSummary
	named     []*types.Named // concrete named types, dispatch candidates

	dmu      sync.Mutex
	dispatch map[*types.Func][]*types.Func
}

// fnInfo ties a declared function to its AST and owning package.
type fnInfo struct {
	decl *ast.FuncDecl
	pkg  *loader.Package
}

// BuildIndex constructs the call graph and computes the summary of
// every function in universe.
func BuildIndex(universe []*loader.Package) *Index {
	idx := &Index{
		fns:       make(map[*types.Func]*fnInfo),
		summaries: make(map[*types.Func]*FuncSummary),
		dispatch:  make(map[*types.Func][]*types.Func),
	}
	seenNamed := make(map[*types.Named]bool)
	for _, pkg := range universe {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				idx.fns[fn] = &fnInfo{decl: fd, pkg: pkg}
			}
		}
		// Named types (with or without methods) are the dispatch
		// candidate set for interface-method resolution.
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || seenNamed[named] {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			seenNamed[named] = true
			idx.named = append(idx.named, named)
		}
	}
	idx.computeSummaries()
	return idx
}

// SummaryOf returns the summary for fn, or nil when fn has no body in
// the analyzed universe (stdlib, interface methods).
func (idx *Index) SummaryOf(fn *types.Func) *FuncSummary {
	return idx.summaries[fn]
}

// interfaceMethod reports whether fn is an abstract interface method,
// returning the interface it belongs to.
func interfaceMethod(fn *types.Func) (*types.Interface, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false
	}
	t := sig.Recv().Type()
	if named, ok := namedOf(t); ok {
		t = named.Underlying()
	}
	iface, ok := t.Underlying().(*types.Interface)
	return iface, ok
}

// Implementations resolves an interface method to the concrete methods
// of the universe's named types that satisfy it — the dispatch
// fan-out. Results are cached per abstract method. Only methods with
// bodies in the universe are returned; external implementations are
// invisible, which is the documented approximation.
func (idx *Index) Implementations(fn *types.Func) []*types.Func {
	iface, ok := interfaceMethod(fn)
	if !ok {
		return nil
	}
	idx.dmu.Lock()
	defer idx.dmu.Unlock()
	if impls, ok := idx.dispatch[fn]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range idx.named {
		var recv types.Type = named
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, fn.Pkg(), fn.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if _, has := idx.fns[m]; has {
			impls = append(impls, m)
		}
	}
	idx.dispatch[fn] = impls
	return impls
}

// callees returns every function the body of fn may invoke that has a
// body in the universe: static callees plus the dispatch fan-out of
// interface-method calls. Used to build the SCC graph; the summary
// evaluator re-resolves the same sets with argument positions.
func (idx *Index) callees(info *fnInfo) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	add := func(fn *types.Func) {
		if fn != nil && !seen[fn] {
			if _, has := idx.fns[fn]; has {
				seen[fn] = true
				out = append(out, fn)
			}
		}
	}
	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFuncInfo(info.pkg.Info, call)
		if fn == nil {
			return true
		}
		if _, isIface := interfaceMethod(fn); isIface {
			for _, impl := range idx.Implementations(fn) {
				add(impl)
			}
			return true
		}
		add(fn)
		return true
	})
	return out
}

// computeSummaries runs the bottom-up pass: Tarjan's SCC over the call
// graph (static + dispatch edges), then one evaluation per function in
// reverse topological order, iterating to a fixpoint inside each
// component so mutual recursion converges. Summary facts are monotone
// (escape bits only ever turn on), so the fixpoint terminates in at
// most params+1 rounds per component.
func (idx *Index) computeSummaries() {
	sccs := idx.tarjan()
	for _, scc := range sccs { // already callee-first
		// Escape/raw bits only turn on, so a component converges in
		// a handful of rounds; the cap guards the one non-monotone
		// interaction (DeclaresClean growth can retract an escape via
		// labelSafeCallee) from oscillating in pathological cycles.
		maxRounds := 4*len(scc) + 4
		for round := 0; round < maxRounds; round++ {
			changed := false
			for _, fn := range scc {
				next := idx.evalSummary(fn)
				if prev := idx.summaries[fn]; prev == nil || !prev.equal(next) {
					idx.summaries[fn] = next
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// tarjan computes strongly-connected components over the call graph,
// returned in reverse topological order (callees before callers).
func (idx *Index) tarjan() [][]*types.Func {
	type nodeState struct {
		index, lowlink int
		onStack        bool
	}
	states := make(map[*types.Func]*nodeState, len(idx.fns))
	var (
		counter int
		stack   []*types.Func
		sccs    [][]*types.Func
	)
	// Iterative Tarjan: the module's deepest call chains exceed what a
	// recursive walk over testdata-sized stacks would allow anyway.
	type frame struct {
		fn      *types.Func
		callees []*types.Func
		next    int
	}
	var visit func(root *types.Func)
	visit = func(root *types.Func) {
		frames := []frame{{fn: root}}
		states[root] = &nodeState{index: counter, lowlink: counter}
		counter++
		stack = append(stack, root)
		states[root].onStack = true
		frames[0].callees = idx.callees(idx.fns[root])
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(f.callees) {
				c := f.callees[f.next]
				f.next++
				cs := states[c]
				if cs == nil {
					states[c] = &nodeState{index: counter, lowlink: counter, onStack: true}
					counter++
					stack = append(stack, c)
					frames = append(frames, frame{fn: c, callees: idx.callees(idx.fns[c])})
				} else if cs.onStack {
					if cs.index < states[f.fn].lowlink {
						states[f.fn].lowlink = cs.index
					}
				}
				continue
			}
			// Done with f.fn.
			st := states[f.fn]
			if st.lowlink == st.index {
				var scc []*types.Func
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					states[top].onStack = false
					scc = append(scc, top)
					if top == f.fn {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if st.lowlink < states[parent.fn].lowlink {
					states[parent.fn].lowlink = st.lowlink
				}
			}
		}
	}
	for fn := range idx.fns {
		if states[fn] == nil {
			visit(fn)
		}
	}
	return sccs
}
