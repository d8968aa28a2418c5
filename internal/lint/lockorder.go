package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the whole-program lock acquisition graph and
// reports two flow properties the race detector structurally cannot:
//
//   - Ordering cycles: an edge L→M is recorded whenever M is acquired
//     while L is held — directly, or through a call whose (exported,
//     cross-package) acquisition summary says it takes M. A cycle in
//     the accumulated graph is a deadlock two goroutines can reach by
//     running the edge's endpoints concurrently; the diagnostic lands
//     on the acquisition that closes the cycle. Recursive acquisition
//     of the SAME lock on one path is reported immediately (Go
//     mutexes are not reentrant).
//
//   - Discipline mixing: a sync/atomic access, under a held mutex, to
//     a field whose atomicfield fact says it is managed atomically
//     elsewhere. One synchronization regime must own each field; the
//     lock suggests the author believes it protects the counter, and
//     the atomic says it doesn't need protecting — one of them is
//     wrong.
//
// Lock identity is the stable symbol of the mutex's variable — a
// struct field ("pkg.Type.mu") or a package-level var ("pkg.mu").
// Local mutexes are skipped (no cross-function identity), and
// same-symbol edges between DIFFERENT instances are not recorded
// (b1.mu vs b2.mu is instance-ordered, not symbol-ordered). The walk
// is linear per function: branches are explored with a copy of the
// held set, deferred unlocks are treated as end-of-function releases,
// and function literals are analyzed as their own (empty-held)
// functions because they run on other goroutines' stacks.
var LockOrder = &Analyzer{
	Name:    "lockorder",
	Doc:     "whole-program lock acquisition graph: ordering cycles, recursive locks, and atomic-under-mutex mixing",
	Version: "1",
	Run:     runLockOrder,
}

// lockOrderFact is both fact shapes this analyzer exports: per
// function (symbol = FuncSymbol) the locks it acquires anywhere
// inside, and per package (symbol = "edges:<path>") the ordered
// pairs it observed. Package init functions export no fact: nothing
// can call them, and every init of a package shares one FuncSymbol.
type lockOrderFact struct {
	Locks []string   `json:"locks,omitempty"`
	Edges []lockEdge `json:"edges,omitempty"`
}

// lockEdge records "To was acquired while From was held" with the
// acquisition position (file:line, for cross-package diagnostics).
type lockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Pos  string `json:"pos,omitempty"`
}

// heldLock is one entry of the walk's held set: the stable symbol
// plus the instance base (the leftmost object of the receiver chain)
// so recursive-lock reports fire only on provably the same mutex.
type heldLock struct {
	sym  string
	base types.Object
	pos  token.Pos
}

type lockWalkState struct {
	pass      *Pass
	decls     map[*types.Func]*ast.FuncDecl
	summaries map[*types.Func][]string // acquired lock symbols
	edges     []lockEdge
	edgePos   []token.Pos // parallel to edges: position in THIS package
}

func runLockOrder(pass *Pass) error {
	st := &lockWalkState{
		pass:      pass,
		decls:     funcDeclOf(pass),
		summaries: make(map[*types.Func][]string),
	}

	// Fixpoint the per-function acquisition summaries over the
	// package's internal call graph (callee bodies may be declared
	// after their callers; cross-package callees come from facts).
	// Summaries are keyed by the declared function, not its symbol:
	// the several init functions of one package share a symbol, and
	// a shared key would flip between their summaries forever.
	for changed := true; changed; {
		changed = false
		for fn, fd := range st.decls {
			sum := st.summarize(fd)
			if len(sum) != len(st.summaries[fn]) {
				st.summaries[fn] = sum
				changed = true
			}
		}
	}
	for _, fn := range sortedFuncs(st.decls) {
		if locks := st.summaries[fn]; len(locks) > 0 && !isPackageInit(fn) {
			pass.ExportFact(FuncSymbol(fn), lockOrderFact{Locks: locks})
		}
	}

	// Edge walk: every declared function and every function literal,
	// each from an empty held set.
	for _, fn := range sortedFuncs(st.decls) {
		fd := st.decls[fn]
		st.walkStmts(fd.Body.List, nil)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				st.walkStmts(lit.Body.List, nil)
			}
			return true
		})
	}

	// Accumulate the global graph: every package analyzed before this
	// one (dependency order) has exported its edges.
	global := make(map[string]map[string]string) // from -> to -> pos
	addEdge := func(e lockEdge) {
		if global[e.From] == nil {
			global[e.From] = make(map[string]string)
		}
		if _, ok := global[e.From][e.To]; !ok {
			global[e.From][e.To] = e.Pos
		}
	}
	for _, sym := range pass.FactSymbols() {
		if !strings.HasPrefix(sym, "edges:") {
			continue
		}
		var fact lockOrderFact
		if pass.ImportFact(sym, &fact) {
			for _, e := range fact.Edges {
				addEdge(e)
			}
		}
	}
	for _, e := range st.edges {
		addEdge(e)
	}
	if len(st.edges) > 0 {
		pass.ExportFact("edges:"+pass.Pkg.Path(), lockOrderFact{Edges: dedupeEdges(st.edges)})
	}

	// Report each of THIS package's edges that closes a cycle.
	reported := make(map[string]bool)
	for i, e := range st.edges {
		if e.From == e.To {
			continue // handled at acquisition time as a recursive lock
		}
		key := e.From + "→" + e.To
		if reported[key] {
			continue
		}
		if path := lockPath(global, e.To, e.From); path != nil {
			reported[key] = true
			pass.Reportf(st.edgePos[i],
				"acquiring %s while holding %s closes a lock-order cycle (%s); two goroutines taking these paths concurrently deadlock",
				e.To, e.From, strings.Join(append(path, e.To), " → "))
		}
	}
	return nil
}

// summarize collects every lock symbol a function acquires, directly
// or through calls (same-package bodies via the running fixpoint,
// cross-package via facts). Function literals are included here —
// for a SUMMARY the question is "can running this function end up
// acquiring L", and a literal invoked or deferred inside does.
func (st *lockWalkState) summarize(fd *ast.FuncDecl) []string {
	set := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sym, _, kind := st.lockCall(call); kind == "acquire" && sym != "" {
			set[sym] = true
			return true
		}
		for _, l := range st.calleeLocks(call) {
			set[l] = true
		}
		return true
	})
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// calleeLocks resolves a call's acquisition summary: same-package
// bodies from the fixpoint map, everything else from facts.
func (st *lockWalkState) calleeLocks(call *ast.CallExpr) []string {
	fn := callee(st.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() == "sync" {
		return nil
	}
	if sum, ok := st.summaries[fn.Origin()]; ok {
		return sum
	}
	var fact lockOrderFact
	if st.pass.ImportFact(FuncSymbol(fn), &fact) {
		return fact.Locks
	}
	return nil
}

// isPackageInit reports whether fn is a package initializer.
func isPackageInit(fn *types.Func) bool {
	return fn.Name() == "init" && fn.Type().(*types.Signature).Recv() == nil
}

// walkStmts threads the held set through a statement list. Branch
// bodies run on copies: a lock balanced inside a branch stays local
// to it, and an unbalanced branch cannot corrupt the fall-through
// path (lint-grade approximation; defer-released locks are treated
// as held to the end of the function).
func (st *lockWalkState) walkStmts(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range stmts {
		held = st.walkStmt(s, held)
	}
	return held
}

func copyHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

func (st *lockWalkState) walkStmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return st.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = st.walkStmt(s.Init, held)
		}
		held = st.walkExpr(s.Cond, held)
		st.walkStmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			st.walkStmt(s.Else, copyHeld(held))
		}
		return held
	case *ast.ForStmt:
		if s.Init != nil {
			held = st.walkStmt(s.Init, held)
		}
		st.walkStmts(s.Body.List, copyHeld(held))
		return held
	case *ast.RangeStmt:
		held = st.walkExpr(s.X, held)
		st.walkStmts(s.Body.List, copyHeld(held))
		return held
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var body *ast.BlockStmt
		switch s := s.(type) {
		case *ast.SwitchStmt:
			body = s.Body
		case *ast.TypeSwitchStmt:
			body = s.Body
		case *ast.SelectStmt:
			body = s.Body
		}
		for _, cl := range body.List {
			switch cl := cl.(type) {
			case *ast.CaseClause:
				st.walkStmts(cl.Body, copyHeld(held))
			case *ast.CommClause:
				st.walkStmts(cl.Body, copyHeld(held))
			}
		}
		return held
	case *ast.DeferStmt:
		// A deferred Unlock releases at return — from this walk's
		// point of view the lock stays held for the rest of the
		// function, which is exactly the conservative reading the
		// edge recording wants. Other deferred calls run with an
		// unknowable held set; skip them.
		return held
	case *ast.GoStmt:
		// The goroutine starts with an empty stack of OUR locks; its
		// body (if a literal) is walked separately.
		return held
	case *ast.LabeledStmt:
		return st.walkStmt(s.Stmt, held)
	default:
		return st.walkNode(s, held)
	}
}

// walkExpr / walkNode scan a leaf for calls in source order,
// excluding nested function literals (walked separately).
func (st *lockWalkState) walkExpr(e ast.Expr, held []heldLock) []heldLock {
	if e == nil {
		return held
	}
	return st.walkNode(e, held)
}

func (st *lockWalkState) walkNode(n ast.Node, held []heldLock) []heldLock {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, isLit := c.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok {
			held = st.handleCall(call, held)
		}
		return true
	})
	return held
}

// handleCall folds one call into the held set, recording edges,
// recursive locks, and discipline mixing.
func (st *lockWalkState) handleCall(call *ast.CallExpr, held []heldLock) []heldLock {
	pass := st.pass
	if sym, base, kind := st.lockCall(call); kind != "" {
		switch kind {
		case "acquire":
			if sym == "" {
				return held // local mutex: no stable identity
			}
			for _, h := range held {
				if h.sym == sym {
					if h.base != nil && h.base == base {
						pass.Reportf(call.Pos(),
							"recursive acquisition of %s: this goroutine already holds it (sync mutexes are not reentrant; this deadlocks)", sym)
					}
					continue // same symbol, other instance: not a symbol-order edge
				}
				st.edges = append(st.edges, lockEdge{From: h.sym, To: sym, Pos: pass.Fset.Position(call.Pos()).String()})
				st.edgePos = append(st.edgePos, call.Pos())
			}
			return append(held, heldLock{sym: sym, base: base, pos: call.Pos()})
		case "release":
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].sym == sym || sym == "" && held[i].base == base {
					return append(held[:i:i], held[i+1:]...)
				}
			}
			return held
		}
	}

	// Atomic-under-mutex mixing (atomicfield facts).
	if len(held) > 0 {
		if fldSym := atomicCallFieldSymbol(pass, call); fldSym != "" {
			var af struct {
				Atomic bool `json:"atomic"`
			}
			if pass.ImportFactOf("atomicfield", fldSym, &af) && af.Atomic {
				pass.Reportf(call.Pos(),
					"atomic access to %s while holding %s: the field's discipline is sync/atomic (atomicfield), so the lock protects nothing here — pick one synchronization regime",
					fldSym, held[len(held)-1].sym)
			}
		}
	}

	// A plain call while holding locks: edges to everything its
	// summary says it acquires.
	for _, l := range st.calleeLocks(call) {
		for _, h := range held {
			if h.sym == l {
				continue // could be the same instance through a helper; not symbol-ordered evidence
			}
			st.edges = append(st.edges, lockEdge{From: h.sym, To: l, Pos: pass.Fset.Position(call.Pos()).String()})
			st.edgePos = append(st.edgePos, call.Pos())
		}
	}
	return held
}

// lockCall classifies X.Lock()/RLock() ("acquire") and
// X.Unlock()/RUnlock() ("release") on sync.Mutex/RWMutex, returning
// the mutex's stable symbol ("" for locals) and instance base.
func (st *lockWalkState) lockCall(call *ast.CallExpr) (sym string, base types.Object, kind string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil, ""
	}
	fn := callee(st.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil, ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !(isNamedType(recv.Type(), "sync", "Mutex") || isNamedType(recv.Type(), "sync", "RWMutex")) {
		return "", nil, ""
	}
	switch fn.Name() {
	case "Lock", "RLock":
		kind = "acquire"
	case "Unlock", "RUnlock":
		kind = "release"
	default:
		return "", nil, ""
	}
	obj := selectorObj(st.pass.Info, sel.X)
	return lockSymbol(st.pass, obj), rootObj(st.pass.Info, sel.X), kind
}

// lockSymbol names a mutex-holding object stably across packages, or
// "" for locals.
func lockSymbol(pass *Pass, obj types.Object) string {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return ""
	}
	if v.IsField() {
		return FieldSymbol(v.Pkg(), v)
	}
	if v.Parent() == v.Pkg().Scope() {
		return VarSymbol(v)
	}
	return ""
}

// atomicCallFieldSymbol resolves a sync/atomic access — the function
// form (atomic.AddInt64(&s.f, 1)) or the typed-wrapper method form
// (s.f.Add(1)) — to the accessed field's stable symbol, or "".
func atomicCallFieldSymbol(pass *Pass, call *ast.CallExpr) string {
	pkgPath, fnName := calleePkgPath(pass.Info, call)
	if pkgPath == "sync/atomic" && isAtomicAccessor(fnName) && len(call.Args) > 0 {
		if fld, _ := addressedField(pass.Info, call.Args[0]); fld != nil && fld.Pkg() != nil {
			return FieldSymbol(fld.Pkg(), fld)
		}
	}
	return ""
}

// lockPath finds a path from → to in the global edge graph,
// returning the node sequence (from included, to excluded), or nil.
func lockPath(global map[string]map[string]string, from, to string) []string {
	seen := map[string]bool{from: true}
	type qe struct {
		node string
		path []string
	}
	queue := []qe{{from, []string{from}}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		next := make([]string, 0, len(global[cur.node]))
		for n := range global[cur.node] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
			if n == to {
				return cur.path
			}
			if !seen[n] {
				seen[n] = true
				queue = append(queue, qe{n, append(append([]string(nil), cur.path...), n)})
			}
		}
	}
	return nil
}

func dedupeEdges(edges []lockEdge) []lockEdge {
	seen := make(map[string]bool)
	out := edges[:0]
	for _, e := range edges {
		key := e.From + "→" + e.To
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

func sortedFuncs(decls map[*types.Func]*ast.FuncDecl) []*types.Func {
	fns := make([]*types.Func, 0, len(decls))
	for fn := range decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	return fns
}
