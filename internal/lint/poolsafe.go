package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolSafe enforces the pooled-scratch contract (PRs 5–6): every
// sync.Pool.Get is balanced by a reachable Put, pooled scratch is
// reset somewhere on its get/put cycle, and pooled values never leak
// into goroutines.
//
// The checks are function-local with wrapper awareness, matching how
// this repo actually pools:
//
//   - a Get whose result is Put in the same function (defer included)
//     is balanced;
//   - a Get whose result is returned makes the function a checkout
//     wrapper (getScratch, getWideBlock) — its callers own the value;
//   - a Get whose result is passed to a same-package function that
//     Puts the corresponding parameter is handed off;
//   - anything else — a dropped Get, or a Get discarded as an
//     expression statement — is a leak diagnostic.
//
// Put arguments must be pointer-shaped: putting a bare slice or
// struct value boxes it into the Pool's any parameter, allocating on
// the path the pool exists to keep allocation-free (staticcheck's
// SA6002, enforced here without the dependency).
//
// Reset discipline is checked per pool: at least one function that
// gets or puts from the pool must reset the scratch (a Reset call, a
// [:0]-style reslice, or a zeroing assignment) — a pool whose values
// are never reset anywhere leaks request state between borrowers.
var PoolSafe = &Analyzer{
	Name: "poolsafe",
	Doc:  "sync.Pool Get/Put balance, pointer-shaped Put values, reset-before-reuse, no goroutine escape",
	Run:  runPoolSafe,
}

func runPoolSafe(pass *Pass) error {
	// Pass A: which parameters of which functions are Put (making the
	// function a put-wrapper a caller can hand a pooled value to).
	putParams := make(map[*types.Func]map[int]bool)
	decls := funcDecls(pass.Files)
	for _, fd := range decls {
		fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		params := paramObjs(pass.Info, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if method, _ := poolCall(pass.Info, call); method == "Put" && len(call.Args) == 1 {
				if obj := rootObj(pass.Info, call.Args[0]); obj != nil {
					for i, p := range params {
						if obj == p {
							if putParams[fn] == nil {
								putParams[fn] = make(map[int]bool)
							}
							putParams[fn][i] = true
						}
					}
				}
			}
			return true
		})
	}

	// Pass B: per-function Get/Put bookkeeping.
	type poolState struct {
		firstPut  token.Pos
		hasPut    bool
		hasGet    bool
		resetSeen bool
	}
	pools := make(map[types.Object]*poolState)
	stateOf := func(obj types.Object) *poolState {
		if obj == nil {
			return &poolState{} // throwaway: unidentifiable pool expression
		}
		st := pools[obj]
		if st == nil {
			st = &poolState{}
			pools[obj] = st
		}
		return st
	}

	for _, fd := range decls {
		touched := false // this function gets or puts from some pool
		pooled := make(map[types.Object]*ast.CallExpr)
		released := make(map[types.Object]bool)

		// B1: collect Gets (and their bound variables) and Puts.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if method, poolObj := poolCall(pass.Info, call); method == "Get" {
						touched = true
						stateOf(poolObj).hasGet = true
						pass.Reportf(call.Pos(), "result of sync.Pool.Get is discarded; the pooled value leaks")
						return false
					}
				}
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 {
					if call := getCallOf(pass.Info, n.Rhs[0]); call != nil {
						_, poolObj := poolCall(pass.Info, call)
						touched = true
						stateOf(poolObj).hasGet = true
						if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
							if obj := pass.Info.ObjectOf(id); obj != nil {
								pooled[obj] = call
							}
						} else {
							pass.Reportf(call.Pos(), "result of sync.Pool.Get is not bound to a variable; the pooled value leaks")
						}
						return true
					}
				}
			case *ast.CallExpr:
				if method, poolObj := poolCall(pass.Info, n); method == "Put" && len(n.Args) == 1 {
					touched = true
					st := stateOf(poolObj)
					st.hasPut = true
					if !st.firstPut.IsValid() {
						st.firstPut = n.Pos()
					}
					checkPutShape(pass, n)
					if obj := rootObj(pass.Info, n.Args[0]); obj != nil {
						released[obj] = true
					}
				}
			}
			return true
		})

		// B2: releases via return or handoff to a put-wrapper; escapes
		// into goroutines.
		if len(pooled) > 0 {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ReturnStmt:
					for _, res := range n.Results {
						if obj := pass.Info.ObjectOf(identOf(res)); obj != nil {
							if _, ok := pooled[obj]; ok {
								released[obj] = true
							}
						}
					}
				case *ast.CallExpr:
					fn := callee(pass.Info, n)
					if fn == nil || putParams[fn] == nil {
						return true
					}
					for i, arg := range n.Args {
						if obj := pass.Info.ObjectOf(identOf(arg)); obj != nil && putParams[fn][i] {
							if _, ok := pooled[obj]; ok {
								released[obj] = true
							}
						}
					}
				case *ast.GoStmt:
					if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
						for obj, get := range pooled {
							if usesObj(pass.Info, lit.Body, obj) {
								pass.Reportf(get.Pos(),
									"pooled value %s is captured by a goroutine launched in the same function; it may be Put (and re-Gotten) while the goroutine still uses it",
									obj.Name())
							}
						}
					}
				}
				return true
			})
			for obj, get := range pooled {
				if !released[obj] {
					pass.Reportf(get.Pos(),
						"sync.Pool.Get of %s has no reachable Put: not put back, not returned, not handed to a putting function",
						obj.Name())
				}
			}
		}

		// B3: reset evidence, credited to every pool this function
		// touches (reset-at-Get and reset-at-Put are both valid
		// disciplines; what matters is that the cycle resets at all).
		if touched && hasResetEvidence(pass.Info, fd.Body) {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if method, poolObj := poolCall(pass.Info, call); method != "" && poolObj != nil {
						stateOf(poolObj).resetSeen = true
					}
				}
				return true
			})
		}
	}

	for obj, st := range pools {
		if st.hasPut && !st.resetSeen {
			pass.Reportf(st.firstPut,
				"pool %s: no function that Gets or Puts from it ever resets the pooled scratch; reset (Reset call, [:0] reslice, or zeroing) before reuse or state leaks between borrowers",
				obj.Name())
		}
	}
	return nil
}

// poolCall classifies call as a sync.Pool Get/Put and identifies the
// pool (the variable or field the method is called on). method is ""
// for non-pool calls.
func poolCall(info *types.Info, call *ast.CallExpr) (method string, pool types.Object) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Get" && sel.Sel.Name != "Put") {
		return "", nil
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return "", nil
	}
	t := tv.Type
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" || obj.Name() != "Pool" {
		return "", nil
	}
	return sel.Sel.Name, poolIdentity(info, sel.X)
}

// poolIdentity names the pool: the object of the receiver variable,
// struct field, or array element base the Get/Put is called on.
func poolIdentity(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	switch v := e.(type) {
	case *ast.Ident:
		return info.ObjectOf(v)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[v]; ok {
			return sel.Obj()
		}
		return info.ObjectOf(v.Sel)
	case *ast.IndexExpr:
		return poolIdentity(info, v.X)
	case *ast.StarExpr:
		return poolIdentity(info, v.X)
	case *ast.UnaryExpr:
		return poolIdentity(info, v.X)
	}
	return nil
}

// getCallOf unwraps expr (through a type assertion) to a sync.Pool
// Get call, or nil.
func getCallOf(info *types.Info, expr ast.Expr) *ast.CallExpr {
	e := ast.Unparen(expr)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	if method, _ := poolCall(info, call); method != "Get" {
		return nil
	}
	return call
}

// checkPutShape flags Put of non-pointer-shaped values (SA6002): the
// value is boxed into Put's `any` parameter, allocating per Put.
func checkPutShape(pass *Pass, put *ast.CallExpr) {
	tv, ok := pass.Info.Types[put.Args[0]]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Map, *types.Signature:
		return
	}
	pass.Reportf(put.Pos(),
		"sync.Pool.Put of a non-pointer value (%s) allocates an interface box per Put; pool a pointer to the buffer instead",
		tv.Type.String())
}

// hasResetEvidence reports whether the body performs any reset-ish
// operation: a Reset(...) method call, a reslice assignment
// (x = y[:...]), or a zeroing assignment (*x = T{} / x.f = nil).
func hasResetEvidence(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Reset" {
				found = true
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				switch r := ast.Unparen(rhs).(type) {
				case *ast.SliceExpr:
					found = true
				case *ast.CompositeLit:
					if len(r.Elts) == 0 {
						found = true
					}
				case *ast.Ident:
					if r.Name == "nil" {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// paramObjs returns fd's parameter objects in declaration order
// (blank parameters are nil placeholders so indexes line up).
func paramObjs(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				out = append(out, nil)
				continue
			}
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// identOf unwraps expr to a plain identifier, or nil.
func identOf(expr ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(expr).(*ast.Ident)
	return id
}

// usesObj reports whether body references obj.
func usesObj(info *types.Info, body ast.Node, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}
