package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroutineLeak requires every `go` statement in the resilience
// packages to carry a PROVABLE join: the goroutine's lifetime must be
// visibly bounded at the launch site, because a leaked probe, hedge,
// or peer-fill goroutine survives its request and accumulates under
// exactly the failure conditions (dead backends, slow peers) the
// resilience plane exists to absorb. Accepted evidence, in the order
// it is searched:
//
//  1. WaitGroup pairing — the goroutine body (a func literal, or the
//     resolved body of a same-package function/method it calls) runs
//     Done() on a WaitGroup that the package both Add()s and Wait()s.
//  2. Done-channel join — the body sends on (or closes) a channel the
//     package receives from outside the goroutine, or one created
//     with a constant buffer ≥ 1 in the launching function (the send
//     can never block, so the goroutine always terminates).
//  3. Ctx/stop bound — the body consults ctx.Done()/ctx.Err() on a
//     context.Context, or receives from a channel the package
//     close()s somewhere (the stop-channel idiom).
//  4. Cross-package fact — the launched function carries a
//     goroutineleak fact exported by its defining package recording
//     that it is ctx-bounded.
//
// A launch that is deliberately fire-and-forget (client.Stream's
// producer, which documents why it must NOT be awaited) is silenced
// with //lint:ignore goroutineleak <reason> — the reason is the
// reviewable artifact.
var GoroutineLeak = &Analyzer{
	Name: "goroutineleak",
	Doc:  "every go statement in client/serve/chaos/search needs a provable join (WaitGroup, done-channel, or ctx bound)",
	Run:  runGoroutineLeak,
}

// GoroutineLeakScope selects the packages whose go statements must
// prove their joins: the resilience-critical layers. Facts are
// exported for every package regardless, so in-scope packages can
// judge launches of out-of-scope functions.
var GoroutineLeakScope = func(path string) bool {
	for _, suffix := range []string{"client", "internal/serve", "internal/chaos", "internal/search"} {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

// goroutineFact is the cross-package summary: the function bounds its
// own lifetime on its context argument, so launching it as a
// goroutine is launching something that dies with its ctx.
type goroutineFact struct {
	CtxBounded bool `json:"ctx_bounded,omitempty"`
}

func runGoroutineLeak(pass *Pass) error {
	decls := funcDeclOf(pass)
	for fn, fd := range decls {
		if funcCtxBounded(pass, fd) {
			pass.ExportFact(FuncSymbol(fn), goroutineFact{CtxBounded: true})
		}
	}
	if !GoroutineLeakScope(pass.Pkg.Path()) {
		return nil
	}

	ev := gatherJoinEvidence(pass)
	for _, fd := range funcDecls(pass.Files) {
		fd := fd
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goStmtJoined(pass, ev, decls, fd, g) {
				pass.Reportf(g.Pos(),
					"goroutine has no provable join: pair it with a WaitGroup Add/Done+Wait, a done-channel the launcher receives (or a buffered one), or bound it on ctx/stop cancellation")
			}
			return true
		})
	}
	return nil
}

// joinEvidence is the package-wide synchronization inventory the
// per-launch judgement consults.
type joinEvidence struct {
	wgAdds   map[types.Object]bool // WaitGroups Add()ed anywhere
	wgWaits  map[types.Object]bool // WaitGroups Wait()ed anywhere
	closed   map[types.Object]bool // channels close()d anywhere
	receives []ast.Node            // every receive/range over a channel, with its resolved object
	recvObjs []types.Object
}

func gatherJoinEvidence(pass *Pass) *joinEvidence {
	ev := &joinEvidence{
		wgAdds:  make(map[types.Object]bool),
		wgWaits: make(map[types.Object]bool),
		closed:  make(map[types.Object]bool),
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if obj, method := syncGroupCall(pass.Info, n); obj != nil {
					switch method {
					case "Add":
						ev.wgAdds[obj] = true
					case "Wait":
						ev.wgWaits[obj] = true
					}
				}
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
						if obj := selectorObj(pass.Info, n.Args[0]); obj != nil {
							ev.closed[obj] = true
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if obj := selectorObj(pass.Info, n.X); obj != nil {
						ev.receives = append(ev.receives, n)
						ev.recvObjs = append(ev.recvObjs, obj)
					}
				}
			case *ast.RangeStmt:
				if t := pass.Info.TypeOf(n.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						if obj := selectorObj(pass.Info, n.X); obj != nil {
							ev.receives = append(ev.receives, n.X)
							ev.recvObjs = append(ev.recvObjs, obj)
						}
					}
				}
			}
			return true
		})
	}
	return ev
}

// syncGroupCall matches X.Method() where X is a sync.WaitGroup,
// returning the WaitGroup's stable object and the method name.
func syncGroupCall(info *types.Info, call *ast.CallExpr) (types.Object, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn := callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isNamedType(recv.Type(), "sync", "WaitGroup") {
		return nil, ""
	}
	return selectorObj(info, sel.X), fn.Name()
}

// goStmtJoined judges one launch against the evidence classes.
func goStmtJoined(pass *Pass, ev *joinEvidence, decls map[*types.Func]*ast.FuncDecl, fd *ast.FuncDecl, g *ast.GoStmt) bool {
	// Resolve what actually runs: the func literal's body, or the
	// same-package body of the named function/method being launched.
	var bodies []ast.Node
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		bodies = append(bodies, lit.Body)
	} else if fn := callee(pass.Info, g.Call); fn != nil {
		// Class 4: a fact from the callee's package (or an earlier
		// export by this pass over this very package).
		var fact goroutineFact
		if pass.ImportFact(FuncSymbol(fn), &fact) && fact.CtxBounded {
			return true
		}
		if dfd, ok := decls[fn]; ok {
			bodies = append(bodies, dfd.Body)
		}
	}
	if len(bodies) == 0 {
		return false
	}
	for _, body := range bodies {
		// Class 1: WaitGroup pairing.
		if wg := doneTarget(pass.Info, body); wg != nil && ev.wgAdds[wg] && ev.wgWaits[wg] {
			return true
		}
		// Class 3: ctx/stop bound.
		if ctxBoundedBody(pass, ev, body) {
			return true
		}
		// Class 2: done-channel join.
		for _, ch := range sendTargets(pass.Info, body) {
			if receivedOutside(pass, ev, ch, g) {
				return true
			}
			if capN, ok := chanMakeCap(pass.Info, fd.Body, ch); ok && capN >= 1 {
				return true
			}
		}
	}
	return false
}

// doneTarget finds a WaitGroup whose Done() the body calls (directly
// or deferred).
func doneTarget(info *types.Info, body ast.Node) types.Object {
	var found types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if obj, method := syncGroupCall(info, call); obj != nil && method == "Done" {
				found = obj
				return false
			}
		}
		return true
	})
	return found
}

// sendTargets lists the channel objects the body sends on or closes.
func sendTargets(info *types.Info, body ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if obj := selectorObj(info, n.Chan); obj != nil {
				out = append(out, obj)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					if obj := selectorObj(info, n.Args[0]); obj != nil {
						out = append(out, obj)
					}
				}
			}
		}
		return true
	})
	return out
}

// ctxBoundedBody reports whether the body consults a context's
// Done()/Err(), or receives from a channel the package close()s.
func ctxBoundedBody(pass *Pass, ev *joinEvidence, body ast.Node) bool {
	bounded := false
	ast.Inspect(body, func(n ast.Node) bool {
		if bounded {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if name := sel.Sel.Name; name == "Done" || name == "Err" {
					if t := pass.Info.TypeOf(sel.X); t != nil && isContextType(t) {
						bounded = true
						return false
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if obj := selectorObj(pass.Info, n.X); obj != nil && ev.closed[obj] {
					bounded = true
					return false
				}
			}
		}
		return true
	})
	return bounded
}

// receivedOutside reports whether the package receives from ch at a
// position outside the go statement itself (the launcher — or anyone
// — consuming the goroutine's completion signal).
func receivedOutside(pass *Pass, ev *joinEvidence, ch types.Object, g *ast.GoStmt) bool {
	for i, n := range ev.receives {
		if ev.recvObjs[i] != ch {
			continue
		}
		if n.Pos() >= g.Pos() && n.End() <= g.End() {
			continue // the goroutine's own receive is not a join
		}
		return true
	}
	return false
}

// funcCtxBounded reports whether the declared function bounds itself
// on a context.Context parameter (Done or Err consulted anywhere).
func funcCtxBounded(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	hasCtxParam := false
	for _, field := range fd.Type.Params.List {
		if t := pass.Info.TypeOf(field.Type); t != nil && isContextType(t) {
			hasCtxParam = true
		}
	}
	if !hasCtxParam {
		return false
	}
	ev := &joinEvidence{closed: map[types.Object]bool{}}
	return ctxBoundedBody(pass, ev, fd.Body)
}

// isNamedType reports whether t (pointer-stripped) is the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
