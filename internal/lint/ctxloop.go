package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxLoop enforces the engine's cancellation contract (PR 4): every
// engine loop observes context cancellation per block, and
// context-carrying code never drops into a non-ctx engine entry point
// when a *Ctx variant exists.
//
// Three rules:
//
//  1. A function annotated `//sortnets:ctxloop` must consult its
//     context inside a for loop — ctx.Err() or ctx.Done() (the select
//     form included) somewhere under a loop. The engine's streaming
//     loops carry this annotation, so a refactor that hoists the
//     per-block check out of the loop (or deletes it) is a diagnostic,
//     not a latent unbounded computation.
//
//  2. In the engine packages (CtxLoopScope), a function that takes a
//     context.Context must not call F(args...) without a context when
//     a sibling FCtx(ctx, ...) exists — calling the non-ctx entry
//     point from ctx-carrying code silently severs the cancellation
//     chain (the wrapper runs under context.Background()).
//
//  3. In the engine packages, a function with a named context
//     parameter that contains a for loop must reference the context
//     somewhere — a ctx that is neither consulted nor forwarded while
//     the function loops is a severed chain. (Intentionally unused
//     contexts are declared `_ context.Context`.)
var CtxLoop = &Analyzer{
	Name:    "ctxloop",
	Doc:     "engine loops must observe context cancellation; ctx-carrying code must call *Ctx engine variants",
	Version: "1",
	Run:     runCtxLoop,
}

// CtxLoopScope decides which packages rules 2 and 3 apply to (rule 1
// is annotation-driven and applies everywhere). The default scope is
// the compute spine: the eval engine, the search pipeline, and the
// root package's Session compute paths.
var CtxLoopScope = func(path string) bool {
	return path == "sortnets" ||
		strings.HasSuffix(path, "internal/eval") ||
		strings.HasSuffix(path, "internal/search")
}

const ctxLoopDirective = "//sortnets:ctxloop"

func runCtxLoop(pass *Pass) error {
	inScope := CtxLoopScope(pass.Pkg.Path())
	for _, fd := range funcDecls(pass.Files) {
		annotated := hasDirective(fd.Doc, ctxLoopDirective)
		if !annotated && !inScope {
			continue
		}
		ctxParams := contextParams(pass.Info, fd)
		if annotated {
			checkAnnotatedLoop(pass, fd, ctxParams)
		}
		if !inScope {
			continue
		}
		if len(ctxParams) > 0 {
			checkCtxVariantCalls(pass, fd)
			checkCtxForwarded(pass, fd, ctxParams)
		}
	}
	return nil
}

// contextParams returns the named context.Context parameter objects
// of fd (receiver excluded; engines carry ctx as a parameter).
func contextParams(info *types.Info, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if v, ok := info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
				out = append(out, v)
			}
		}
	}
	return out
}

// checkAnnotatedLoop enforces rule 1 on one annotated function.
func checkAnnotatedLoop(pass *Pass, fd *ast.FuncDecl, ctxParams []*types.Var) {
	if len(ctxParams) == 0 {
		pass.Reportf(fd.Name.Pos(),
			"%s is annotated %s but has no context.Context parameter", fd.Name.Name, ctxLoopDirective)
		return
	}
	hasLoop := false
	consulted := false
	var walkLoop func(n ast.Node, inLoop bool)
	walkLoop = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				hasLoop = true
				if n.Init != nil {
					walkLoop(n.Init, inLoop)
				}
				if n.Cond != nil {
					walkLoop(n.Cond, true)
				}
				if n.Post != nil {
					walkLoop(n.Post, true)
				}
				walkLoop(n.Body, true)
				return false
			case *ast.RangeStmt:
				hasLoop = true
				walkLoop(n.X, inLoop)
				walkLoop(n.Body, true)
				return false
			case *ast.CallExpr:
				if inLoop && isCtxConsult(pass.Info, n) {
					consulted = true
				}
			}
			return true
		})
	}
	walkLoop(fd.Body, false)
	switch {
	case !hasLoop:
		pass.Reportf(fd.Name.Pos(),
			"%s is annotated %s but contains no for loop", fd.Name.Name, ctxLoopDirective)
	case !consulted:
		pass.Reportf(fd.Name.Pos(),
			"%s is annotated %s but no loop consults the context (want ctx.Err() or <-ctx.Done() checked per block)",
			fd.Name.Name, ctxLoopDirective)
	}
}

// isCtxConsult reports whether call is ctx.Err() or ctx.Done() on any
// context.Context-typed receiver (the parameter itself or a derived
// context).
func isCtxConsult(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && isContextType(tv.Type)
}

// checkCtxVariantCalls enforces rule 2: flag calls that bypass an
// existing *Ctx sibling.
func checkCtxVariantCalls(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(pass.Info, call)
		if fn == nil || strings.HasSuffix(fn.Name(), "Ctx") {
			return true
		}
		// Passing any context argument means the callee owns the
		// cancellation chain; nothing to flag.
		for _, arg := range call.Args {
			if tv, ok := pass.Info.Types[arg]; ok && isContextType(tv.Type) {
				return true
			}
		}
		if sibling := ctxSibling(fn); sibling != nil {
			pass.Reportf(call.Pos(),
				"%s is called from a context-carrying function but %s exists; call the Ctx variant so cancellation propagates",
				fn.Name(), sibling.Name())
		}
		return true
	})
}

// ctxSibling finds FCtx for F: a same-scope function (or same-receiver
// method) named F+"Ctx" whose first parameter is context.Context.
func ctxSibling(fn *types.Func) *types.Func {
	name := fn.Name() + "Ctx"
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var cand types.Object
	if recv := sig.Recv(); recv != nil {
		recvT := recv.Type()
		if ptr, ok := recvT.(*types.Pointer); ok {
			recvT = ptr.Elem()
		}
		named, ok := recvT.(*types.Named)
		if !ok {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == name {
				cand = m
				break
			}
		}
	} else if fn.Pkg() != nil {
		cand = fn.Pkg().Scope().Lookup(name)
	}
	sibling, ok := cand.(*types.Func)
	if !ok {
		return nil
	}
	ssig, ok := sibling.Type().(*types.Signature)
	if !ok || ssig.Params().Len() == 0 || !isContextType(ssig.Params().At(0).Type()) {
		return nil
	}
	return sibling
}

// checkCtxForwarded enforces rule 3: a looping function must at least
// reference its context parameter.
func checkCtxForwarded(pass *Pass, fd *ast.FuncDecl, ctxParams []*types.Var) {
	hasLoop := false
	used := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			hasLoop = true
		case *ast.Ident:
			if obj, ok := pass.Info.Uses[n]; ok {
				for _, p := range ctxParams {
					if obj == p {
						used = true
					}
				}
			}
		}
		return true
	})
	if hasLoop && !used {
		pass.Reportf(fd.Name.Pos(),
			"%s takes a context and loops but never consults or forwards it; check ctx per block or take `_ context.Context`",
			fd.Name.Name)
	}
}
