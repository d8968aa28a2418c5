package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// RetryContract machine-enforces the two halves of the Retry-After
// contract the failover plane (PR 7–8) is built on: a zero-failed-
// request drain/shed/failover depends on servers always telling
// clients WHEN to come back, and on clients never punishing a backend
// for the caller's own bad request.
//
// Serve side (packages whose import path ends in "serve"):
//
//   - S1: any response written with a constant 429, 503 or 504 status
//     — w.WriteHeader(...) or a helper taking an http.ResponseWriter —
//     must be preceded, on some path through the function's CFG, by a
//     Header().Set("Retry-After", ...) call. A backpressure status
//     without the hint turns a polite client into a hammering one.
//
//   - S2: a composite literal of a RequestError-shaped type (named
//     RequestError, carrying a RetryAfter field) with a constant 429/
//     503/504 Status must populate RetryAfter — the typed error IS
//     the wire contract on per-line (NDJSON) and mapped error paths,
//     and 0 decodes as "no hint".
//
// Client side (packages whose import path ends in "client"):
//
//   - C1: a function that classifies *RequestError outcomes
//     (errors.As) AND feeds a breaker (a .Failure(...) call) must
//     carry the semantic guard — a re.Status < 500 comparison — and
//     the Failure call must NOT be reachable from the guard's true
//     branch (CFG reachability). A semantic 4xx means the wire and
//     the backend are healthy; counting it as failure opens breakers
//     on well-formed traffic mid-incident, exactly when failover
//     needs them honest.
var RetryContract = &Analyzer{
	Name: "retrycontract",
	Doc:  "429/503/504 emissions must carry Retry-After; client breakers must not count semantic 4xx as backend failure",
	Run:  runRetryContract,
}

// RetryContractServeScope / RetryContractClientScope select where
// each half applies.
var RetryContractServeScope = func(path string) bool {
	return path == "serve" || strings.HasSuffix(path, "/serve")
}

var RetryContractClientScope = func(path string) bool {
	return path == "client" || strings.HasSuffix(path, "/client")
}

// retryStatuses are the backpressure statuses that promise a hint.
var retryStatuses = map[int64]bool{429: true, 503: true, 504: true}

func runRetryContract(pass *Pass) error {
	if RetryContractServeScope(pass.Pkg.Path()) {
		for _, fd := range funcDecls(pass.Files) {
			checkServeEmissions(pass, fd)
		}
		checkRequestErrorLiterals(pass)
	}
	if RetryContractClientScope(pass.Pkg.Path()) {
		for _, fd := range funcDecls(pass.Files) {
			checkBreakerClassification(pass, fd)
		}
	}
	return nil
}

// constStatus resolves an expression to a constant integer, ok only
// for compile-time constants.
func constStatus(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}

// isResponseWriter reports whether t is net/http.ResponseWriter.
func isResponseWriter(t types.Type) bool {
	return isNamedType(t, "net/http", "ResponseWriter")
}

// emission is one constant-status backpressure write.
type emission struct {
	call   *ast.CallExpr
	status int64
}

// checkServeEmissions applies S1 to one function.
func checkServeEmissions(pass *Pass, fd *ast.FuncDecl) {
	var emissions []emission
	var retryAfterSets []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isRetryAfterSet(pass.Info, call) {
			retryAfterSets = append(retryAfterSets, call)
			return true
		}
		if e, ok := statusEmission(pass.Info, call); ok {
			emissions = append(emissions, e)
		}
		return true
	})
	if len(emissions) == 0 {
		return
	}
	cfg := BuildCFG(fd.Body)
	for _, e := range emissions {
		hinted := false
		for _, set := range retryAfterSets {
			b := blockContaining(cfg, set)
			if b == nil {
				continue
			}
			if ReachableFrom(cfg, cfg.Reachable(b), e.call) {
				hinted = true
				break
			}
		}
		if hinted {
			continue
		}
		pass.Reportf(e.call.Pos(), "%d response is written without a Retry-After header on this path; set it (via RetryAfterSeconds) so clients back off instead of hammering", e.status)
	}
}

// isRetryAfterSet matches X.Set("Retry-After", ...) — the
// http.Header method or anything shaped like it.
func isRetryAfterSet(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Set" || len(call.Args) < 2 {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return false
	}
	return constant.StringVal(tv.Value) == "Retry-After"
}

// statusEmission matches a response write carrying a constant
// backpressure status: w.WriteHeader(C), or a call to a function one
// of whose parameters is an http.ResponseWriter with some argument a
// constant 429/503/504.
func statusEmission(info *types.Info, call *ast.CallExpr) (emission, bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "WriteHeader" && len(call.Args) == 1 {
		if t := info.TypeOf(sel.X); t != nil && isResponseWriter(t) {
			if c, ok := constStatus(info, call.Args[0]); ok && retryStatuses[c] {
				return emission{call: call, status: c}, true
			}
		}
	}
	fn := callee(info, call)
	if fn == nil {
		return emission{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return emission{}, false
	}
	hasWriter := false
	for i := 0; i < sig.Params().Len(); i++ {
		if isResponseWriter(sig.Params().At(i).Type()) {
			hasWriter = true
		}
	}
	if !hasWriter {
		return emission{}, false
	}
	for _, arg := range call.Args {
		if c, ok := constStatus(info, arg); ok && retryStatuses[c] {
			return emission{call: call, status: c}, true
		}
	}
	return emission{}, false
}

// blockContaining finds a CFG block one of whose recorded nodes
// contains n by position.
func blockContaining(cfg *CFG, n ast.Node) *Block {
	var best *Block
	var bestSpan token.Pos = 1 << 30
	for _, b := range cfg.Blocks {
		for _, rec := range b.Nodes {
			if rec.Pos() <= n.Pos() && n.End() <= rec.End() {
				if span := rec.End() - rec.Pos(); token.Pos(span) < bestSpan {
					best, bestSpan = b, token.Pos(span)
				}
			}
		}
	}
	return best
}

// checkRequestErrorLiterals applies S2 to the whole package.
func checkRequestErrorLiterals(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(lit)
			if t == nil || !isRequestErrorType(t) {
				return true
			}
			var status int64
			hasStatus, hasRetryAfter := false, false
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					return true // positional literal: no field names to check
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				switch key.Name {
				case "Status":
					if c, ok := constStatus(pass.Info, kv.Value); ok {
						status, hasStatus = c, true
					}
				case "RetryAfter":
					hasRetryAfter = true
				}
			}
			if !hasStatus || hasRetryAfter || !retryStatuses[status] {
				return true
			}
			pass.Reportf(lit.Pos(),
				"RequestError with status %d carries no RetryAfter: the typed error is the wire's backpressure hint, and 0 decodes as \"none\"", status)
			return true
		})
	}
}

// isRequestErrorType matches a named type called RequestError whose
// struct has both Status and RetryAfter fields (pointer-stripped).
func isRequestErrorType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "RequestError" {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	hasStatus, hasRetryAfter := false, false
	for i := 0; i < st.NumFields(); i++ {
		switch st.Field(i).Name() {
		case "Status":
			hasStatus = true
		case "RetryAfter":
			hasRetryAfter = true
		}
	}
	return hasStatus && hasRetryAfter
}

// checkBreakerClassification applies C1 to one client function.
func checkBreakerClassification(pass *Pass, fd *ast.FuncDecl) {
	var failures []*ast.CallExpr
	classifies := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Failure" {
			failures = append(failures, call)
		}
		if isRequestErrorAs(pass.Info, call) {
			classifies = true
		}
		return true
	})
	if len(failures) == 0 || !classifies {
		return
	}

	// Find the semantic guard: an if condition comparing .Status < 500.
	var guard *ast.IfStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || guard != nil {
			return guard == nil
		}
		if condHasSemanticGuard(pass.Info, ifs.Cond) {
			guard = ifs
			return false
		}
		return true
	})
	if guard == nil {
		pass.Reportf(failures[0].Pos(),
			"breaker Failure() is fed *RequestError outcomes with no semantic guard: compare re.Status < 500 (429 excepted) so a caller's own 4xx cannot open the breaker on a healthy backend")
		return
	}
	if len(guard.Body.List) == 0 {
		return
	}
	cfg := BuildCFG(fd.Body)
	thenBlock := blockContaining(cfg, guard.Body.List[0])
	if thenBlock == nil {
		return
	}
	reach := cfg.Reachable(thenBlock)
	for _, fc := range failures {
		if ReachableFrom(cfg, reach, fc) {
			pass.Reportf(fc.Pos(),
				"Failure() is reachable from the semantic-4xx branch (re.Status < 500): return or record Success there, or a well-formed rejection trips the breaker")
		}
	}
}

// isRequestErrorAs matches errors.As(err, &re) where re is
// *RequestError (of any package defining a Status-carrying type by
// that name).
func isRequestErrorAs(info *types.Info, call *ast.CallExpr) bool {
	if path, name := calleePkgPath(info, call); path != "errors" || name != "As" || len(call.Args) != 2 {
		return false
	}
	t := info.TypeOf(call.Args[1])
	for i := 0; i < 2; i++ {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "RequestError"
}

// condHasSemanticGuard scans a condition for `X.Status < 500`.
func condHasSemanticGuard(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		if bin.Op != token.LSS {
			return true
		}
		sel, ok := ast.Unparen(bin.X).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Status" {
			return true
		}
		if c, ok := constStatus(info, bin.Y); ok && c == 500 {
			found = true
			return false
		}
		return true
	})
	return found
}
