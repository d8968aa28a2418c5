package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc enforces the zero-alloc serve-path contract (PR 6): a
// function annotated `//sortnets:hotpath` — the hand-rolled wire
// codec, the NDJSON chunk pipeline, the eval kernels — must not call
// into the allocation denylist:
//
//   - anything in encoding/json (the codec exists to avoid it),
//   - anything in fmt (Sprintf/Errorf allocate; error paths belong in
//     unannotated helpers),
//   - anything in reflect or regexp,
//   - strconv's string-returning formatters (Format*, Itoa, Quote*) —
//     the Append* variants write into the caller's buffer,
//   - string(b) / []byte(s) conversions (each copies),
//   - non-constant string concatenation.
//
// The denylist is intentionally syntactic and local: it does not
// chase calls into unannotated helpers, so a hot path is annotated
// function by function (helpers included) and cold error branches
// live in unannotated functions.
//
// One sub-rule applies everywhere, annotation or not: a fmt.Sprintf /
// fmt.Errorf whose arguments are all compile-time constants formats
// the identical string on every call — precompute the message in a
// package-level var (or use errors.New). Beyond the waste, such sites
// are usually per-request error paths a client can drive at line rate.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//sortnets:hotpath functions must not call allocating denylist functions (encoding/json, fmt, string conversions, …)",
	Run:  runHotAlloc,
}

const hotPathDirective = "//sortnets:hotpath"

// hotDeniedPkgs are wholly denied import paths.
var hotDeniedPkgs = map[string]string{
	"encoding/json": "the hot path is encoding/json-free by contract; use the hand-rolled wire codec",
	"fmt":           "fmt allocates; move formatting to a cold helper or use append-style encoding",
	"reflect":       "reflection allocates and defeats devirtualization",
	"regexp":        "regexp allocates; hot paths match bytes by hand",
}

func runHotAlloc(pass *Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		if hasDirective(fd.Doc, hotPathDirective) {
			checkHotBody(pass, fd)
		}
	}
	checkConstantFormat(pass)
	return nil
}

// checkConstantFormat flags fmt.Sprintf / fmt.Errorf calls whose
// arguments are all compile-time constants — the result never varies,
// so the formatting (and its allocation) belongs in a package-level
// var, not on the call path. Package-level var initializers are
// exempt: running the format once at init IS the recommended fix.
func checkConstantFormat(pass *Pass) {
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || call.Ellipsis.IsValid() {
					return true
				}
				pkgPath, fnName := calleePkgPath(pass.Info, call)
				if pkgPath != "fmt" || (fnName != "Sprintf" && fnName != "Errorf") {
					return true
				}
				for _, arg := range call.Args {
					tv, ok := pass.Info.Types[arg]
					if !ok || tv.Value == nil {
						return true
					}
				}
				if fnName == "Errorf" {
					pass.Reportf(call.Pos(),
						"fmt.Errorf formats only constants and returns the same value on every call; use errors.New (or a package-level error var)")
					return true
				}
				pass.Reportf(call.Pos(),
					"fmt.Sprintf formats only constants and returns the same value on every call; precompute it in a package-level var")
				return true
			})
		}
	}
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	// String-concat chains parse as left-nested BinaryExprs; collect
	// operand nodes so a+b+c reports once, at the outermost add.
	innerAdds := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if bin, ok := n.(*ast.BinaryExpr); ok && isStringAdd(pass.Info, bin) {
			if x, ok := ast.Unparen(bin.X).(*ast.BinaryExpr); ok && isStringAdd(pass.Info, x) {
				innerAdds[x] = true
			}
			if y, ok := ast.Unparen(bin.Y).(*ast.BinaryExpr); ok && isStringAdd(pass.Info, y) {
				innerAdds[y] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() {
				checkHotConversion(pass, name, n, tv.Type)
				return true
			}
			pkgPath, fnName := calleePkgPath(pass.Info, n)
			if reason, denied := hotDeniedPkgs[pkgPath]; denied {
				pass.Reportf(n.Pos(), "%s is %s but calls %s.%s: %s",
					name, hotPathDirective, pkgPath, fnName, reason)
				return true
			}
			if pkgPath == "strconv" && strconvAllocates(fnName) {
				pass.Reportf(n.Pos(), "%s is %s but calls strconv.%s, which returns a fresh string; use the strconv.Append* form into the caller's buffer",
					name, hotPathDirective, fnName)
			}
		case *ast.BinaryExpr:
			if isStringAdd(pass.Info, n) && !innerAdds[n] {
				pass.Reportf(n.Pos(), "%s is %s but concatenates strings, which allocates; append into a reused []byte instead",
					name, hotPathDirective)
			}
		}
		return true
	})
}

// checkHotConversion flags string(b) and []byte(s) conversions, each
// of which copies its operand.
func checkHotConversion(pass *Pass, fname string, call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	argTV, ok := pass.Info.Types[call.Args[0]]
	if !ok {
		return
	}
	// Constant-folded conversions (string of a constant) don't
	// allocate at run time.
	if argTV.Value != nil {
		return
	}
	switch {
	case isString(target) && isByteSlice(argTV.Type):
		pass.Reportf(call.Pos(), "%s is %s but converts []byte to string, which copies; keep the bytes or intern through a cache",
			fname, hotPathDirective)
	case isByteSlice(target) && isString(argTV.Type):
		pass.Reportf(call.Pos(), "%s is %s but converts string to []byte, which copies; append the string into the buffer instead",
			fname, hotPathDirective)
	}
}

// strconvAllocates reports whether the strconv function returns a
// freshly allocated string (vs. the Append/Parse families).
func strconvAllocates(name string) bool {
	return strings.HasPrefix(name, "Format") ||
		strings.HasPrefix(name, "Quote") ||
		name == "Itoa"
}

// isStringAdd reports a non-constant string concatenation.
func isStringAdd(info *types.Info, bin *ast.BinaryExpr) bool {
	if bin.Op.String() != "+" {
		return false
	}
	tv, ok := info.Types[bin]
	if !ok || tv.Type == nil || !isString(tv.Type) {
		return false
	}
	return tv.Value == nil // constant folds are free
}
