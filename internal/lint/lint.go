// Package lint is sortnets' project-specific static-analysis suite:
// a small go/analysis-shaped framework plus six analyzers that
// machine-enforce the invariants the engine and serve layers are
// hand-built around — per-block context cancellation, allocation-free
// hot paths, pool hygiene, provable goroutine joins, the Retry-After
// backpressure contract, and stats-surface coverage. CHANGES.md
// documents these contracts prose-first and records the finding or
// planted defect that keeps each analyzer; this package is the
// executable form, run on every change through `go vet -vettool`
// (cmd/sortnetlint) in CI and in tier-1's repo-clean test, so a
// refactor that silently drops one of them fails fast instead of
// waiting for a fuzz/chaos/-race campaign to trip over the regression.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) but is built on the standard library only —
// go/parser + go/types over the export data the vet driver hands each
// compilation unit — so the suite needs no module dependencies and
// runs in hermetic build environments. Analyzers written against it
// port to the real go/analysis API mechanically if the dependency
// ever lands.
//
// # Annotations
//
//   - `//sortnets:hotpath` in a function's doc block opts it into the
//     hotalloc allocation denylist.
//   - `//sortnets:ctxloop` in a function's doc block asserts its loop
//     observes context cancellation (ctx.Err/ctx.Done inside a loop).
//
// # Suppressions
//
// A finding judged a false positive is silenced with a comment on the
// flagged line (or the line above):
//
//	//lint:ignore <analyzer> <reason>
//
// The analyzer name may be a comma-separated list or "all". The
// reason is mandatory: a suppression without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer in shape.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore suppressions.
	Name string
	// Doc is the analyzer's documentation: first line is a one-line
	// summary.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Report/Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run over one package: the syntax, the
// type information, the cross-package fact store, and the diagnostic
// sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Dir is the package's source directory on disk (empty in
	// fixture-driven tests without one); statscover walks up from it
	// to find the governing README.md.
	Dir string
	// Facts carries cross-package summaries; packages are analyzed in
	// dependency order, so facts exported by a dependency are visible
	// here. See facts.go.
	Facts *Facts

	diags *[]Diagnostic
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Package is one parsed, type-checked compilation unit: what the
// vet driver's unit config (cmd/sortnetlint) or a fixture loader
// (linttest) hands the analyzers.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// All returns the full sortnetlint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxLoop, HotAlloc, PoolSafe, GoroutineLeak, RetryContract, StatsCover,
	}
}

// RunAnalyzers applies the analyzers to pkg with a fresh fact store —
// the single-package form. Cross-package judgements (goroutineleak's
// imported ctx-bounded facts) need RunAnalyzersFacts with a store
// carrying the dependencies' facts.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunAnalyzersFacts(pkg, analyzers, NewFacts())
}

// RunAnalyzersFacts applies the analyzers to pkg against a shared
// fact store, filters suppressed findings, and returns the surviving
// diagnostics sorted by position. Analyzer errors (not findings) are
// returned as-is.
func RunAnalyzersFacts(pkg *Package, analyzers []*Analyzer, facts *Facts) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFacts()
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Dir:      pkg.Dir,
			Facts:    facts,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	diags = applySuppressions(pkg, diags)
	sort.Slice(diags, func(i, j int) bool { return lessDiag(diags[i], diags[j]) })
	return diags, nil
}

// lessDiag orders diagnostics by position, so a unit's findings print
// in the same order on every run.
func lessDiag(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	if a.Analyzer != b.Analyzer {
		return a.Analyzer < b.Analyzer
	}
	return a.Message < b.Message
}

// suppression is one parsed //lint:ignore comment.
type suppression struct {
	names  []string // analyzer names, or ["all"]
	reason string
	pos    token.Position
}

// applySuppressions drops diagnostics silenced by a //lint:ignore
// comment on their line or the line above, and reports suppressions
// that are missing their mandatory reason.
func applySuppressions(pkg *Package, diags []Diagnostic) []Diagnostic {
	// byLine[file][line] — a suppression covers its own line and the
	// one below it (trailing comment vs. comment-above styles).
	byLine := make(map[string]map[int]suppression)
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) == 0 {
					malformed = append(malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore: want `//lint:ignore <analyzer> <reason>`",
					})
					continue
				}
				s := suppression{names: strings.Split(fields[0], ","), pos: pos}
				if len(fields) > 1 {
					s.reason = strings.Join(fields[1:], " ")
				}
				if s.reason == "" {
					malformed = append(malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "//lint:ignore needs a reason: why is this finding a false positive?",
					})
					continue
				}
				m := byLine[pos.Filename]
				if m == nil {
					m = make(map[int]suppression)
					byLine[pos.Filename] = m
				}
				m[pos.Line] = s
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		s, ok := byLine[d.Pos.Filename][d.Pos.Line]
		if !ok {
			s, ok = byLine[d.Pos.Filename][d.Pos.Line-1]
		}
		if ok && suppresses(s, d.Analyzer) {
			continue
		}
		kept = append(kept, d)
	}
	return append(kept, malformed...)
}

func suppresses(s suppression, analyzer string) bool {
	for _, n := range s.names {
		if n == analyzer || n == "all" {
			return true
		}
	}
	return false
}

// --- shared AST/type helpers used by the analyzers ----------------------

// hasDirective reports whether the function's doc block carries the
// given //sortnets:* directive (exact line match, leading-comment
// form). Directives must sit in the doc block immediately above the
// declaration.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// callee resolves the called function or method of a call expression,
// or nil for indirect calls, conversions and builtins.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call: pkg.F.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleePkgPath returns the defining package path of a call's callee,
// or "" when unresolvable or a builtin/universe function.
func calleePkgPath(info *types.Info, call *ast.CallExpr) (path, name string) {
	fn := callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isByteSlice reports whether t's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// rootObj digs the leftmost named object out of an lvalue-ish
// expression: x, x[i], x.f, (*x).f, &x → the object for x (or the
// selected field for pure selector chains where the base is not an
// identifier). Used to give pools and pooled variables an identity.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(v)
		case *ast.ParenExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// funcBodies yields every function body in the file with its
// enclosing declaration info: top-level functions and methods. Bodies
// of function literals are walked as part of their enclosing
// declaration.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
