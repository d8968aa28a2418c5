// Package linttest runs lint analyzers over fixture packages and
// checks their diagnostics against analysistest-style expectations:
// a `// want "regexp"` trailing comment on a line expects exactly one
// diagnostic on that line whose message matches the regexp (several
// quoted regexps expect several diagnostics). A fixture line without
// a want comment expects silence, so every fixture is simultaneously
// a positive and a negative test — weakening an analyzer fails the
// unmatched-want side, over-reporting fails the unexpected side.
//
// Fixtures are plain Go packages under testdata (ignored by the go
// tool), parsed and type-checked directly; they may import only the
// standard library, which the default importer resolves without build
// steps or network. RunPkgs lints several fixture packages in
// dependency order against one shared fact store — the flow the vet
// driver's .vetx files give the real runs — so cross-package facts
// (goroutineleak's ctx-bounded summaries) are testable with a
// two-package fixture.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"sortnets/internal/lint"
)

// Run lints the fixture package in dir (checked under the given
// import path, which decides path-scoped rules like ctxloop's engine
// scope) with the analyzers and reports want-comment mismatches as
// test errors.
func Run(t *testing.T, dir, importPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	RunPkgs(t, []FixturePkg{{Dir: dir, ImportPath: importPath}}, analyzers...)
}

// FixturePkg names one package of a multi-package fixture run.
type FixturePkg struct {
	Dir        string
	ImportPath string
}

// RunPkgs lints the fixture packages in order against one shared
// fact store. Each package is type-checked with its predecessors
// importable under their fixture import paths, so a later fixture
// can `import "fixture/dep"` and the analyzers see the same
// dependency-ordered fact flow the vet driver provides. Want
// comments are checked across all packages.
func RunPkgs(t *testing.T, pkgs []FixturePkg, analyzers ...*lint.Analyzer) {
	t.Helper()
	deps := make(map[string]*types.Package)
	// One stdlib importer for the whole run: importer.Default() caches
	// per instance, and type identity across fixture packages (dep's
	// context.Context IS the client's) requires the shared cache.
	fallback := importer.Default()
	facts := lint.NewFacts()
	var loaded []*lint.Package
	var diags []lint.Diagnostic
	for _, fp := range pkgs {
		pkg, err := loadFixture(fp.Dir, fp.ImportPath, deps, fallback)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", fp.Dir, err)
		}
		deps[fp.ImportPath] = pkg.Types
		ds, err := lint.RunAnalyzersFacts(pkg, analyzers, facts)
		if err != nil {
			t.Fatalf("running analyzers on %s: %v", fp.Dir, err)
		}
		loaded = append(loaded, pkg)
		diags = append(diags, ds...)
	}
	checkWants(t, loaded, diags)
}

// checkWants matches each diagnostic to an unconsumed want on its
// line and reports both unexpected diagnostics and unmatched wants.
func checkWants(t *testing.T, pkgs []*lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	var wants []want
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	type key struct {
		file string
		line int
	}
	byLine := make(map[key][]*want)
	for i := range wants {
		w := &wants[i]
		byLine[key{w.file, w.line}] = append(byLine[key{w.file, w.line}], w)
	}
	for _, d := range diags {
		k := key{filepath.Base(d.Pos.Filename), d.Pos.Line}
		matched := false
		for _, w := range byLine[k] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", posOf(d), d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func posOf(d lint.Diagnostic) string {
	return fmt.Sprintf("%s:%d:%d", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column)
}

// LoadFixture parses and type-checks every .go file in dir as one
// package under the given import path. Fixtures may import only the
// standard library.
func LoadFixture(dir, importPath string) (*lint.Package, error) {
	return loadFixture(dir, importPath, nil, importer.Default())
}

// fixtureImporter resolves previously loaded fixture packages by
// import path and falls back to the default (standard library)
// importer for everything else.
type fixtureImporter struct {
	pkgs     map[string]*types.Package
	fallback types.Importer
}

func (fi fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.pkgs[path]; ok {
		return p, nil
	}
	return fi.fallback.Import(path)
}

func loadFixture(dir, importPath string, deps map[string]*types.Package, fallback types.Importer) (*lint.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: fixtureImporter{pkgs: deps, fallback: fallback},
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	return &lint.Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// want is one expectation parsed from a `// want "re"` comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// wantRE extracts the quoted or backquoted regexps of a want comment.
var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func collectWants(t *testing.T, pkg *lint.Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment (no quoted regexp): %s", filepath.Base(pos.Filename), pos.Line, c.Text)
				}
				for _, m := range ms {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", filepath.Base(pos.Filename), pos.Line, pat, err)
					}
					wants = append(wants, want{file: filepath.Base(pos.Filename), line: pos.Line, re: re})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}
