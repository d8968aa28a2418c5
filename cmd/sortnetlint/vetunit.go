package main

// go vet's vettool protocol: the driver compiles each package, writes
// a JSON config describing the compilation unit (sources, the import
// map, export-data files for every dependency, and the dependencies'
// fact files), and invokes the tool with that one *.cfg path. The
// tool type-checks the unit from the supplied files — no `go list`,
// no network — runs its analyzers, prints findings to stderr, and
// exits 2 when it found any, which the driver surfaces as a vet
// failure. A package with test files is vetted as its test variant,
// so _test.go files are linted too.
//
// Facts ride the protocol's .vetx files: PackageVetx maps each
// dependency to the fact file its own analysis run produced, and
// VetxOutput is where this unit must write its facts. The store
// merges every dependency's facts before analysis and serializes the
// union afterwards, which carries goroutineleak's ctx-bounded
// function facts from each package to its importers. Analyzers
// therefore run even for VetxOnly units — the driver asks for facts
// only, so the diagnostics are computed-and-dropped, but the exported
// facts must exist for the units upstream.
import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"

	"sortnets/internal/lint"
)

// vetConfig is the subset of the driver's vet.cfg the tool needs.
type vetConfig struct {
	ID          string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

func runVetUnit(cfgPath string, stdout, stderr *os.File) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "sortnetlint: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "sortnetlint: parsing %s: %v\n", cfgPath, err)
		return 2
	}

	// Merge the dependencies' facts. Vetx files from older tool
	// versions (or the empty files fact-free tools write) are skipped,
	// not fatal — analysis degrades to package-local, same as a cold
	// cache.
	facts := lint.NewFacts()
	for _, vetx := range cfg.PackageVetx {
		b, err := os.ReadFile(vetx)
		if err != nil || len(b) == 0 {
			continue
		}
		_ = facts.UnmarshalJSON(b)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(stderr, "sortnetlint: %v\n", err)
			return 2
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "sortnetlint: typecheck %s: %v\n", cfg.ImportPath, err)
		return 2
	}
	pkg := &lint.Package{
		ImportPath: cfg.ImportPath,
		Dir:        cfg.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	diags, err := lint.RunAnalyzersFacts(pkg, lint.All(), facts)
	if err != nil {
		fmt.Fprintf(stderr, "sortnetlint: %v\n", err)
		return 2
	}

	// The driver requires the facts file even when the store is empty.
	if cfg.VetxOutput != "" {
		payload, err := facts.MarshalJSON()
		if err != nil {
			fmt.Fprintf(stderr, "sortnetlint: %v\n", err)
			return 2
		}
		if err := os.WriteFile(cfg.VetxOutput, payload, 0o666); err != nil {
			fmt.Fprintf(stderr, "sortnetlint: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: %s (%s)\n", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
