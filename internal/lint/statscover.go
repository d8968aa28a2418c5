package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strings"
)

// StatsCover closes the observability loop the other analyzers assume
// exists: a counter nobody can see is a counter nobody will notice
// regressing. Two rules, both scoped to the stats-bearing packages
// (client and internal/serve):
//
//   - Rule A: every atomic counter field of a package-level struct —
//     a typed sync/atomic.IntN/UintN/Bool field (the only form the
//     repo uses; a raw integer behind atomic.AddInt64 is not seen) —
//     must be Load()ed inside some function whose name mentions stats
//     or snapshot. A counter that is only ever incremented is
//     write-only telemetry: the increment costs a cache line on the
//     hot path and buys nothing.
//     Deliberate non-counters (the round-robin cursor) are silenced
//     with //lint:ignore statscover <reason>.
//
//   - Rule B: every json-tagged field of a *Stats/*Snapshot struct
//     must appear (by tag key) in the nearest README.md above the
//     package directory. The README's /stats table is the operator
//     contract; a key that ships undocumented is invisible to the
//     person staring at a dashboard mid-incident. Skipped silently
//     when no README exists (fixture trees carry their own).
var StatsCover = &Analyzer{
	Name: "statscover",
	Doc:  "atomic counters must surface in a stats/snapshot function and documented /stats JSON keys",
	Run:  runStatsCover,
}

// StatsCoverScope selects the packages whose counters form the
// operator-facing stats surface.
var StatsCoverScope = func(path string) bool {
	for _, suffix := range []string{"client", "serve"} {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

func runStatsCover(pass *Pass) error {
	if !StatsCoverScope(pass.Pkg.Path()) {
		return nil
	}
	checkCounterSurfacing(pass)
	checkREADMEKeys(pass)
	return nil
}

// atomicTypedField reports whether t is one of the typed sync/atomic
// counter wrappers.
func atomicTypedField(t types.Type) bool {
	for _, name := range []string{"Int32", "Int64", "Uint32", "Uint64", "Bool", "Uintptr"} {
		if isNamedType(t, "sync/atomic", name) {
			return true
		}
	}
	return false
}

// checkCounterSurfacing applies rule A.
func checkCounterSurfacing(pass *Pass) {
	// Atomic counter fields of package-scope named structs. Struct
	// fields only: package-level atomics (pooledBytes) have accessor
	// functions as their surface and are out of rule A's shape.
	counters := make(map[*types.Var]bool)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if fld := st.Field(i); atomicTypedField(fld.Type()) {
				counters[fld] = true
			}
		}
	}
	if len(counters) == 0 {
		return
	}

	// A field is surfaced when a stats/snapshot-named function calls
	// its Load method.
	surfaced := make(map[*types.Var]bool)
	for _, fd := range funcDecls(pass.Files) {
		lower := strings.ToLower(fd.Name.Name)
		if !strings.Contains(lower, "stats") && !strings.Contains(lower, "snapshot") {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Load" {
				if obj, ok := selectorObj(pass.Info, sel.X).(*types.Var); ok {
					surfaced[obj] = true
				}
			}
			return true
		})
	}

	for fld := range counters {
		if surfaced[fld] {
			continue
		}
		// Only report fields declared in this package's sources (the
		// scope walk can reach embedded foreign structs).
		if fld.Pkg() != pass.Pkg {
			continue
		}
		pass.Reportf(fld.Pos(),
			"atomic counter %s is never Load()ed in a stats/snapshot function: write-only telemetry pays the cache-line cost and surfaces nothing — expose it in the stats snapshot or drop it",
			fld.Name())
	}
}

// checkREADMEKeys applies rule B: json keys of *Stats/*Snapshot
// structs must appear in the nearest README.md.
func checkREADMEKeys(pass *Pass) {
	readme, ok := nearestREADME(pass.Dir)
	if !ok {
		return
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if !strings.HasSuffix(name, "Stats") && !strings.HasSuffix(name, "Snapshot") {
			continue
		}
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if !fld.Exported() {
				continue
			}
			key, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
			if key == "" || key == "-" {
				continue
			}
			if strings.Contains(readme, key) {
				continue
			}
			pass.Reportf(fld.Pos(),
				"stats key %q (%s.%s) is not documented in README.md: the /stats table is the operator contract — add the key or drop the field",
				key, name, fld.Name())
		}
	}
}

// nearestREADME walks up from dir looking for a README.md (at most 8
// levels, so fixture trees can carry their own and repo runs find the
// module root's).
func nearestREADME(dir string) (string, bool) {
	for i := 0; i < 8 && dir != "" && dir != "/" && dir != "."; i++ {
		data, err := os.ReadFile(filepath.Join(dir, "README.md"))
		if err == nil {
			return string(data), true
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			break
		}
		dir = parent
	}
	return "", false
}
