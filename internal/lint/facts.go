package lint

import (
	"encoding/json"
	"fmt"
	"go/types"
)

// Facts is the cross-package summary store that turns the per-package
// analyzers into a whole-program analysis: when a package is analyzed,
// its analyzers export facts about its objects ("this function bounds
// itself on its ctx"), and analyzers running over the packages that
// import it read those facts instead of re-deriving (or being blind
// to) their dependencies' behavior. This mirrors
// golang.org/x/tools/go/analysis facts in role, but keys facts by
// stable symbol strings instead of types.Object identities, because
// an object imported from export data is NOT the object the defining
// package was analyzed with.
//
// Fact values are stored as JSON so the whole store serializes: under
// `go vet -vettool` each compilation unit is a separate process, and
// the store round-trips through the driver's .vetx fact files
// (cmd/sortnetlint/vetunit.go), dependencies first.
type Facts struct {
	// m[analyzer][symbol] = marshaled fact.
	m map[string]map[string]json.RawMessage
}

// NewFacts returns an empty store.
func NewFacts() *Facts {
	return &Facts{m: make(map[string]map[string]json.RawMessage)}
}

// export records one fact; a second export for the same (analyzer,
// symbol) overwrites (last writer wins — package order is
// deterministic, so this is too).
func (f *Facts) export(analyzer, symbol string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("lint: marshaling %s fact for %s: %w", analyzer, symbol, err)
	}
	if f.m[analyzer] == nil {
		f.m[analyzer] = make(map[string]json.RawMessage)
	}
	f.m[analyzer][symbol] = data
	return nil
}

// lookup unmarshals the fact for (analyzer, symbol) into out,
// reporting whether one exists.
func (f *Facts) lookup(analyzer, symbol string, out any) bool {
	data, ok := f.m[analyzer][symbol]
	if !ok {
		return false
	}
	return json.Unmarshal(data, out) == nil
}

// MarshalJSON serializes the whole store (the .vetx payload).
func (f *Facts) MarshalJSON() ([]byte, error) {
	return json.Marshal(f.m)
}

// UnmarshalJSON merges a serialized store into f (existing facts for
// other packages' symbols are kept; duplicates overwrite).
func (f *Facts) UnmarshalJSON(data []byte) error {
	var m map[string]map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if f.m == nil {
		f.m = make(map[string]map[string]json.RawMessage)
	}
	for a, syms := range m {
		if f.m[a] == nil {
			f.m[a] = make(map[string]json.RawMessage)
		}
		for s, v := range syms {
			f.m[a][s] = v
		}
	}
	return nil
}

// ExportFact records a fact about symbol under this pass's analyzer.
func (p *Pass) ExportFact(symbol string, v any) {
	if p.Facts == nil {
		return
	}
	if err := p.Facts.export(p.Analyzer.Name, symbol, v); err != nil {
		panic(err) // fact types are package-internal; failing to marshal one is a bug
	}
}

// ImportFact looks up another package's (or this one's) fact about
// symbol for this pass's analyzer, unmarshaling it into out.
func (p *Pass) ImportFact(symbol string, out any) bool {
	if p.Facts == nil {
		return false
	}
	return p.Facts.lookup(p.Analyzer.Name, symbol, out)
}

// FuncSymbol names a function or method stably across packages:
// "pkg/path.Func" or "(pkg/path.Recv).Method" — types.Func.FullName's
// format, which survives the export-data round trip.
func FuncSymbol(fn *types.Func) string { return fn.FullName() }
