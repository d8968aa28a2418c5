package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"sortnets"
	"sortnets/internal/core"
	"sortnets/internal/streamtab"
)

// TestStreamTabDirServesIdenticalVerdicts wires a table directory
// through serve.Config and checks the HTTP verdict is byte-identical
// to a live-enumeration service — the operator-facing face of the
// "tables change nothing but the work" contract.
func TestStreamTabDirServesIdenticalVerdicts(t *testing.T) {
	dir := t.TempDir()
	if _, err := streamtab.Write(dir, streamtab.Header{Property: "sorter", N: 4}, core.SorterBinaryTests(4)); err != nil {
		t.Fatal(err)
	}

	body := `{"network":"n=4: [1,2][3,4][1,3][2,4][2,3]"}`
	serve := func(cfg Config) string {
		svc := NewService(cfg)
		defer svc.Close()
		req := httptest.NewRequest("POST", "/do", strings.NewReader(body))
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}

	plain := serve(Config{Workers: 1})
	tabbed := serve(Config{Workers: 1, StreamTabDir: dir})
	if plain != tabbed {
		t.Fatalf("verdicts diverge\nlive:   %s\ntabbed: %s", plain, tabbed)
	}
	var v sortnets.Verdict
	if err := json.Unmarshal([]byte(tabbed), &v); err != nil {
		t.Fatal(err)
	}
	if v.Check == nil || !v.Check.Holds || v.Check.TestsRun != 11 {
		t.Fatalf("unexpected verdict: %s", tabbed)
	}
}
