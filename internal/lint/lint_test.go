package lint_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sortnets/internal/lint"
	"sortnets/internal/lint/linttest"
)

// TestCtxLoop runs the ctxloop fixture under an in-scope import path
// so the sibling-bypass and ctx-forwarding rules fire.
func TestCtxLoop(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "ctxloop"), "sortnets/internal/eval", lint.CtxLoop)
}

// TestCtxLoopOutOfScope reruns the same fixture under an out-of-scope
// path: only the annotation-driven rule may fire, so the scoped-rule
// wants become the assertion that they did NOT.
func TestCtxLoopOutOfScope(t *testing.T) {
	pkg, diags := runDir(t, filepath.Join("testdata", "ctxloop"), "example.com/outofscope", lint.CtxLoop)
	_ = pkg
	for _, d := range diags {
		if strings.Contains(d.Message, "Ctx variant") || strings.Contains(d.Message, "never consults or forwards") {
			t.Errorf("scoped rule fired outside CtxLoopScope: %s", d)
		}
	}
	// The annotation rule still applies everywhere.
	if len(diags) == 0 {
		t.Fatalf("annotation rule should fire out of scope too")
	}
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "hotalloc"), "sortnets/testdata/hotalloc", lint.HotAlloc)
}

func TestPoolSafe(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "poolsafe"), "sortnets/testdata/poolsafe", lint.PoolSafe)
}

// TestGoroutineLeak: the fixture import path ends in /client, so
// every launch is in scope; each function demonstrates one join
// evidence class or its absence.
func TestGoroutineLeak(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "goroutineleak", "client"), "sortnets/testdata/goroutineleak/client", lint.GoroutineLeak)
}

func TestRetryContractServe(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "retrycontract", "serve"), "sortnets/testdata/retrycontract/serve", lint.RetryContract)
}

func TestRetryContractClient(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "retrycontract", "client"), "sortnets/testdata/retrycontract/client", lint.RetryContract)
}

// TestStatsCover: the fixture directory carries its own README.md,
// so rule B's nearest-README walk stops there instead of reaching the
// repo's.
func TestStatsCover(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "statscover", "serve"), "sortnets/testdata/statscover/serve", lint.StatsCover)
}

// TestCrossPackageFacts drives the two-package fixture in dependency
// order with one shared fact store: the client half's judgement — a
// launch excused by dep's ctx-bounded fact — depends on a fact this
// file cannot see.
func TestCrossPackageFacts(t *testing.T) {
	linttest.RunPkgs(t, []linttest.FixturePkg{
		{Dir: filepath.Join("testdata", "xfacts", "dep"), ImportPath: "sortnets/testdata/xfacts/dep"},
		{Dir: filepath.Join("testdata", "xfacts", "client"), ImportPath: "sortnets/testdata/xfacts/client"},
	}, lint.GoroutineLeak)
}

// TestSuppressions: documented //lint:ignore comments (both
// placements, list and all forms) silence the finding entirely.
func TestSuppressions(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "suppress"), "sortnets/testdata/suppress", lint.All()...)
}

// TestSuppressionNeedsReason: a reason-less //lint:ignore is itself a
// diagnostic and does NOT suppress the finding below it.
func TestSuppressionNeedsReason(t *testing.T) {
	_, diags := runDir(t, filepath.Join("testdata", "badsuppress"), "sortnets/testdata/badsuppress", lint.All()...)
	var sawMalformed, sawSurvivor bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "lint" && strings.Contains(d.Message, "needs a reason"):
			sawMalformed = true
		case d.Analyzer == "hotalloc":
			sawSurvivor = true
		}
	}
	if !sawMalformed {
		t.Errorf("reason-less //lint:ignore was not reported; diags: %v", diags)
	}
	if !sawSurvivor {
		t.Errorf("reason-less //lint:ignore still suppressed the finding; diags: %v", diags)
	}
	if len(diags) != 2 {
		t.Errorf("want exactly 2 diagnostics (malformed + survivor), got %d: %v", len(diags), diags)
	}
}

// TestRepoClean is the gate CI runs: it builds cmd/sortnetlint once
// and runs `go vet -vettool=<bin> ./...` at the module root, so the
// whole module, _test.go files included, must be finding-free at HEAD.
// Any committed finding must be fixed or carry a documented
// suppression.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets the module; skipped in -short")
	}
	root := filepath.Join("..", "..")
	bin := filepath.Join(t.TempDir(), "sortnetlint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sortnetlint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building sortnetlint: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil || len(out) != 0 {
		t.Fatalf("go vet -vettool=sortnetlint ./... at the module root: %v\n%s", err, out)
	}
}

// runDir loads a fixture without want matching, for tests that assert
// on the raw diagnostic list.
func runDir(t *testing.T, dir, importPath string, analyzers ...*lint.Analyzer) (*lint.Package, []lint.Diagnostic) {
	t.Helper()
	pkg, err := linttest.LoadFixture(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := lint.RunAnalyzers(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	return pkg, diags
}
