package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sortnets"
)

func writeNet(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.txt")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSorterPass(t *testing.T) {
	path := writeNet(t, "n=4: [1,2][3,4][1,3][2,4][2,3]")
	var sb strings.Builder
	code, err := run(&sb, path, "sorter", 1, "binary", 1, 0, false, true, true)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	out := sb.String()
	if !strings.Contains(out, "holds (11 tests)") {
		t.Errorf("missing verdict:\n%s", out)
	}
	if !strings.Contains(out, "analysis:") || !strings.Contains(out, "depth 3") {
		t.Errorf("missing analysis:\n%s", out)
	}
}

func TestRunSorterFail(t *testing.T) {
	path := writeNet(t, "n=4: [1,3][2,4][1,2][3,4]")
	var sb strings.Builder
	code, err := run(&sb, path, "sorter", 1, "binary", 1, 0, false, false, false)
	if err != nil || code != 1 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if !strings.Contains(sb.String(), "fails on 1010") {
		t.Errorf("missing counterexample:\n%s", sb.String())
	}
}

// TestRunPermInputs: -inputs perm on a sorter, and on the Figure-1
// non-sorter, whose first failing chain permutation and its output
// are pinned with the test count and the exit code.
func TestRunPermInputs(t *testing.T) {
	for _, tc := range []struct {
		net, want string
		code      int
	}{
		{"n=4: [1,2][3,4][1,3][2,4][2,3]", "sorter: holds (5 permutation tests)\n", 0},
		{"n=4: [1,3][2,4][1,2][3,4]", "sorter: fails on (2 4 1 3) -> [1 3 2 4] (after 2 tests)\n", 1},
	} {
		var sb strings.Builder
		code, err := run(&sb, writeNet(t, tc.net), "sorter", 1, "perm", 1, 0, false, false, false)
		if err != nil || code != tc.code || sb.String() != tc.want {
			t.Errorf("%s: code=%d err=%v output %q, want code %d output %q", tc.net, code, err, sb.String(), tc.code, tc.want)
		}
	}
}

func TestRunSelectorAndMerger(t *testing.T) {
	sel := writeNet(t, "n=4: [3,4][2,3][1,2]")
	var sb strings.Builder
	code, err := run(&sb, sel, "selector", 1, "binary", 1, 0, false, false, false)
	if err != nil || code != 0 {
		t.Fatalf("selector: code=%d err=%v out=%s", code, err, sb.String())
	}
	mrg := writeNet(t, "n=4: [1,3][2,4][2,3]")
	sb.Reset()
	code, err = run(&sb, mrg, "merger", 1, "binary", 2, 0, false, false, false)
	if err != nil || code != 0 {
		t.Fatalf("merger: code=%d err=%v out=%s", code, err, sb.String())
	}
}

func TestRunExhaustive(t *testing.T) {
	path := writeNet(t, "n=4: [1,2][3,4][1,3][2,4][2,3]")
	var sb strings.Builder
	code, err := run(&sb, path, "sorter", 1, "binary", 1, 0, true, false, false)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v out=%s", code, err, sb.String())
	}
	if !strings.Contains(sb.String(), "holds (16 tests)") { // 2⁴ ground-truth inputs
		t.Errorf("missing exhaustive verdict:\n%s", sb.String())
	}
}

// TestRunTimeoutGroundTruth is the satellite contract: a deliberately
// huge exhaustive sweep under a tiny -timeout must return a deadline
// error promptly, not hang.
func TestRunTimeoutGroundTruth(t *testing.T) {
	// 2³⁰ inputs through a few hundred comparators: seconds of work,
	// cancelled within one engine block of the 50ms deadline.
	path := writeNet(t, sortnets.BatcherSorter(30).Format())
	var sb strings.Builder
	start := time.Now()
	_, err := run(&sb, path, "sorter", 1, "binary", 1, 50*time.Millisecond, true, false, false)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v (out=%s)", err, sb.String())
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline honored only after %v", elapsed)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if _, err := run(&sb, "", "sorter", 1, "binary", 1, 0, false, false, false); err == nil {
		t.Error("missing -net should error")
	}
	if _, err := run(&sb, "/nonexistent/net.txt", "sorter", 1, "binary", 1, 0, false, false, false); err == nil {
		t.Error("missing file should error")
	}
	bad := writeNet(t, "n=4: [4,1]")
	if _, err := run(&sb, bad, "sorter", 1, "binary", 1, 0, false, false, false); err == nil {
		t.Error("invalid network should error")
	}
	good := writeNet(t, "n=3: [1,2]")
	if _, err := run(&sb, good, "merger", 1, "binary", 1, 0, false, false, false); err == nil {
		t.Error("odd-width merger should error")
	}
	if _, err := run(&sb, good, "unknown", 1, "binary", 1, 0, false, false, false); err == nil {
		t.Error("unknown property should error")
	}
	if _, err := run(&sb, good, "sorter", 1, "ternary", 1, 0, false, false, false); err == nil {
		t.Error("unknown input model should error")
	}
	if _, err := run(&sb, good, "sorter", 1, "perm", 1, 0, true, false, false); err == nil {
		t.Error("exhaustive+perm should error")
	}
}
