package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the CLI entry with stdout/stderr redirected to temp
// files and returns the exit code and both streams.
func capture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.CreateTemp(t.TempDir(), "err")
	if err != nil {
		t.Fatal(err)
	}
	code = run(args, outF, errF)
	return code, slurp(t, outF), slurp(t, errF)
}

func slurp(t *testing.T, f *os.File) string {
	t.Helper()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestListFlag pins the suite: exactly the six analyzers, in order.
func TestListFlag(t *testing.T) {
	code, out, _ := capture(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{"ctxloop", "hotalloc", "poolsafe", "goroutineleak", "retrycontract", "statscover"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("-list names %v, want %v:\n%s", names, want, out)
	}
}

func TestVetHandshake(t *testing.T) {
	code, out, _ := capture(t, "-V=full")
	if code != 0 {
		t.Fatalf("-V=full exited %d", code)
	}
	fields := strings.Fields(strings.TrimSpace(out))
	// The go vet driver requires: <name> version devel ... buildID=<id>.
	if len(fields) < 4 || fields[1] != "version" || fields[2] != "devel" ||
		!strings.HasPrefix(fields[len(fields)-1], "buildID=") {
		t.Fatalf("-V=full output does not satisfy the vet driver: %q", out)
	}

	code, out, _ = capture(t, "-flags")
	if code != 0 || strings.TrimSpace(out) != "[]" {
		t.Fatalf("-flags: exit %d, output %q; want 0 and []", code, out)
	}
}

// buildTool builds the sortnetlint binary into a temporary directory.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sortnetlint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building sortnetlint: %v\n%s", err, out)
	}
	return bin
}

// goVet runs `go vet -vettool=<bin> ./...` in dir with extra
// environment entries, returning the exit code and combined output.
func goVet(t *testing.T, bin, dir string, env ...string) (int, string) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("go vet: %v\n%s", err, out)
	return -1, ""
}

// TestDirectModeClean pins the retired direct mode. `sortnetlint
// <packages>` used to lint in-process and exit 0 on a clean module;
// it must now never report clean: it lints nothing, prints the go vet
// usage and exits 2, so a stale script that still runs it fails
// instead of passing. The module-clean gate itself is
// internal/lint's TestRepoClean, which runs the vet driver.
func TestDirectModeClean(t *testing.T) {
	for _, args := range [][]string{{"sortnets/..."}, {"./..."}, {}} {
		code, out, stderr := capture(t, args...)
		if code != 2 || out != "" || !strings.Contains(stderr, "go vet -vettool=") {
			t.Errorf("sortnetlint %v: exit %d, stdout %q, stderr %q; want exit 2, no stdout and the go vet usage",
				args, code, out, stderr)
		}
	}
}

// TestVetTool drives the binary through the real `go vet -vettool`
// protocol against a throwaway module: a violation in a package file
// and another in a _test.go file must each fail vet on their own, and
// fixing both must pass.
func TestVetTool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet; skipped in -short")
	}
	bin := buildTool(t)
	mod := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(mod, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// wantFindings runs vet and requires it to fail with a hotalloc
	// finding at each of the given file:line positions.
	wantFindings := func(positions ...string) {
		t.Helper()
		code, out := goVet(t, bin, mod, "GOWORK=off", "GOFLAGS=")
		if code == 0 {
			t.Fatalf("go vet -vettool passed a module with hotalloc violations at %v:\n%s", positions, out)
		}
		for _, pos := range positions {
			found := false
			for _, line := range strings.Split(out, "\n") {
				found = found || strings.Contains(line, "/"+pos+":") && strings.HasSuffix(line, "(hotalloc)")
			}
			if !found {
				t.Errorf("vet output has no hotalloc finding at %s:\n%s", pos, out)
			}
		}
	}
	write("go.mod", "module vetprobe\n\ngo 1.22\n")
	write("probe.go", `package vetprobe

import "fmt"

func Probe() error {
	return fmt.Errorf("constant message")
}
`)
	write("probe_test.go", `package vetprobe

import (
	"fmt"
	"testing"
)

func TestProbe(t *testing.T) {
	t.Log(fmt.Sprintf("constant banner"))
}
`)
	wantFindings("probe.go:6", "probe_test.go:9")

	write("probe.go", `package vetprobe

import "errors"

func Probe() error {
	return errors.New("constant message")
}
`)
	wantFindings("probe_test.go:9")

	write("probe_test.go", `package vetprobe

import "testing"

func TestProbe(t *testing.T) {
	t.Log("constant banner")
}
`)
	if code, out := goVet(t, bin, mod, "GOWORK=off", "GOFLAGS="); code != 0 {
		t.Fatalf("go vet -vettool failed a clean module (exit %d):\n%s", code, out)
	}
}
