// Command sortnetlint runs the sortnets project's analyzer suite
// (internal/lint) as a go vet tool: six project-specific checks that
// machine-enforce the engine's hand-kept invariants — per-block
// context cancellation (ctxloop), allocation-free hot paths
// (hotalloc), sync.Pool hygiene (poolsafe), provable goroutine joins
// (goroutineleak), the Retry-After backpressure contract
// (retrycontract), and stats-surface coverage (statscover).
//
// Usage:
//
//	go build -o sortnetlint ./cmd/sortnetlint
//	go vet -vettool=$(pwd)/sortnetlint ./...
//	sortnetlint -list
//
// The vet driver runs the tool once per compilation unit, test
// variants included, and caches the results per package; any finding
// fails the vet run. Findings judged false positives are suppressed
// in the source with `//lint:ignore <analyzer> <reason>` on (or above)
// the flagged line.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sortnets/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("sortnetlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	version := fs.String("V", "", "version flag for the go vet driver")
	flagsQuery := fs.Bool("flags", false, "describe flags in JSON (go vet driver handshake)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// go vet driver handshake: -V=full prints an identity line used
	// for the build cache key; -flags asks for the flag schema. The
	// driver requires the "devel" form to end in a buildID=<hex>
	// field: the executable's content hash, so rebuilding the tool
	// with changed analyzers invalidates cached vet results.
	if *version != "" {
		id, err := buildID()
		if err != nil {
			fmt.Fprintf(stderr, "sortnetlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "sortnetlint version devel buildID=%s\n", id)
		return 0
	}
	if *flagsQuery {
		fmt.Fprintln(stdout, "[]")
		return 0
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}

	// The vet driver passes exactly one *.cfg argument describing a
	// single compilation unit.
	if fs.NArg() == 1 && strings.HasSuffix(fs.Arg(0), ".cfg") {
		return runVetUnit(fs.Arg(0), stdout, stderr)
	}
	fmt.Fprintln(stderr, "usage: go vet -vettool=/path/to/sortnetlint [packages]\n       sortnetlint -list")
	return 2
}

// buildID content-hashes this binary for the vet driver's cache key.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
