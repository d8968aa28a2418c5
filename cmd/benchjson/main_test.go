package main

import "testing"

const sample = `goos: linux
goarch: amd64
pkg: sortnets
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkE2SorterPermTestSet 	   42643	     56126 ns/op	  118392 B/op	      19 allocs/op
BenchmarkE14PermSpace-8      	   15914	    148877 ns/op	   88984 B/op	     246 allocs/op
BenchmarkE9YaoComparison     	   12345	     99.5 ns/op
PASS
ok  	sortnets	5.500s
`

func TestParseBench(t *testing.T) {
	marks, _, err := parseBench(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(marks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(marks), marks)
	}
	e2 := marks["BenchmarkE2SorterPermTestSet"]
	if e2.Iterations != 42643 || e2.NsPerOp != 56126 || e2.BytesPerOp != 118392 || e2.AllocsPerOp != 19 {
		t.Errorf("E2 metrics wrong: %+v", e2)
	}
	// The -8 GOMAXPROCS suffix must be stripped.
	e14, ok := marks["BenchmarkE14PermSpace"]
	if !ok || e14.NsPerOp != 148877 {
		t.Errorf("E14 suffix not stripped or metrics wrong: %+v (ok=%v)", e14, ok)
	}
	// Fractional ns/op without -benchmem columns.
	if e9 := marks["BenchmarkE9YaoComparison"]; e9.NsPerOp != 99.5 || e9.AllocsPerOp != 0 {
		t.Errorf("E9 metrics wrong: %+v", e9)
	}
}

func TestParseBenchEmpty(t *testing.T) {
	if _, _, err := parseBench("PASS\nok \tsortnets\t0.1s\n"); err == nil {
		t.Error("expected error on output with no benchmarks")
	}
}

// TestParseBenchCPU: the CPU model comes from go test's "cpu:" header
// line, trimmed, and is empty when go test prints none.
func TestParseBenchCPU(t *testing.T) {
	_, cpu, err := parseBench(sample)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", cpu)
	}
	_, cpu, err = parseBench("BenchmarkX \t 10\t 5 ns/op\n")
	if err != nil || cpu != "" {
		t.Errorf("no cpu line: cpu = %q, err = %v", cpu, err)
	}
}
