// Command benchjson runs the repository's benchmark suite and writes
// the results as machine-readable JSON (benchmark name → ns/op,
// B/op, allocs/op), so the performance trajectory is tracked commit
// over commit instead of living in prose. The E-series benchmarks in
// the repository root reproduce the paper's experiments; the default
// pattern runs exactly those.
//
// Usage:
//
//	go run ./cmd/benchjson                    # writes BENCH.json
//	go run ./cmd/benchjson -out BENCH_PR2.json   # a pinned snapshot
//	go run ./cmd/benchjson -bench 'BenchmarkE(2|14)' -benchtime 1s
//
// The output maps each benchmark to its metrics plus a small header
// (Go version, GOMAXPROCS, core count, the CPU model go test reports,
// bench time) for comparability:
//
//	{
//	  "go": "go1.24.0", "gomaxprocs": 4, "num_cpu": 4,
//	  "cpu": "Intel(R) Xeon(R) Processor @ 2.10GHz", "benchtime": "0.2s",
//	  "benchmarks": {
//	    "BenchmarkE2SorterPermTestSet": {"ns_per_op": 56126, "bytes_per_op": 118392, "allocs_per_op": 19},
//	    ...
//	  }
//	}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Metrics is one benchmark's measurement.
type Metrics struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Result is the file layout.
type Result struct {
	Go         string             `json:"go"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	CPU        string             `json:"cpu"` // the cpu: line of go test, empty when absent
	Benchtime  string             `json:"benchtime"`
	Pattern    string             `json:"pattern"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

func main() {
	bench := flag.String("bench", "^BenchmarkE", "benchmark name pattern (go test -bench)")
	benchtime := flag.String("benchtime", "0.2s", "time per benchmark (go test -benchtime)")
	pkg := flag.String("pkg", ".", "package to benchmark")
	out := flag.String("out", "BENCH.json", "output JSON path")
	flag.Parse()

	if err := run(*bench, *benchtime, *pkg, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
}

func run(bench, benchtime, pkg, out string) error {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", bench, "-benchtime", benchtime, "-benchmem", pkg)
	raw, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return fmt.Errorf("go test failed: %v\n%s", err, ee.Stderr)
		}
		return err
	}
	marks, cpu, err := parseBench(string(raw))
	if err != nil {
		return err
	}
	res := Result{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpu,
		Benchtime:  benchtime,
		Pattern:    bench,
		Benchmarks: marks,
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchjson: %d benchmarks -> %s\n", len(marks), out)
	return nil
}

// parseBench extracts benchmark lines, and the CPU model from the
// "cpu: ..." header line, from go test output. A benchmark line looks
// like:
//
//	BenchmarkE2SorterPermTestSet  42643  56126 ns/op  118392 B/op  19 allocs/op
//
// The -N GOMAXPROCS suffix (BenchmarkFoo-8) is stripped so results
// compare across machines.
func parseBench(out string) (map[string]Metrics, string, error) {
	marks := map[string]Metrics{}
	cpu := ""
	for _, line := range strings.Split(out, "\n") {
		if model, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(model)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		var m Metrics
		m.Iterations = iters
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				m.NsPerOp, err = strconv.ParseFloat(val, 64)
			case "B/op":
				m.BytesPerOp, err = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				m.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
			}
			if err != nil {
				return nil, "", fmt.Errorf("bad benchmark line %q: %v", line, err)
			}
		}
		marks[name] = m
	}
	if len(marks) == 0 {
		return nil, "", errors.New("no benchmark lines found in go test output")
	}
	return marks, cpu, nil
}
