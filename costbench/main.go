// Command costbench is the cost model of sortnetd. It starts the
// service in-process on loopback (serve.NewService behind net/http),
// drives it through the public client.Pool with one of four workloads
// built on the paper's hard instances, checks every verdict, and
// prints the end-to-end metrics of an untraced run (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). Build and run it from
// the repository root with
//
//	bash costbench/run.sh --workload deep-batch --seed 1 --seconds 25 --trace 0
//
// For each workload run (--workload all runs each in turn), standard
// output has a header (toolchain, CPU, kernel width, measured input
// properties, verdict checksums), one line per metric with its unit,
// and last one JSON object with the keys correct, attempted, failed
// and metrics. The exit code is 0 only when every verdict passed the
// correctness gate. peak_rss_mb is the process's high-water mark, so
// under all it carries over from earlier workloads: compare it from
// single-workload runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all to run each in turn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 25, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	traceDir := flag.String("trace-dir", "", "directory a traced run writes its spans to; empty writes none")
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	for _, n := range names {
		if workloads[n] == nil || *seconds <= 0 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
			fmt.Fprintf(os.Stderr, "usage: costbench --workload {%s|all} --seed N --seconds S --trace {0|1}\n",
				strings.Join(workloadNames(), "|"))
			os.Exit(2)
		}
	}
	cfg := config{seed: *seed, seconds: *seconds, traceDir: *traceDir}
	run := timedRun
	if *trace == 1 {
		run = tracedRun
	}
	correct := true
	for _, n := range names {
		res, err := run(workloads[n], cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "costbench:", err)
			os.Exit(1)
		}
		if err := res.print(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "costbench:", err)
			os.Exit(1)
		}
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}
