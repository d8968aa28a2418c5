// Command netverify decides whether a comparator network has a
// property, using the paper's minimal test sets, and reports a
// counterexample on failure.
//
// The network is read from a file (or stdin with -net -) in the text
// format "n=4: [1,3][2,4][1,2][3,4]" (1-based lines, as in the paper).
//
// Usage:
//
//	netverify -net fig1.txt -prop sorter
//	netverify -net net.txt  -prop selector -k 2
//	netverify -net net.txt  -prop merger -inputs perm
//	netverify -net big.txt  -exhaustive -timeout 30s
//	echo 'n=2: [1,2]' | netverify -net - -prop sorter -diagram
//
// Verdicts run through a sortnets.Session, so -timeout is a real
// deadline: it propagates into the engine loops and stops the sweep
// (a 2ⁿ exhaustive run returns a deadline error instead of hanging).
// The -workers flag follows the repository-wide rule: 0 = automatic
// (sequential under the engine's work threshold, all cores above),
// 1 = strictly sequential (deterministic stream-order
// counterexample), k > 1 = exactly k workers.
//
// Exit status: 0 when the property holds, 1 when it fails, 2 on usage
// errors or a missed deadline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sortnets"
)

func main() {
	netFile := flag.String("net", "", "network file, or '-' for stdin")
	prop := flag.String("prop", "sorter", "property: sorter | selector | merger")
	k := flag.Int("k", 1, "selection arity (selector only)")
	inputs := flag.String("inputs", "binary", "input model: binary | perm")
	workers := flag.Int("workers", 0, "verification workers (binary only): 0 = automatic, 1 = sequential, k = exactly k")
	timeout := flag.Duration("timeout", 0, "give up after this long (0 = no deadline), e.g. 30s")
	exhaustive := flag.Bool("exhaustive", false, "sweep all 2^n binary inputs instead of the minimal test set")
	diagram := flag.Bool("diagram", false, "print the network diagram first")
	analyze := flag.Bool("analyze", false, "print structural statistics (size, depth, height, redundancy)")
	flag.Parse()

	code, err := run(os.Stdout, *netFile, *prop, *k, *inputs, *workers, *timeout, *exhaustive, *diagram, *analyze)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netverify:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(out io.Writer, netFile, prop string, k int, inputs string, workers int, timeout time.Duration, exhaustive, diagram, analyze bool) (int, error) {
	if netFile == "" {
		return 0, errors.New("missing -net")
	}
	var data []byte
	var err error
	if netFile == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(netFile)
	}
	if err != nil {
		return 0, err
	}
	w, err := sortnets.ParseNetwork(string(data))
	if err != nil {
		return 0, err
	}
	if diagram {
		fmt.Fprintf(out, "%s\n%s\n", w.Format(), w.Diagram())
	}
	if analyze {
		if w.N > 24 {
			return 0, fmt.Errorf("-analyze sweeps 2^n inputs; n=%d is too wide", w.N)
		}
		fmt.Fprintf(out, "analysis: %s\n", w.Analyze())
	}

	var p sortnets.Property
	switch prop {
	case "sorter":
		p = sortnets.SorterProp{N: w.N}
	case "selector":
		p = sortnets.SelectorProp{N: w.N, K: k}
	case "merger":
		if w.N%2 != 0 {
			return 0, fmt.Errorf("merger property needs an even line count, network has %d", w.N)
		}
		p = sortnets.MergerProp{N: w.N}
	default:
		return 0, fmt.Errorf("unknown property %q", prop)
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	sess := sortnets.NewSession()
	defer sess.Close()

	switch inputs {
	case "perm":
		if exhaustive {
			return 0, errors.New("-exhaustive applies to the binary input model only")
		}
		r, err := sess.CheckPerms(ctx, w, p)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.Name(), err)
		}
		fmt.Fprintf(out, "%s: %s\n", p.Name(), r)
		if !r.Holds {
			return 1, nil
		}
	case "binary":
		var r sortnets.Result
		if exhaustive {
			r, err = sess.GroundTruthParallel(ctx, w, p, workers)
		} else {
			r, err = sess.CheckParallel(ctx, w, p, workers)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.Name(), err)
		}
		fmt.Fprintf(out, "%s: %s\n", p.Name(), r)
		if !r.Holds {
			return 1, nil
		}
	default:
		return 0, fmt.Errorf("unknown input model %q", inputs)
	}
	return 0, nil
}
