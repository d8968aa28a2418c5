package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sortnets"
	"sortnets/internal/eval"
)

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank,
// and whether at least ten samples lie beyond it: below that a tail
// percentile is noise, and the benchmark says so instead of reporting
// it as measured.
func percentile(xs []time.Duration, q float64) (time.Duration, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return s[i], len(s)-1-i >= 10
}

// median is the middle of xs (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// verdictHash is the FNV-1a hash of a verdict's wire bytes. A checksum
// is the wrapping sum of these, so it does not depend on the order
// verdicts arrive in; it is the sum adversary -load prints.
func verdictHash(v *sortnets.Verdict) uint64 {
	h := fnv.New64a()
	h.Write(sortnets.AppendVerdict(nil, v))
	return h.Sum64()
}

func checksum(vs []*sortnets.Verdict) uint64 {
	var sum uint64
	for _, v := range vs {
		sum += verdictHash(v)
	}
	return sum
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB; where
// /proc is missing it falls back to getrusage's maxrss, the same figure.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuModel is the CPU's model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// envHeader states what every performance figure depends on.
func envHeader() string {
	return fmt.Sprintf("go=%s GOMAXPROCS=%d NumCPU=%d cpu=%q kernel_lanes=%d",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), eval.KernelLanes())
}
