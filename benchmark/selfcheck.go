package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"adarnet/internal/tensor"
)

// fingerprint describes the machine and configuration a number was
// measured on, on one line.
func fingerprint(o options) string {
	cpuModel := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	commit := "unknown" // a checkout made by `git archive` has no .git
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		commit = strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(commit, "ref: "); ok {
			if hash, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				commit = strings.TrimSpace(string(hash))
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d kernel=%s go=%s gemm32=%s scale=LR%dx%d/patch%d/bins%d/maxlevel%d seed=%d seconds=%d commit=%s",
		cpuModel, runtime.NumCPU(), runtime.GOMAXPROCS(0), kernel, runtime.Version(), tensor.Gemm32KernelName(),
		lrH, lrW, patchSize, bins, maxLevel, o.seed, o.seconds, commit)
}

// disagreements compares two runs of one workload: every end-to-end metric
// within its bound, every count metric exactly equal.
func disagreements(defs []metricDef, a, b *result) []string {
	var out []string
	for _, d := range defs {
		va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
		switch {
		case slices.Contains(countMetrics, d.Name):
			if va != vb {
				out = append(out, fmt.Sprintf("%s: %v vs %v (a count must repeat exactly)", d.Name, va, vb))
			}
		case d.Bound > 0:
			if !withinBound(va, vb, d.Bound, d.Better == "lower") {
				out = append(out, fmt.Sprintf("%s: %.6g vs %.6g, apart by more than %.0f %%", d.Name, va, vb, 100*d.Bound))
			}
		}
	}
	return out
}

// runAll runs every workload untraced and traced, `repeats` times each, and
// prints every metric by name with its unit. With two repeats it is the
// self-check: both readings with their spread, and a failure if they
// disagree. It returns the exit code. (Checkpoint hashes are compared inside
// every untraced run, which sets up three times.)
func runAll(ctx context.Context, o options, repeats int) int {
	code := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o.workload, o.trace = w.name, traced
			var runs []*result
			for i := 0; i < repeats; i++ {
				res, err := runWorkload(ctx, o)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if !res.Correct {
					code = 1
				}
				fmt.Printf("%s trace=%v correct=%v attempted=%d failed=%d\n", w.name, traced, res.Correct, res.Attempted, res.Failed)
				runs = append(runs, res)
			}
			for _, d := range o.defs() {
				fmt.Printf("  %-32s", d.Name)
				for _, res := range runs {
					fmt.Printf(" %14.6g", res.Metrics[d.Name].Value)
				}
				fmt.Printf(" %s", d.Unit)
				if repeats == 2 {
					va, vb := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
					if m := (va + vb) / 2; m != 0 {
						fmt.Printf("  (%+.2f %%)", 100*(vb-va)/m)
					}
				}
				fmt.Println()
			}
			if repeats == 2 {
				for _, msg := range disagreements(o.defs(), runs[0], runs[1]) {
					fmt.Printf("  DISAGREE %s\n", msg)
					code = 1
				}
			}
		}
	}
	return code
}
