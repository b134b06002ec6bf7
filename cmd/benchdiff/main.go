// Command benchdiff compares two machine-readable benchmark files
// (BENCH_*.json, as written by adarnet-bench -json-dir) and reports the
// relative change of every shared numeric metric. With -metric it becomes a
// CI gate: the process exits non-zero when the named metric regressed by
// more than -max-regress percent.
//
// Metrics are addressed by their flattened JSON path: object keys join with
// '.', array elements by index — e.g. large_speedup,
// shapes.5.kernels.generic.ns_per_op. Higher values count as better by
// default; pass -lower-better for latency-style metrics.
//
// Usage:
//
//	benchdiff old.json new.json
//	benchdiff -metric large_speedup -max-regress 10 old.json new.json
//	benchdiff -metric shapes.5.kernels.generic.ns_per_op -lower-better -max-regress 25 old.json new.json
//
// Exit status: 0 on success, 1 on regression (or a -metric missing from
// either file), 2 on usage or read errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
)

func main() {
	metric := flag.String("metric", "", "flattened metric path to gate on; empty only prints the diff table")
	maxRegress := flag.Float64("max-regress", 5, "largest tolerated regression of -metric, in percent")
	lowerBetter := flag.Bool("lower-better", false, "treat a decrease of -metric as an improvement (latency-style metrics)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-metric path] [-max-regress pct] [-lower-better] old.json new.json")
		os.Exit(2)
	}

	old, err := loadMetrics(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	new_, err := loadMetrics(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	keys := sharedKeys(old, new_)
	fmt.Printf("%-36s %16s %16s %10s\n", "metric", "old", "new", "delta")
	for _, k := range keys {
		fmt.Printf("%-36s %16.4g %16.4g %9.2f%%\n", k, old[k], new_[k], deltaPct(old[k], new_[k]))
	}

	if *metric == "" {
		return
	}
	ov, ook := old[*metric]
	nv, nok := new_[*metric]
	if !ook || !nok {
		fmt.Fprintf(os.Stderr, "benchdiff: metric %q missing (old: %v, new: %v); available: %v\n", *metric, ook, nok, keys)
		os.Exit(1)
	}
	reg := regressionPct(ov, nv, *lowerBetter)
	if reg > *maxRegress {
		fmt.Fprintf(os.Stderr, "benchdiff: %s regressed %.2f%% (old %.6g, new %.6g, limit %.2f%%)\n",
			*metric, reg, ov, nv, *maxRegress)
		os.Exit(1)
	}
	fmt.Printf("%s: %.6g -> %.6g (regression %.2f%%, limit %.2f%%) OK\n", *metric, ov, nv, reg, *maxRegress)
}

// loadMetrics reads a JSON file and flattens every numeric leaf into a
// dotted-path map.
func loadMetrics(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v interface{}
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := map[string]float64{}
	flatten("", v, m)
	return m, nil
}

// flatten walks a decoded JSON value, collecting numeric leaves under
// dot-joined paths; array elements use their index as the path segment.
func flatten(prefix string, v interface{}, out map[string]float64) {
	switch t := v.(type) {
	case map[string]interface{}:
		for k, child := range t {
			flatten(join(prefix, k), child, out)
		}
	case []interface{}:
		for i, child := range t {
			flatten(join(prefix, strconv.Itoa(i)), child, out)
		}
	case float64:
		out[prefix] = t
	}
}

func join(prefix, key string) string {
	if prefix == "" {
		return key
	}
	return prefix + "." + key
}

// sharedKeys returns the sorted metric paths present in both files.
func sharedKeys(a, b map[string]float64) []string {
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// deltaPct is the signed relative change new vs old, in percent.
func deltaPct(old, new_ float64) float64 {
	if old == 0 {
		if new_ == 0 {
			return 0
		}
		return math.Inf(sign(new_))
	}
	return 100 * (new_ - old) / math.Abs(old)
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// regressionPct converts the delta into "percent worse": positive when the
// metric moved in the bad direction, negative (an improvement) otherwise.
func regressionPct(old, new_ float64, lowerBetter bool) float64 {
	d := deltaPct(old, new_)
	if lowerBetter {
		return d
	}
	return -d
}
