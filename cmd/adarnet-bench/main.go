// Command adarnet-bench regenerates the paper's evaluation tables and
// figures. Each experiment prints the same rows/series the paper reports;
// absolute times reflect this machine, shapes should match the paper.
//
// Usage:
//
//	adarnet-bench -exp all  -scale quick
//	adarnet-bench -exp fig9 -scale full
//	adarnet-bench -exp table1,table2
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"adarnet/internal/bench"
	"adarnet/internal/tensor"
	"adarnet/internal/tensor/cpu"
)

// validExps lists every runnable experiment; unknown -exp names are rejected
// with this list instead of silently running nothing.
var validExps = []string{"micro", "gemm", "serve", "infer32", "cache", "jobs", "trace", "fig1", "fig9", "fig10", "fig11", "table1", "table2"}

func isValidExp(name string) bool {
	for _, v := range validExps {
		if name == v {
			return true
		}
	}
	return false
}

func main() {
	exp := flag.String("exp", "all", "experiments to run: all | "+strings.Join(validExps, ","))
	scale := flag.String("scale", "quick", "experiment scale: tiny | quick | full")
	jsonDir := flag.String("json-dir", "", "directory for machine-readable BENCH_<exp>.json outputs; empty disables")
	gemmKernel := flag.String("gemm-kernel", "auto", "float32 GEMM micro-kernel: auto | avx2 | neon | generic")
	flag.Parse()

	// Select the kernel before anything packs weights; -exp gemm still
	// iterates every compiled kernel regardless of this override.
	kernel, err := tensor.SetGemm32Kernel(*gemmKernel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adarnet-bench:", err)
		os.Exit(2)
	}

	sc, err := bench.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		name := strings.TrimSpace(e)
		if name != "all" && !isValidExp(name) {
			fmt.Fprintf(os.Stderr, "adarnet-bench: unknown experiment %q (valid: all, %s)\n", name, strings.Join(validExps, ", "))
			os.Exit(2)
		}
		want[name] = true
	}
	all := want["all"]

	start := time.Now()
	fmt.Printf("# adarnet-bench scale=%s (LR %dx%d, patches %dx%d, max level %d) gemm-kernel=%s cpu=%s\n",
		sc.Name, sc.LRH, sc.LRW, sc.PatchH, sc.PatchW, sc.MaxLevel, kernel, cpu.Summary())

	// Kernel microbenchmarks need no corpus or training, so they run before
	// the (expensive) environment setup. Not part of "all": they measure the
	// implementation, not the paper's tables.
	if want["micro"] {
		if err := bench.Micro(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "micro failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if want["gemm"] {
		jsonPath := ""
		if *jsonDir != "" {
			jsonPath = filepath.Join(*jsonDir, "BENCH_gemm.json")
		}
		if _, err := bench.GemmJSON(os.Stdout, jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "gemm failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if want["serve"] {
		jsonPath := ""
		if *jsonDir != "" {
			jsonPath = filepath.Join(*jsonDir, "BENCH_serve.json")
		}
		if _, err := bench.ServeJSON(os.Stdout, jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "serve failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if want["infer32"] {
		jsonPath := ""
		if *jsonDir != "" {
			jsonPath = filepath.Join(*jsonDir, "BENCH_infer32.json")
		}
		if _, err := bench.Infer32JSON(os.Stdout, jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "infer32 failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if want["cache"] {
		jsonPath := ""
		if *jsonDir != "" {
			jsonPath = filepath.Join(*jsonDir, "BENCH_cache.json")
		}
		if _, err := bench.CacheJSON(os.Stdout, jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "cache failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if want["jobs"] {
		jsonPath := ""
		if *jsonDir != "" {
			jsonPath = filepath.Join(*jsonDir, "BENCH_jobs.json")
		}
		if _, err := bench.JobsJSON(os.Stdout, jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "jobs failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if want["trace"] {
		jsonPath := ""
		if *jsonDir != "" {
			jsonPath = filepath.Join(*jsonDir, "BENCH_trace.json")
		}
		if _, err := bench.TraceJSON(os.Stdout, jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "trace failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if all || want["fig1"] {
		bench.Fig1(os.Stdout)
		fmt.Println()
	}

	needEnv := all || want["fig9"] || want["fig10"] || want["fig11"] || want["table1"] || want["table2"]
	if !needEnv {
		return
	}
	fmt.Println("# preparing environment (corpus generation + training)...")
	env := bench.Setup(sc)
	fmt.Printf("# environment ready in %v (ADARNet %d params)\n\n", time.Since(start).Round(time.Second), env.Model.ParamCount())

	run := func(name string, f func() error) {
		if !all && !want[name] {
			return
		}
		t0 := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("# %s done in %v\n\n", name, time.Since(t0).Round(time.Millisecond))
	}
	run("fig9", func() error { _, err := bench.Fig9(env, os.Stdout); return err })
	run("fig10", func() error { _, err := bench.Fig10(env, os.Stdout); return err })
	run("fig11", func() error { _, err := bench.Fig11(env, os.Stdout); return err })
	run("table1", func() error { _, err := bench.Table1(env, os.Stdout); return err })
	run("table2", func() error { _, err := bench.Table2(env, os.Stdout); return err })
	fmt.Printf("# total %v\n", time.Since(start).Round(time.Second))
}
