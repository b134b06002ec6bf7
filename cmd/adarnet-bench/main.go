// Command adarnet-bench regenerates the paper's evaluation tables and
// figures. Each experiment prints the same rows/series the paper reports;
// absolute times reflect this machine, shapes should match the paper.
// End-to-end serving, cache, job and tracing costs are measured on the
// paper's geometries through the real server by benchmark/ instead.
//
// Usage:
//
//	adarnet-bench -exp all  -scale quick
//	adarnet-bench -exp fig9 -scale full
//	adarnet-bench -exp table1,table2
//	adarnet-bench -exp micro,gemm -json-dir .
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

// session is what an experiment may draw on: the JSON output directory and
// the trained environment, which is built on first use so the kernel
// benches never pay for corpus generation and training.
type session struct {
	scale   bench.Scale
	jsonDir string
	start   time.Time
	env     *bench.Env
}

func (s *session) Env() *bench.Env {
	if s.env == nil {
		fmt.Println("# preparing environment (corpus generation + training)...")
		s.env = bench.Setup(s.scale)
		fmt.Printf("# environment ready in %v (ADARNet %d params)\n\n", time.Since(s.start).Round(time.Second), s.env.Model.ParamCount())
	}
	return s.env
}

// experiment is one -exp name. paper marks the experiments `-exp all`
// runs: the paper's tables and figures, not the kernel benches, which
// measure the implementation.
type experiment struct {
	name  string
	paper bool
	run   func(s *session) error
}

// experiments lists every runnable experiment in run order; it is the one
// source of the valid -exp names.
var experiments = []experiment{
	{"micro", false, func(s *session) error { return bench.Micro(os.Stdout) }},
	{"gemm", false, func(s *session) error {
		jsonPath := ""
		if s.jsonDir != "" {
			jsonPath = filepath.Join(s.jsonDir, "BENCH_gemm.json")
		}
		_, err := bench.GemmJSON(os.Stdout, jsonPath)
		return err
	}},
	{"fig1", true, func(s *session) error { bench.Fig1(os.Stdout); return nil }},
	{"fig9", true, func(s *session) error { _, err := bench.Fig9(s.Env(), os.Stdout); return err }},
	{"fig10", true, func(s *session) error { _, err := bench.Fig10(s.Env(), os.Stdout); return err }},
	{"fig11", true, func(s *session) error { _, err := bench.Fig11(s.Env(), os.Stdout); return err }},
	{"table1", true, func(s *session) error { _, err := bench.Table1(s.Env(), os.Stdout); return err }},
	{"table2", true, func(s *session) error { _, err := bench.Table2(s.Env(), os.Stdout); return err }},
}

func validExps() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

func isExp(name string) bool {
	for _, e := range experiments {
		if e.name == name {
			return true
		}
	}
	return false
}

func main() {
	exp := flag.String("exp", "all", "experiments to run: all | "+strings.Join(validExps(), ","))
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
		if name != "all" && !isExp(name) {
			fmt.Fprintf(os.Stderr, "adarnet-bench: unknown experiment %q (valid: all, %s)\n", name, strings.Join(validExps(), ", "))
			os.Exit(2)
		}
		want[name] = true
	}

	s := &session{scale: sc, jsonDir: *jsonDir, start: time.Now()}
	fmt.Printf("# adarnet-bench scale=%s (LR %dx%d, patches %dx%d, max level %d) gemm-kernel=%s cpu=%s\n",
		sc.Name, sc.LRH, sc.LRW, sc.PatchH, sc.PatchW, sc.MaxLevel, kernel, cpu.Summary())
	for _, e := range experiments {
		if !want[e.name] && !(want["all"] && e.paper) {
			continue
		}
		t0 := time.Now()
		if err := e.run(s); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("# %s done in %v\n\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("# total %v\n", time.Since(s.start).Round(time.Second))
}
