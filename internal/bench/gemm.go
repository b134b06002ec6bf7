package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"adarnet/internal/tensor"
	"adarnet/internal/tensor/cpu"
)

// Gemm benchmarks every compiled GEMM micro-kernel — the scalar reference
// plus whatever vector kernel (AVX2/NEON) this build and CPU support —
// across the conv shapes the ADARNet forward pass actually runs, and large
// square shapes where the kernels hit their flops ceiling. Single-worker,
// so the numbers are per-core kernel throughput, not parallel scaling
// (benchmark/'s infer_flow workload measures the float32 forward pass end
// to end).

// GemmResult is the machine-readable output (BENCH_gemm.json).
type GemmResult struct {
	CPU string `json:"cpu"` // detected vector features, e.g. "avx2,fma"
	// DefaultKernel is what `auto` dispatch selects on this machine.
	DefaultKernel string   `json:"default_kernel"`
	Kernels       []string `json:"kernels"`

	Shapes []GemmShape `json:"shapes"`

	// LargeSpeedup is the default kernel's speedup over the scalar
	// reference on the largest square shape — the CI-gated number
	// (benchdiff -metric large_speedup). 1.0 when only the scalar kernel
	// is compiled (purego or an unsupported CPU).
	LargeSpeedup float64 `json:"large_speedup"`
}

// GemmShape is one (m,k,n) product with per-kernel timings. Kernel names
// key the map so benchdiff metric paths are stable across machines that
// compile different kernel sets.
type GemmShape struct {
	Label   string                `json:"label"`
	M       int                   `json:"m"`
	K       int                   `json:"k"`
	N       int                   `json:"n"`
	Kernels map[string]GemmKernel `json:"kernels"`
}

// GemmKernel is one kernel's performance on one shape.
type GemmKernel struct {
	NsPerOp int64   `json:"ns_per_op"`
	GFLOPS  float64 `json:"gflops"`
}

// gemmShapes returns the benchmarked products. The conv shapes are the
// paper model's layers lowered through im2col at the serve-path batch-8
// quick-scale grid (16×64): m = batch·H·W rows, k = kh·kw·inC, n = outC,
// plus the deconv spread product. The square shapes bound raw kernel
// throughput; "large512" feeds the CI gate.
func gemmShapes() []GemmShape {
	const rows = 8 * 16 * 64 // batch 8 of 16×64 cells
	return []GemmShape{
		{Label: "scorer.conv1", M: rows, K: 9 * 4, N: 8},
		{Label: "scorer.conv3", M: rows, K: 9 * 16, N: 16},
		{Label: "decoder.conv3", M: rows, K: 9 * 16, N: 64},
		{Label: "decoder.deconv", M: rows, K: 64, N: 9 * 16},
		{Label: "square128", M: 128, K: 128, N: 128},
		{Label: "large512", M: 512, K: 512, N: 512},
	}
}

// GemmJSON benchmarks every kernel on every shape, printing a table and
// writing BENCH_gemm.json when jsonPath is non-empty.
func GemmJSON(w io.Writer, jsonPath string) (*GemmResult, error) {
	kernels := tensor.Gemm32Kernels()
	prevKernel := tensor.Gemm32KernelName()
	defer tensor.SetGemm32Kernel(prevKernel)
	defaultKernel, err := tensor.SetGemm32Kernel("auto")
	if err != nil {
		return nil, fmt.Errorf("bench: gemm: %w", err)
	}
	tensor.SetGemm32Kernel(prevKernel)

	res := &GemmResult{
		CPU:           cpu.Summary(),
		DefaultKernel: defaultKernel,
		Kernels:       kernels,
		Shapes:        gemmShapes(),
	}
	fmt.Fprintf(w, "## gemm: micro-kernel throughput per shape (%s/%s, cpu %s, default kernel %s, 1 worker)\n",
		runtime.GOOS, runtime.GOARCH, res.CPU, res.DefaultKernel)
	fmt.Fprintf(w, "%-16s %-20s", "shape", "m×k×n")
	for _, k := range kernels {
		fmt.Fprintf(w, " %12s %8s", k+" ns/op", "GFLOP/s")
	}
	fmt.Fprintln(w)

	// Single worker: per-core kernel throughput, and benchmark variance
	// does not depend on box width.
	prevWorkers := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prevWorkers)

	rng := rand.New(rand.NewSource(11))
	for si := range res.Shapes {
		sh := &res.Shapes[si]
		sh.Kernels = make(map[string]GemmKernel, len(kernels))
		a := make([]float32, sh.M*sh.K)
		b := make([]float32, sh.K*sh.N)
		for i := range a {
			a[i] = rng.Float32()*2 - 1
		}
		for i := range b {
			b[i] = rng.Float32()*2 - 1
		}
		c := make([]float32, sh.M*sh.N)
		fmt.Fprintf(w, "%-16s %-20s", sh.Label, fmt.Sprintf("%d×%d×%d", sh.M, sh.K, sh.N))
		for _, kn := range kernels {
			if _, err := tensor.SetGemm32Kernel(kn); err != nil {
				return nil, fmt.Errorf("bench: gemm: %w", err)
			}
			p := tensor.PackMat32(b, sh.K, sh.N, sh.N, false)
			r := testing.Benchmark(func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.Gemm32(c, sh.M, sh.N, a, p, nil)
				}
			})
			row := GemmKernel{NsPerOp: r.NsPerOp()}
			if row.NsPerOp > 0 {
				row.GFLOPS = 2 * float64(sh.M) * float64(sh.K) * float64(sh.N) / float64(row.NsPerOp)
			}
			sh.Kernels[kn] = row
			fmt.Fprintf(w, " %12d %8.2f", row.NsPerOp, row.GFLOPS)
		}
		fmt.Fprintln(w)
	}
	tensor.SetGemm32Kernel(prevKernel)

	large := res.Shapes[len(res.Shapes)-1]
	res.LargeSpeedup = 1
	if g, ok := large.Kernels["generic"]; ok {
		if d, ok := large.Kernels[res.DefaultKernel]; ok && d.NsPerOp > 0 {
			res.LargeSpeedup = float64(g.NsPerOp) / float64(d.NsPerOp)
		}
	}
	fmt.Fprintf(w, "\ndefault kernel %q is %.2fx the scalar reference on %s", res.DefaultKernel, res.LargeSpeedup, large.Label)
	if res.DefaultKernel != "generic" {
		fmt.Fprintf(w, " (target: >= 2x)")
		if res.LargeSpeedup < 2 {
			fmt.Fprintf(w, "\nwarning: below the 2x target on this run\n")
		} else {
			fmt.Fprintln(w)
		}
	} else {
		fmt.Fprintf(w, " (scalar-only build: no vector kernel for this CPU/tags)\n")
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("bench: encode gemm json: %w", err)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("bench: write gemm json: %w", err)
		}
		fmt.Fprintf(w, "json written to %s\n", jsonPath)
	}
	return res, nil
}
