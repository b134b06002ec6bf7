package tensor

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// GEMM micro-kernel dispatch for the float32 fast path.
//
// Gemm32's BLIS-style tiling (matmul32.go) is kernel-agnostic: the packing
// routines and loop nest read every geometric parameter — micro-tile shape
// (mr×nr), depth tile (kc), column tile (nc) — from a gemm32Kernel, so each
// kernel owns its tile shape rather than the tiling hard-coding one. Three
// kernels exist:
//
//	generic  pure Go 4×4, compiled everywhere, and the accuracy REFERENCE:
//	         its results are bit-exact with the pre-dispatch implementation
//	         and tests compare every other kernel against it.
//	avx2     8×8 AVX2+FMA Go-assembly kernel (amd64 && !purego), selected
//	         when CPUID + XCR0 report usable YMM state.
//	neon     8×8 AdvSIMD Go-assembly kernel (arm64 && !purego).
//
// Vectorized kernels use FMA (one rounding per multiply-add instead of two),
// so they are NOT bit-identical to generic — they are usually closer to the
// float64 answer. The audited contract is a 1-ulp-per-accumulation bound
// against the scalar reference (gemm32_prop_test.go) plus the end-to-end
// range-relative-error + exact-argmax audit on the paper geometries
// (`internal/core` TestModel32MatchesFloat64).
//
// A PackedMat32 records the kernel that packed it, because the panel layout
// is geometry-specific; SetGemm32Kernel therefore only affects matrices
// packed AFTER the call. Serving binaries select the kernel at startup,
// before the model freeze packs its weights.

// gemm32Kernel describes one micro-kernel and the tile geometry its panels
// are packed for.
type gemm32Kernel struct {
	name string
	mr   int // micro-tile rows = A panel width
	nr   int // micro-tile cols = B panel width
	kc   int // depth tile: one A panel (mr×kc) and one B panel (kc×nr) stay L1-resident
	nc   int // column tile: a packed kc×nc B block stays in L2/L3

	// kern computes one FULL mr×nr tile, ct[r*ldc+j] += Σ_p ap[p*mr+r]·bp[p*nr+j]
	// for p in [0,kc). ct is the C tile origin; the panels are zero-padded
	// past matrix edges, so kern never sees a ragged tile (edge tiles go
	// through gemm32Edge below, which redirects the stores).
	kern func(ct []float32, ldc int, ap, bp []float32, kc int)
}

// gemm32MaxMR/NR bound every registered kernel's micro-tile; the edge-tile
// scratch and fixed-size packing buffers are sized by them.
const (
	gemm32MaxMR = 8
	gemm32MaxNR = 8
)

// gemm32Generic is the pure-Go scalar kernel: compiled on every platform,
// immune to build tags, and the bit-exact reference all vectorized kernels
// are audited against. Its geometry is the pre-dispatch Gemm32's.
var gemm32Generic = &gemm32Kernel{
	name: "generic",
	mr:   4,
	nr:   4,
	kc:   512, // one 4×512×4B A panel and one B panel stay L1-resident
	nc:   512, // packed B tile (512×512×4B = 1 MiB) stays in L2/L3
	kern: gemm32Kern4x4,
}

// gemm32Registry lists every kernel usable in this binary on this CPU,
// fallback first. Architecture files append via registerGemm32Kernel during
// init; after init the slice is read-only (safe for concurrent readers).
var gemm32Registry = []*gemm32Kernel{gemm32Generic}

// gemm32Active is the kernel PackMat32/MatMul32 use for new packs.
var gemm32Active atomic.Pointer[gemm32Kernel]

// registerGemm32Kernel is called from architecture init functions; the
// registered kernel becomes the default (auto) selection.
func registerGemm32Kernel(k *gemm32Kernel) {
	gemm32Registry = append(gemm32Registry, k)
	gemm32Active.Store(k)
}

// init order note: Go runs package init functions in file-name order, so the
// architecture files (gemm32_amd64.go / gemm32_arm64.go) register before this
// runs; only store the fallback when no vector kernel claimed the slot.
func init() {
	if gemm32Active.Load() == nil {
		gemm32Active.Store(gemm32Generic)
	}
}

func gemm32ByName(name string) *gemm32Kernel {
	for _, k := range gemm32Registry {
		if k.name == name {
			return k
		}
	}
	return nil
}

// Gemm32KernelName reports the kernel currently selected for new packs:
// "avx2", "neon", or "generic".
func Gemm32KernelName() string { return gemm32Active.Load().name }

// Gemm32Kernels returns the names of every GEMM kernel compiled into this
// binary and runnable on this CPU, sorted, with the scalar fallback always
// present.
func Gemm32Kernels() []string {
	names := make([]string, len(gemm32Registry))
	for i, k := range gemm32Registry {
		names[i] = k.name
	}
	sort.Strings(names)
	return names
}

// SetGemm32Kernel selects the micro-kernel used by subsequent PackMat32 /
// MatMul32 calls and returns the name selected. "auto" (or "") picks the
// best kernel available: the vectorized one when compiled in and supported
// by the CPU, the scalar fallback otherwise. Matrices packed before the
// call keep the kernel that packed them — callers that pre-pack weights
// (model freeze) must select the kernel first, which the serving and bench
// binaries do at flag-parse time.
func SetGemm32Kernel(name string) (string, error) {
	if name == "auto" || name == "" {
		best := gemm32Registry[len(gemm32Registry)-1]
		gemm32Active.Store(best)
		return best.name, nil
	}
	k := gemm32ByName(name)
	if k == nil {
		return "", fmt.Errorf("tensor: gemm kernel %q not available on this build/CPU (have: auto, %s)", name, strings.Join(Gemm32Kernels(), ", "))
	}
	gemm32Active.Store(k)
	return k.name, nil
}

// gemm32Edge handles a ragged tile (mr < kern.mr rows and/or nr < kern.nr
// cols live): the panels are zero-padded to the full micro-tile, so the
// kernel runs at full width into a zeroed scratch tile and only the live
// mr×nr corner is accumulated into C. This keeps the vector kernels free of
// masking and is bit-exact with accumulating the padded products directly
// (the padding contributes exact zeros).
func gemm32Edge(kern *gemm32Kernel, c []float32, ldc, i0, j0, mr, nr int, ap, bp []float32, kc int) {
	var scratch [gemm32MaxMR * gemm32MaxNR]float32
	s := scratch[:kern.mr*kern.nr]
	kern.kern(s, kern.nr, ap, bp, kc)
	for ii := 0; ii < mr; ii++ {
		row := c[(i0+ii)*ldc+j0:]
		srow := s[ii*kern.nr:]
		for jj := 0; jj < nr; jj++ {
			row[jj] += srow[jj]
		}
	}
}

// gemm32Kern4x4 is the scalar micro-kernel: a full 4×4 tile with all 16
// partial sums in registers, one row of C touched per accumulator flush.
// Multiplies and adds round separately (no FMA), which is exactly the
// arithmetic the float32 fast path was audited with originally — keep it
// that way; this kernel is the reference the vector kernels are tested
// against.
func gemm32Kern4x4(ct []float32, ldc int, ap, bp []float32, kc int) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	if len(ap) < kc*4 || len(bp) < kc*4 {
		panic("tensor: gemm32 panel shorter than depth tile")
	}
	ap = ap[:kc*4]
	bp = bp[:kc*4]
	for o := 0; o+4 <= len(ap); o += 4 {
		a0, a1, a2, a3 := ap[o], ap[o+1], ap[o+2], ap[o+3]
		b0, b1, b2, b3 := bp[o], bp[o+1], bp[o+2], bp[o+3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	r0 := ct[0:4]
	r1 := ct[ldc : ldc+4]
	r2 := ct[2*ldc : 2*ldc+4]
	r3 := ct[3*ldc : 3*ldc+4]
	r0[0] += c00
	r0[1] += c01
	r0[2] += c02
	r0[3] += c03
	r1[0] += c10
	r1[1] += c11
	r1[2] += c12
	r1[3] += c13
	r2[0] += c20
	r2[1] += c21
	r2[2] += c22
	r2[3] += c23
	r3[0] += c30
	r3[1] += c31
	r3[2] += c32
	r3[3] += c33
}
