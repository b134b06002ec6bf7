package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/grid"
	"adarnet/internal/patch"
	"adarnet/internal/serve"
	"adarnet/internal/solver"
	"adarnet/internal/tensor"
)

// replayFlows is how many of the most recent first-pass inputs the replay
// pass sends again: few enough to be resident in the 256 MiB cache whatever
// an entry weighs, enough for a median hit latency.
const replayFlows = 64

// tracedFlows is the number of inputs the traced run sends one at a time.
const tracedFlows = 21

// fingerprint hashes everything a caller can read from an inference, so two
// results compare bit for bit without both being kept.
func inferenceFingerprint(inf *core.Inference) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(inf.CompositeCells))
	for _, l := range inf.Levels.Level {
		put(uint64(l))
	}
	for _, v := range inf.Field.Data() {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// solvePaperFields pre-solves the seven paper cases: the inputs of
// infer_flow. The solver runs here, outside every measured phase and span.
func solvePaperFields(ctx context.Context) ([]*grid.Flow, error) {
	fields := make([]*grid.Flow, len(paperCases))
	for i, p := range paperCases {
		fields[i] = p.build().Build()
		if _, err := solver.Solve(ctx, fields[i], solverOptions()); err != nil {
			return nil, fmt.Errorf("pre-solve %s: %w", p.key(), err)
		}
	}
	return fields, nil
}

// checkFloat32 compares the float32 fast path with float64 inference on the
// unperturbed fields: every patch level equal, fields within 2e-3
// range-relative. It also yields the float64 inference cost.
func checkFloat32(r *run, m *core.Model, m32 *core.Model32, fields []*grid.Flow) {
	var ms64 []float64
	var peak int64
	for i, f := range fields {
		start := time.Now()
		ref := m.InferCap(f, patch.MaxLevel)
		ms64 = append(ms64, ms(time.Since(start)))
		peak = max(peak, ref.MemoryBytes)
		got := m32.InferFlowCap(f, patch.MaxLevel)
		same := len(ref.Levels.Level) == len(got.Levels.Level)
		for k := range ref.Levels.Level {
			same = same && ref.Levels.Level[k] == got.Levels.Level[k]
		}
		if !r.check(same, "float32 and float64 refinement maps differ on %s", paperCases[i].key()) {
			continue
		}
		rd, gd := ref.Field.Data(), got.Field.Data()
		var lo, hi [grid.NumChannels]float64
		for k, v := range rd {
			ch := k % grid.NumChannels
			if k < grid.NumChannels || v < lo[ch] {
				lo[ch] = v
			}
			if k < grid.NumChannels || v > hi[ch] {
				hi[ch] = v
			}
		}
		worst := 0.0
		for k := range rd {
			ch := k % grid.NumChannels
			worst = math.Max(worst, math.Abs(gd[k]-rd[k])/(hi[ch]-lo[ch]+math.Abs(rd[k])))
		}
		r.check(worst <= 2e-3, "float32 field off by %.3g range-relative on %s, want ≤ 2e-3", worst, paperCases[i].key())
	}
	r.set("core.infer64_ms", median(ms64))
	r.set("tensor.peak_bytes64", float64(peak))
}

func runInferFlow(ctx context.Context, r *run, e *env) error {
	fields, err := solvePaperFields(ctx)
	if err != nil {
		return err
	}
	eng, err := serve.New(e.model, serve.WithPrecision(serve.Float32), serve.WithCache(cacheBytes))
	if err != nil {
		return err
	}
	defer eng.Close()
	m32, err := core.NewModel32(e.model)
	if err != nil {
		return err
	}

	rounds := inferRounds(r.o.seconds)
	if r.o.trace {
		rounds = 10
	}
	refs := inferFlowRefs(r.o.seed, rounds, len(fields))
	flows := make([]*grid.Flow, len(refs))
	for i, ref := range refs {
		flows[i] = ref.apply(fields)
	}
	firstReplayed := max(0, len(flows)-replayFlows)

	// First pass: every input is new to the cache.
	lat := make([]time.Duration, len(flows))
	errs := make([]error, len(flows))
	prints := make([]uint64, len(flows))
	closedLoop(ctx, len(flows), clients, func(i int) {
		start := time.Now()
		inf, err := eng.PredictFlow(ctx, flows[i])
		lat[i] = time.Since(start)
		errs[i] = err
		if err == nil && i >= firstReplayed {
			prints[i] = inferenceFingerprint(inf)
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	var latMs []float64
	for i := range flows {
		if r.check(errs[i] == nil, "PredictFlow %v: %v", refs[i], errs[i]) {
			latMs = append(latMs, ms(lat[i]))
		}
	}
	if len(latMs) == 0 {
		return fmt.Errorf("no PredictFlow call succeeded")
	}
	r.latencies(latMs, clients)
	loaded := eng.Stats()

	// Replay pass: the same inputs again, now cache hits, bit-identical.
	var hitUs []float64
	for i := firstReplayed; i < len(flows); i++ {
		start := time.Now()
		inf, err := eng.PredictFlow(ctx, flows[i])
		hitUs = append(hitUs, float64(time.Since(start).Nanoseconds())/1e3)
		r.check(err == nil && inferenceFingerprint(inf) == prints[i], "replay of %v differs from its first pass (err %v)", refs[i], err)
	}
	replayed := eng.Stats()
	r.check(replayed.CacheHits-loaded.CacheHits == uint64(len(flows)-firstReplayed),
		"replay pass: %d cache hits for %d inputs", replayed.CacheHits-loaded.CacheHits, len(flows)-firstReplayed)

	checkFloat32(r, e.model, m32, fields)
	if !r.o.trace {
		return nil
	}

	setEngineStats(r, loaded)
	r.set("serve.cache_hit_us_p50", median(hitUs))
	r.set("serve.cache_hit_ratio", float64(replayed.CacheHits)/float64(replayed.CacheHits+replayed.CacheMisses))
	r.set("tensor.gemm32_gflops", gemm32GFLOPS(r))
	return tracedInferFlow(ctx, r, eng, m32, fields)
}

// tracedInferFlow sends fresh inputs one at a time through the engine and
// through Model32 directly, each call in a span; the difference is what the
// serve layer (queue, batcher, cache bookkeeping, copy) costs per request.
func tracedInferFlow(ctx context.Context, r *run, eng *serve.Engine, m32 *core.Model32, fields []*grid.Flow) error {
	// A seed offset keeps these inputs distinct from the first pass, so
	// none of them is a cache hit.
	refs := inferFlowRefs(r.o.seed+1<<32, tracedFlows/len(fields), len(fields))
	engineLoop := func(tr *tracer, refs []flowRef) (time.Duration, int, error) {
		var cells int
		start := time.Now()
		for i, ref := range refs {
			f := ref.apply(fields)
			root := tr.start(i, -1, "infer.request")
			var inf *core.Inference
			var err error
			tr.do(i, root, "serve.predict_flow", func() { inf, err = eng.PredictFlow(ctx, f) })
			tr.end(root)
			if err != nil {
				return 0, 0, err
			}
			cells += inf.CompositeCells
		}
		return time.Since(start), cells, nil
	}
	on, cells, err := engineLoop(r.tr, refs)
	if err != nil {
		return err
	}
	// Spans off over inputs of the same shape (fresh ones: the first set
	// is cached by now).
	off, _, err := engineLoop(nil, inferFlowRefs(r.o.seed+2<<32, tracedFlows/len(fields), len(fields)))
	if err != nil {
		return err
	}
	var peak32 int64
	for i, ref := range refs {
		f := ref.apply(fields)
		var inf *core.Inference
		r.tr.do(i, -1, "core.infer32", func() { inf = m32.InferFlowCap(f, patch.MaxLevel) })
		peak32 = max(peak32, inf.MemoryBytes)
	}

	spans := r.tr.snapshot()
	_, _, coverage := layerShares(spans, "infer.request")
	engineMs := median(spanDurations(spans, "serve.predict_flow")) / 1e6
	directMs := median(spanDurations(spans, "core.infer32")) / 1e6
	r.set("core.infer32_ms", directMs)
	r.set("serve.engine_overhead_ms", engineMs-directMs)
	r.set("tensor.peak_bytes32", float64(peak32))
	r.set("core.composite_cells", float64(cells))
	r.set("bench.span_coverage_pct", 100*coverage)
	r.set("bench.trace_overhead_pct", 100*float64(on-off)/float64(off))
	r.check(coverage >= 0.95, "spans cover %.1f %% of the replayed requests' wall time, want ≥ 95 %%", 100*coverage)
	r.logf("traced %d flows: engine %.3f ms, direct float32 %.3f ms per flow; solver spans: 0", len(refs), engineMs, directMs)
	return nil
}

// gemm32GFLOPS times tensor.Gemm32 on the decoder's 3×3 convolution lowered
// through im2col for one 16×64 field (m = cells, k = 9·16, n = 64), the
// largest product of the float32 forward pass, on one worker.
func gemm32GFLOPS(r *run) float64 {
	const m, k, n = lrH * lrW, 9 * 16, 64
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = float32(i%17) / 17
	}
	for i := range b {
		b[i] = float32(i%13) / 13
	}
	c := make([]float32, m*n)
	packed := tensor.PackMat32(b, k, n, n, false)
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	const reps = 200
	tensor.Gemm32(c, m, n, a, packed, nil) // warm the packing buffers
	start := time.Now()
	for i := 0; i < reps; i++ {
		tensor.Gemm32(c, m, n, a, packed, nil)
	}
	perOp := time.Since(start).Seconds() / reps
	flops := 2.0 * m * k * n
	r.logf("gemm32 %d×%d×%d (%s): %.0f flop, %d computed bytes per call", m, k, n, tensor.Gemm32KernelName(), flops, 4*(m*k+k*n+m*n))
	return flops / perOp / 1e9
}
