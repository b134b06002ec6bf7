package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"path/filepath"
	"time"

	"adarnet/internal/amr"
	"adarnet/internal/core"
	"adarnet/internal/geometry"
	"adarnet/internal/grid"
	"adarnet/internal/interp"
	"adarnet/internal/jobs"
	"adarnet/internal/metrics"
)

//go:embed reference.json
var referenceJSON []byte

// reference holds, per e2e_ttc case, the quantity of interest of the
// converged flow, which the checks compare against within 5 %. The file
// also records the solver iteration counts seen when it was written; those
// are informational (a better solver changes them) and not read here.
type reference struct {
	Cases map[string]struct {
		QoI   string  `json:"qoi"`
		Value float64 `json:"value"`
	} `json:"cases"`
}

const qoiTolerance = 0.05

// checkQoI compares the drag coefficient of a converged flow with the
// recorded reference.
func checkQoI(r *run, ref reference, name string, f *grid.Flow) {
	want, ok := ref.Cases[name]
	if !r.check(ok, "no reference for %s", name) {
		return
	}
	got := metrics.Drag(f, 0.85)
	r.logf("%s: %s = %.6g (reference %.6g)", name, want.QoI, got, want.Value)
	r.check(math.Abs(got-want.Value) <= qoiTolerance*math.Abs(want.Value),
		"%s: %s = %.6g, reference %.6g (±%.0f %%)", name, want.QoI, got, want.Value, 100*qoiTolerance)
}

// runJob submits one job and polls it every 20 ms to a terminal state. The
// returned duration is submit → done as the client sees it.
func runJob(ctx context.Context, client *http.Client, base string, p paperCase) (jobs.View, time.Duration, error) {
	payload, _ := json.Marshal(map[string]any{"case": p.Case, "re": p.Re, "h": lrH, "w": lrW, "max_level": maxLevel})
	var v jobs.View
	call := func(method, url string, body io.Reader, want int) error {
		req, err := http.NewRequestWithContext(ctx, method, url, body)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != want {
			return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
		}
		v = jobs.View{}
		return json.Unmarshal(data, &v)
	}
	start := time.Now()
	if err := call(http.MethodPost, base+"/jobs", bytes.NewReader(payload), http.StatusAccepted); err != nil {
		return v, 0, err
	}
	id := v.ID
	for !v.State.Terminal() {
		select {
		case <-ctx.Done():
			return v, 0, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if err := call(http.MethodGet, base+"/jobs/"+id+"?tail=1", nil, http.StatusOK); err != nil {
			return v, 0, err
		}
	}
	return v, time.Since(start), nil
}

// jobOK is the per-job correctness check: done, converged, finite residual.
func jobOK(v jobs.View) error {
	switch {
	case v.State != jobs.StateDone:
		return fmt.Errorf("ended %s: %s", v.State, v.Error)
	case v.Result == nil:
		return errors.New("done without a result summary")
	case !v.Result.PSConverged:
		return errors.New("correction solve did not converge")
	case math.IsNaN(v.Result.PSResidual) || math.IsInf(v.Result.PSResidual, 0):
		return fmt.Errorf("ps_residual %v", v.Result.PSResidual)
	}
	return nil
}

func runE2ETTC(ctx context.Context, r *run, e *env) error {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	n := 1
	if !r.o.trace {
		n = e2eJobs(r.o.seconds)
	}
	client := newClient()
	defer client.CloseIdleConnections()

	var ttcMs []float64
	var views []jobs.View
	p := e2eJob
	for i := 0; i < n; i++ {
		v, ttc, err := runJob(ctx, client, e.srv.base, p)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			r.check(false, "job %s: %v", p.Case, err)
			continue
		}
		if err := jobOK(v); !r.check(err == nil, "job %s: %v", p.Case, err) {
			continue
		}
		views = append(views, v)
		ttcMs = append(ttcMs, ms(ttc))
		s := v.Result
		r.logf("job %s: ttc %.3f s (lr %.3f s %d it, inf %.3f s, ps %.3f s %d it, %d cells)", p.Case, ttc.Seconds(),
			s.LRWallMs/1e3, s.LRIterations, s.InferMs/1e3, s.PSWallMs/1e3, s.PSIterations, s.CompositeCells)
	}
	if len(ttcMs) == 0 {
		return errors.New("no job succeeded")
	}
	r.latencies(ttcMs, 1)
	journalBytes := dirBytes(e.srv.jobsDir)
	r.set("serve.peak_rss_mb", e.srv.peakRSSMB())

	// The journal is the server's public record of a finished job; with the
	// server stopped, read each converged flow back and check its QoI.
	e.srv.stop()
	svc, err := jobs.Open(jobs.Config{Dir: e.srv.jobsDir, Model: e.model, Solver: solverOptions()})
	if err != nil {
		return fmt.Errorf("reopen job journal: %w", err)
	}
	for _, v := range views {
		_, flow, err := svc.Result(v.ID)
		if r.check(err == nil, "journal result of job %s: %v", v.Spec.Case, err) {
			checkQoI(r, ref, v.Spec.Case, flow)
		}
	}
	if err := svc.Close(ctx); err != nil {
		return err
	}
	if !r.o.trace {
		return nil
	}

	s := views[0].Result
	r.set("jobs.ttc_s.naca0012", ttcMs[0]/1e3)
	r.set("jobs.lr_s", s.LRWallMs/1e3)
	r.set("jobs.inf_s", s.InferMs/1e3)
	r.set("jobs.ps_s", s.PSWallMs/1e3)
	r.set("jobs.journal_bytes", float64(journalBytes))
	return tracedE2E(ctx, r, e.model, ref, p, ttcMs[0]/1e3)
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

var errStopAfterInfer = errors.New("benchmark: stop after the inference stage")

// e2eInProcess runs the pipeline the job service runs — core.RunE2EStaged —
// with a span per stage, taken from the OnStage hook. With stopAfterInfer
// it ends before the correction solve.
func e2eInProcess(ctx context.Context, tr *tracer, m *core.Model, c *geometry.Case, stopAfterInfer bool) (*core.E2EResult, *grid.Flow, time.Duration, error) {
	root := tr.start(0, -1, "e2e.request")
	defer tr.end(root)
	names := map[core.E2EStage]string{
		core.StageLRSolve: "solver.lr_solve", core.StageInfer: "core.infer", core.StageCorrect: "solver.ps_solve",
	}
	var lr *grid.Flow
	start := time.Now()
	stageStart := start
	hooks := &core.E2EHooks{OnStage: func(stage core.E2EStage, st *core.E2EState) error {
		now := time.Now()
		tr.add(0, root, names[stage], stageStart, now)
		stageStart = now
		lr = st.LR
		if stage == core.StageInfer && stopAfterInfer {
			return errStopAfterInfer
		}
		return nil
	}}
	res, err := core.RunE2EStaged(ctx, m, c, solverOptions(), maxLevel, nil, hooks)
	if errors.Is(err, errStopAfterInfer) {
		err = nil
	}
	return res, lr, time.Since(start), err
}

// tracedE2E runs the first job's case in process with stage spans, probes
// the small layers the pipeline calls inside its stages, and runs the AMR
// baseline for the paper's headline ratio.
func tracedE2E(ctx context.Context, r *run, m *core.Model, ref reference, p paperCase, jobTTC float64) error {
	c := p.build()
	// Spans off first, after one discarded pass, so that neither side of
	// the overhead comparison pays the process's first-call costs. Both
	// sides cover the stages before the correction solve.
	if _, _, _, err := e2eInProcess(ctx, nil, m, c, true); err != nil {
		return err
	}
	_, _, off, err := e2eInProcess(ctx, nil, m, c, true)
	if err != nil {
		return err
	}
	res, lr, wall, err := e2eInProcess(ctx, r.tr, m, c, false)
	if err != nil {
		return fmt.Errorf("direct E2E %s: %w", p.Case, err)
	}
	r.check(res.PSResult.Converged, "direct E2E %s did not converge", p.Case)
	checkQoI(r, ref, p.Case, res.Flow)

	spans := r.tr.snapshot()
	byLayer, total, coverage := layerShares(spans, "e2e.request")
	psNs := spanDurations(spans, "solver.ps_solve")[0]
	fineCells := res.Flow.H * res.Flow.W
	r.set("solver.lr_solve_ms", spanDurations(spans, "solver.lr_solve")[0]/1e6)
	r.set("solver.lr_iterations", float64(res.LRIterations))
	r.set("solver.lr_ns_per_cell_iter", float64(res.LRWall.Nanoseconds())/float64(res.LRIterations*lrH*lrW))
	r.set("solver.ps_solve_s", psNs/1e9)
	r.set("solver.ps_iterations", float64(res.PSIterations))
	r.set("solver.ps_ns_per_cell_iter", float64(res.PSWall.Nanoseconds())/float64(res.PSIterations*fineCells))
	r.set("solver.share_ttc_pct", 100*float64(byLayer["solver"])/float64(total))
	r.set("core.infer_share_ttc_pct", 100*float64(byLayer["core"])/float64(total))
	r.set("core.infer64_ms", ms(res.Inference.Elapsed))
	r.set("tensor.peak_bytes64", float64(res.Inference.MemoryBytes))
	r.set("core.composite_cells", float64(res.Inference.CompositeCells))
	r.set("jobs.overhead_pct", 100*(jobTTC-wall.Seconds())/wall.Seconds())
	r.set("bench.span_coverage_pct", 100*coverage)
	r.check(coverage >= 0.95, "spans cover %.1f %% of the replayed request's wall time, want ≥ 95 %%", 100*coverage)
	r.logf("direct E2E %s: %.3f s (solver %.1f %%, core %.1f %%), job over it %+.2f %%", p.Case, wall.Seconds(),
		100*float64(byLayer["solver"])/float64(total), 100*float64(byLayer["core"])/float64(total), 100*(jobTTC-wall.Seconds())/wall.Seconds())

	// Layer calls the pipeline makes inside its stages, timed on their own.
	r.tr.do(1, -1, "geometry.build", func() { c.Build() })
	r.tr.do(1, -1, "core.to_flow", func() { res.Inference.ToFlow(lr, c.BuildAt) })
	lrTensor := grid.ToTensor(lr)
	r.tr.do(1, -1, "interp.resize", func() { interp.Resize(interp.Bicubic, lrTensor, lrH<<maxLevel, lrW<<maxLevel) })
	spans = r.tr.snapshot()
	r.set("geometry.build_us", spanDurations(spans, "geometry.build")[0]/1e3)
	r.set("core.toflow_ms", spanDurations(spans, "core.to_flow")[0]/1e6)
	r.set("interp.resize_ms", spanDurations(spans, "interp.resize")[0]/1e6)

	on := time.Duration(spanDurations(spans, "solver.lr_solve")[0] + spanDurations(spans, "core.infer")[0])
	r.set("bench.trace_overhead_pct", 100*float64(on-off)/float64(off))

	acfg := amr.DefaultConfig(patchSize, patchSize)
	acfg.MaxLevel = maxLevel
	acfg.MaxCycles = maxLevel + 2
	acfg.Solver = solverOptions()
	var ar *amr.Result
	r.tr.do(2, -1, "amr.run", func() { ar, err = amr.Run(ctx, c, acfg) })
	if err != nil {
		return fmt.Errorf("amr.Run %s: %w", p.Case, err)
	}
	amrS := spanDurations(r.tr.snapshot(), "amr.run")[0] / 1e9
	r.set("amr.run_s", amrS)
	r.set("amr.itc", float64(ar.TotalIterations))
	r.set("table1.wall_speedup_naca0012", amrS/wall.Seconds())
	r.logf("AMR %s: %.3f s, ITC %d; ADARNet wall speedup %.2fx", p.Case, amrS, ar.TotalIterations, amrS/wall.Seconds())
	return nil
}
