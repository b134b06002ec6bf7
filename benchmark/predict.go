package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/grid"
	"adarnet/internal/patch"
	"adarnet/internal/serve"
	"adarnet/internal/solver"
)

// predictBody is the /predict response.
type predictBody struct {
	Case           string  `json:"case"`
	Levels         [][]int `json:"levels"`
	CompositeCells int     `json:"composite_cells"`
	UniformCells   int     `json:"uniform_cells"`
	ElapsedMs      float64 `json:"elapsed_ms"`
}

// valid checks the invariants every response must satisfy: a 4×16 patch map
// with levels in [0, maxLevel] and composite_cells = Σ patchCells·4^level.
func (b predictBody) valid() error {
	if len(b.Levels) != lrH/patchSize {
		return fmt.Errorf("%d patch rows, want %d", len(b.Levels), lrH/patchSize)
	}
	cells := 0
	for _, row := range b.Levels {
		if len(row) != lrW/patchSize {
			return fmt.Errorf("%d patch columns, want %d", len(row), lrW/patchSize)
		}
		for _, l := range row {
			if l < 0 || l > maxLevel {
				return fmt.Errorf("level %d outside [0, %d]", l, maxLevel)
			}
			cells += patchSize * patchSize << (2 * l)
		}
	}
	if cells != b.CompositeCells {
		return fmt.Errorf("composite_cells %d, levels sum to %d", b.CompositeCells, cells)
	}
	return nil
}

type predictReply struct {
	status  int
	err     error
	body    predictBody
	latency time.Duration
}

// newClient returns an HTTP client limited to one keep-alive connection per
// closed-loop client.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			MaxIdleConns:        clients,
		},
	}
}

func postPredict(ctx context.Context, c *http.Client, base string, p paperCase) (rep predictReply) {
	payload, _ := json.Marshal(map[string]any{"case": p.Case, "re": p.Re, "h": lrH, "w": lrW})
	start := time.Now()
	defer func() { rep.latency = time.Since(start) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/predict", bytes.NewReader(payload))
	if err != nil {
		return predictReply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return predictReply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return predictReply{status: resp.StatusCode, err: err}
	}
	rep.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		rep.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return rep
	}
	rep.err = json.Unmarshal(data, &rep.body)
	return rep
}

// closedLoop runs do(0..n-1) from `workers` goroutines, each taking the next
// index only after its previous call returned.
func closedLoop(ctx context.Context, n, workers int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

func runPredictCold(ctx context.Context, r *run, e *env) error {
	rounds := predictRounds(r.o.seconds)
	if r.o.trace {
		rounds = 2
	}
	return runPredict(ctx, r, e, predictColdRequests(r.o.seed, rounds))
}

func runPredictZipf(ctx context.Context, r *run, e *env) error {
	rounds := predictRounds(r.o.seconds)
	if r.o.trace {
		rounds = 2
	}
	return runPredict(ctx, r, e, predictZipfRequests(r.o.seed, rounds*len(paperCases)))
}

// runPredict drives reqs through the server from two closed-loop clients,
// checks every response, and in a traced run replays the first requests in
// process with a span around each layer call.
func runPredict(ctx context.Context, r *run, e *env, reqs []paperCase) error {
	client := newClient()
	defer client.CloseIdleConnections()
	replies := make([]predictReply, len(reqs))
	closedLoop(ctx, len(reqs), clients, func(i int) {
		replies[i] = postPredict(ctx, client, e.srv.base, reqs[i])
	})
	if err := ctx.Err(); err != nil {
		return err
	}

	var latMs, overheadMs []float64
	var n429, n5xx int
	byKey := map[string][]int{}
	for i, rep := range replies {
		err := rep.err
		if err == nil {
			err = rep.body.valid()
		}
		ok := r.check(err == nil, "POST /predict %s: %v", reqs[i].key(), err)
		switch {
		case rep.status == http.StatusTooManyRequests:
			n429++
		case rep.status >= 500:
			n5xx++
		}
		if ok {
			latMs = append(latMs, ms(rep.latency))
			overheadMs = append(overheadMs, ms(rep.latency)-rep.body.ElapsedMs)
			byKey[reqs[i].key()] = append(byKey[reqs[i].key()], i)
		}
	}
	if len(latMs) == 0 {
		return fmt.Errorf("no /predict request succeeded")
	}
	r.latencies(latMs, clients)

	// Identical requests must get identical answers apart from elapsed_ms.
	var ratios []float64
	for key, idx := range byKey {
		first := replies[idx[0]].body
		var repeats []float64
		for _, i := range idx[1:] {
			b := replies[i].body
			same := b.Case == first.Case && b.CompositeCells == first.CompositeCells &&
				b.UniformCells == first.UniformCells && reflect.DeepEqual(b.Levels, first.Levels)
			r.check(same, "repeat of %s answered differently", key)
			repeats = append(repeats, ms(replies[i].latency))
		}
		if len(repeats) > 0 {
			ratios = append(ratios, median(repeats)/ms(replies[idx[0]].latency))
		}
	}

	if err := checkEngineEqualsDirect(ctx, r, e, client); err != nil {
		return err
	}
	if !r.o.trace {
		return nil
	}

	st, err := fetchStats(ctx, client, e.srv.base)
	if err != nil {
		return err
	}
	r.set("http.overhead_ms", median(overheadMs))
	r.set("http.status_429", float64(n429))
	r.set("http.status_5xx", float64(n5xx))
	r.set("serve.peak_rss_mb", e.srv.peakRSSMB())
	r.set("serve.repeat_over_cold", median(ratios))
	setEngineStats(r, st)
	return replayPredict(ctx, r, e.model, reqs[:min(len(reqs), len(paperCases))])
}

// checkEngineEqualsDirect asks the server for two un-jittered paper cases
// (which two rotates with the seed, so ten seeds cover all seven) and
// compares the refinement map with an in-process Model.PredictOpt on the
// same checkpoint and solver options.
func checkEngineEqualsDirect(ctx context.Context, r *run, e *env, client *http.Client) error {
	n := int64(len(paperCases))
	picks := []paperCase{paperCases[((r.o.seed%n)+n)%n], paperCases[(((r.o.seed+3)%n)+n)%n]}
	replies := make([]predictReply, len(picks))
	direct := make([]*core.Inference, len(picks))
	errs := make([]error, len(picks))
	// Server and in-process side each do one case at a time, in parallel.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, p := range picks {
			replies[i] = postPredict(ctx, client, e.srv.base, p)
		}
	}()
	for i, p := range picks {
		direct[i], errs[i] = e.model.PredictOpt(ctx, p.build(), solverOptions())
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, p := range picks {
		if !r.check(replies[i].err == nil && errs[i] == nil, "engine==direct %s: server %v, direct %v", p.key(), replies[i].err, errs[i]) {
			continue
		}
		want := make([][]int, direct[i].Levels.NPy)
		for py := range want {
			want[py] = make([]int, direct[i].Levels.NPx)
			for px := range want[py] {
				want[py][px] = direct[i].Levels.At(py, px)
			}
		}
		got := replies[i].body
		r.check(got.CompositeCells == direct[i].CompositeCells && reflect.DeepEqual(got.Levels, want),
			"engine==direct %s: server %d cells %v, direct %d cells %v", p.key(), got.CompositeCells, got.Levels, direct[i].CompositeCells, want)
	}
	return nil
}

func fetchStats(ctx context.Context, client *http.Client, base string) (serve.EngineStats, error) {
	var st serve.EngineStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	return st, nil
}

// setEngineStats records the serve layer's own counters and stage means.
func setEngineStats(r *run, st serve.EngineStats) {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	r.set("serve.queue_wait_us", us(st.MeanQueueWait))
	r.set("serve.forward_ms", ms(st.MeanForward))
	r.set("serve.assemble_us", us(st.MeanAssemble))
	r.set("serve.batch_occupancy", st.MeanBatchOccupancy)
	r.set("serve.coalesced", float64(st.Coalesced))
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		r.set("serve.cache_hit_ratio", float64(st.CacheHits)/float64(lookups))
	}
}

// predictInProcess is what a /predict costs below HTTP and the engine's
// queue — the calls Model.PredictOpt makes — with a span around each.
func predictInProcess(ctx context.Context, tr *tracer, m *core.Model, req int, p paperCase) (solver.Result, *core.Inference, error) {
	root := tr.start(req, -1, "predict.request")
	defer tr.end(root)
	c := p.build()
	var lr *grid.Flow
	tr.do(req, root, "geometry.build", func() { lr = c.Build() })
	var res solver.Result
	var err error
	tr.do(req, root, "solver.lr_solve", func() { res, err = solver.Solve(ctx, lr, solverOptions()) })
	if err != nil {
		return res, nil, err
	}
	var inf *core.Inference
	tr.do(req, root, "core.infer64", func() { inf = m.InferCap(lr, patch.MaxLevel) })
	return res, inf, nil
}

// replayPredict replays reqs one at a time with spans, derives the solver,
// core and geometry metrics from them, and measures what the spans cost by
// also running the first two requests with spans off.
func replayPredict(ctx context.Context, r *run, m *core.Model, reqs []paperCase) error {
	// Spans off first, after one discarded request, so that neither side
	// of the overhead comparison pays the process's first-call costs.
	probe := reqs[:min(2, len(reqs))]
	if _, _, err := predictInProcess(ctx, nil, m, 0, probe[0]); err != nil {
		return err
	}
	start := time.Now()
	for i, p := range probe {
		if _, _, err := predictInProcess(ctx, nil, m, i, p); err != nil {
			return err
		}
	}
	off := time.Since(start)

	var iters, cellIters, cells int
	var peak int64
	for i, p := range reqs {
		res, inf, err := predictInProcess(ctx, r.tr, m, i, p)
		if err != nil {
			return fmt.Errorf("replay %s: %w", p.key(), err)
		}
		iters += res.Iterations
		cellIters += res.Iterations * lrH * lrW
		cells += inf.CompositeCells
		peak = max(peak, inf.MemoryBytes)
	}
	spans := r.tr.snapshot()
	byLayer, total, coverage := layerShares(spans, "predict.request")
	solves := spanDurations(spans, "solver.lr_solve")
	var solveNs float64
	for _, d := range solves {
		solveNs += d
	}
	var on time.Duration
	for _, d := range spanDurations(spans, "predict.request")[:len(probe)] {
		on += time.Duration(d)
	}
	r.set("geometry.build_us", median(spanDurations(spans, "geometry.build"))/1e3)
	r.set("solver.lr_solve_ms", median(solves)/1e6)
	r.set("solver.lr_iterations", float64(iters))
	r.set("solver.lr_ns_per_cell_iter", solveNs/float64(cellIters))
	r.set("solver.share_predict_pct", 100*float64(byLayer["solver"])/float64(total))
	r.set("core.infer64_ms", median(spanDurations(spans, "core.infer64"))/1e6)
	r.set("tensor.peak_bytes64", float64(peak))
	r.set("core.composite_cells", float64(cells))
	r.set("bench.span_coverage_pct", 100*coverage)
	r.set("bench.trace_overhead_pct", 100*float64(on-off)/float64(off))
	r.check(coverage >= 0.95, "spans cover %.1f %% of the replayed requests' wall time, want ≥ 95 %%", 100*coverage)
	r.logf("replay of %d requests: solver %.1f %%, core %.1f %%, geometry %.3f %% of %.2f s",
		len(reqs), 100*float64(byLayer["solver"])/float64(total), 100*float64(byLayer["core"])/float64(total),
		100*float64(byLayer["geometry"])/float64(total), total.Seconds())
	return nil
}
