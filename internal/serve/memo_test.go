package serve

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/geometry"
	"adarnet/internal/grid"
	"adarnet/internal/obs"
	"adarnet/internal/solver"
)

// testCase is a small channel case whose LR solve takes a few milliseconds.
func testCase(re float64) *geometry.Case {
	return &geometry.Case{Name: "channel", Kind: geometry.Channel, Re: re, Height: 0.1, Length: 2, H: 8, W: 16}
}

// caseEngine builds an engine (and the model behind it) for Predict tests.
func caseEngine(t *testing.T, opts ...Option) (*Engine, *core.Model) {
	t.Helper()
	m := testModel([]*grid.Flow{testCase(2.5e3).Build()})
	e, err := New(m, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e, m
}

// solveDirect is what a Predict computes below the engine: the solved field.
func solveDirect(t *testing.T, c *geometry.Case) *grid.Flow {
	t.Helper()
	lr := c.Build()
	if _, err := solver.Solve(context.Background(), lr, solver.DefaultOptions()); err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	return lr
}

// holdSolves takes every solve slot, so flight leaders queue at the gate;
// the returned func gives the slots back.
func holdSolves(e *Engine) (release func()) {
	n := cap(e.gate.slots)
	for i := 0; i < n; i++ {
		e.gate.slots <- struct{}{}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-e.gate.slots
		}
	}
}

// followers reports how many requests wait on the open flight for id.
func followers(e *Engine, id ident) int {
	key := id.hash(e.seed)
	sh := &e.memo.shards[key&(memoShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f := sh.flights[key]; f != nil {
		return f.waiters
	}
	return -1
}

// TestPredictMemoBitIdentical: a repeat Predict is a case-key hit, runs no
// solve and no forward pass, and equals recomputing bit for bit on both
// precision paths; vandalizing a returned result poisons nothing.
func TestPredictMemoBitIdentical(t *testing.T) {
	for _, prec := range []Precision{Float64, Float32} {
		e, m := caseEngine(t, WithPrecision(prec), WithCache(1<<20))
		c := testCase(2.5e3)
		solved := solveDirect(t, c)
		want := m.Infer(solved)
		if prec == Float32 {
			fm, err := core.NewModel32(m)
			if err != nil {
				t.Fatal(err)
			}
			want = fm.InferFlow(solved)
		}

		miss, err := e.Predict(context.Background(), c)
		if err != nil {
			t.Fatalf("%v: miss: %v", prec, err)
		}
		sameInf(t, prec.String()+" miss vs direct", want, miss)
		miss.Field.Data()[0] = math.Inf(1)
		miss.Levels.Level[0] = 99

		for i := 0; i < 2; i++ {
			got, err := e.Predict(context.Background(), testCase(2.5e3))
			if err != nil {
				t.Fatalf("%v: hit %d: %v", prec, i, err)
			}
			sameInf(t, prec.String()+" hit vs recompute", want, got)
			got.Field.Data()[0] = math.NaN()
		}

		st := e.Stats()
		if st.LRSolves != 1 || st.Requests != 1 {
			t.Errorf("%v: %d solves, %d forward submissions for one distinct case, want 1/1", prec, st.LRSolves, st.Requests)
		}
		if st.CacheHitsCase != 2 || st.CacheHitsFlow != 0 || st.CacheHits != 2 || st.CacheMisses != 1 {
			t.Errorf("%v: hits case=%d flow=%d total=%d misses=%d, want 2/0/2/1", prec, st.CacheHitsCase, st.CacheHitsFlow, st.CacheHits, st.CacheMisses)
		}
		if st.CacheEntries != 1 {
			t.Errorf("%v: %d resident entries for one distinct request, want 1", prec, st.CacheEntries)
		}
	}
}

// TestPredictSingleFlight: K concurrent Predicts of one case run exactly one
// solve and one forward pass, and every caller gets a bit-identical result
// in its own allocation. No byte budget: flights do not need one.
func TestPredictSingleFlight(t *testing.T) {
	const callers = 6
	e, m := caseEngine(t)
	want := m.Infer(solveDirect(t, testCase(2.5e3)))

	release := holdSolves(e) // the leader queues at the gate while the rest join
	got := make([]*core.Inference, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = e.Predict(context.Background(), testCase(2.5e3))
		}(i)
	}
	id := caseIdent(testCase(2.5e3).Build())
	waitFor(t, 5*time.Second, func() bool { return followers(e, id) == callers-1 }, "followers to join the flight")
	if w := e.gate.waiting.Load(); w != 1 {
		t.Errorf("%d requests wait for a solve slot, want 1: followers must not take one", w)
	}
	release()
	wg.Wait()

	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		sameInf(t, "single flight", want, got[i])
		for j := 0; j < i; j++ {
			if got[j] == got[i] || &got[j].Field.Data()[0] == &got[i].Field.Data()[0] || &got[j].Levels.Level[0] == &got[i].Levels.Level[0] {
				t.Fatalf("callers %d and %d share a result", j, i)
			}
		}
	}
	st := e.Stats()
	if st.LRSolves != 1 || st.Requests != 1 || st.Completed != 1 {
		t.Errorf("%d solves, %d submissions, %d forward passes, want 1/1/1", st.LRSolves, st.Requests, st.Completed)
	}
	if st.Coalesced != callers-1 {
		t.Errorf("coalesced = %d, want %d followers", st.Coalesced, callers-1)
	}
	if st.CacheEntries != 0 || st.CacheMisses != 0 {
		t.Errorf("entries=%d misses=%d without a byte budget, want 0/0", st.CacheEntries, st.CacheMisses)
	}
}

// TestFlightCancellation: a follower that gives up does not disturb the
// leader, and a leader that dies of its own cancellation hands the flight to
// a live follower instead of failing it.
func TestFlightCancellation(t *testing.T) {
	e, m := caseEngine(t)
	want := m.Infer(solveDirect(t, testCase(2.5e3)))
	id := caseIdent(testCase(2.5e3).Build())
	release := holdSolves(e)

	type result struct {
		inf *core.Inference
		err error
	}
	ask := func(ctx context.Context) chan result {
		ch := make(chan result, 1)
		go func() {
			inf, err := e.Predict(ctx, testCase(2.5e3))
			ch <- result{inf, err}
		}()
		return ch
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leader := ask(leaderCtx)
	waitFor(t, 5*time.Second, func() bool { return followers(e, id) == 0 }, "the leader's flight")

	quitterCtx, cancelQuitter := context.WithCancel(context.Background())
	quitter := ask(quitterCtx)
	stayers := []chan result{ask(context.Background()), ask(context.Background())}
	waitFor(t, 5*time.Second, func() bool { return followers(e, id) == 3 }, "three followers")

	cancelQuitter()
	if r := <-quitter; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled follower: err = %v, want context.Canceled", r.err)
	}
	if followers(e, id) < 0 {
		t.Fatal("a follower's cancellation closed the leader's flight")
	}

	// The leader dies waiting for a slot; one stayer takes over.
	cancelLeader()
	if r := <-leader; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled leader: err = %v, want context.Canceled", r.err)
	}
	waitFor(t, 5*time.Second, func() bool { return followers(e, id) == 1 }, "a follower to take the flight over")
	release()
	for i, ch := range stayers {
		r := <-ch
		if r.err != nil {
			t.Fatalf("stayer %d after the leader's cancellation: %v", i, r.err)
		}
		sameInf(t, "handed-over flight", want, r.inf)
	}
	if st := e.Stats(); st.LRSolves != 1 {
		t.Errorf("%d solves, want 1: the cancelled leader never got a slot", st.LRSolves)
	}
}

// TestSolveAdmission: flight leaders beyond the solve slots wait, at most
// queueDepth of them; the next is shed with ErrQueueFull; a waiter honours
// its context; a hit takes no slot; and nothing is left running afterwards.
func TestSolveAdmission(t *testing.T) {
	const depth, burst = 2, 6
	before := runtime.NumGoroutine()
	m := testModel([]*grid.Flow{testCase(2.5e3).Build()})
	e, err := New(m, WithCache(1<<20), WithQueueDepth(depth))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Predict(context.Background(), testCase(2.5e3)); err != nil {
		t.Fatalf("warming predict: %v", err)
	}
	release := holdSolves(e)

	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func(i int) {
			_, err := e.Predict(ctx, testCase(3e3+float64(i))) // distinct, cold
			errs <- err
		}(i)
	}
	for i := 0; i < burst-depth; i++ {
		if err := <-errs; !errors.Is(err, ErrQueueFull) {
			t.Fatalf("shed request %d: err = %v, want ErrQueueFull", i, err)
		}
	}
	if w := e.gate.waiting.Load(); w != depth {
		t.Errorf("%d leaders wait for a slot, want %d", w, depth)
	}
	if _, err := e.Predict(context.Background(), testCase(2.5e3)); err != nil {
		t.Errorf("hit with every slot held: %v", err)
	}
	cancel()
	for i := 0; i < depth; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter %d: err = %v, want context.Canceled", i, err)
		}
	}
	release()
	st := e.Stats()
	if st.Rejected != burst-depth || st.LRSolves != 1 || st.CacheHitsCase != 1 {
		t.Errorf("rejected=%d solves=%d case hits=%d, want %d/1/1", st.Rejected, st.LRSolves, st.CacheHitsCase, burst-depth)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+1 { // +1 slack for runtime noise
		t.Errorf("goroutines: %d before the burst, %d after Close", before, n)
	}
}

// TestCaseKeyCoversSolverInputs is the regression for the pre-solve probe
// that identified a case by its shape and initial channels alone: a diverged
// case must not answer for one that differs only in cell size or in boundary
// conditions, even when the two hash alike.
func TestCaseKeyCoversSolverInputs(t *testing.T) {
	base := testCase(2.5e3).Build()
	longer := testCase(2.5e3)
	longer.Length = 3 // channel ν is Height/Re: same ν, same initial channels, other Dx
	symmetric := base.Clone()
	symmetric.BC.Top = grid.Symmetry

	for name, other := range map[string]*grid.Flow{"length": longer.Build(), "bcs": symmetric} {
		a, b := caseIdent(base), caseIdent(other)
		if fa, fb := flowIdent(base), flowIdent(other); !fa.equal(&fb) {
			t.Fatalf("%s: the variants' initial channels differ; the test needs them equal", name)
		}
		if a.hash(fnvOffset) == b.hash(fnvOffset) {
			t.Errorf("%s: the variants share a case key", name)
		}
		m := newMemo(1<<20, time.Minute)
		const key = 42 // a forced collision: only the equality check separates them
		m.do(context.Background(), key, &a, func() (*core.Inference, error) { return nil, solver.ErrDiverged })
		ran := errors.New("ran its own solve")
		_, err, how := m.do(context.Background(), key, &b, func() (*core.Inference, error) { return nil, ran })
		if how != led || err != ran {
			t.Errorf("%s: the other variant got outcome %v, err %v — the diverged case's answer", name, how, err)
		}
	}

	// End to end: a zero-length channel diverges, the library case does not.
	e, _ := caseEngine(t, WithCache(1<<20), WithNegativeTTL(time.Minute))
	degenerate := testCase(2.5e3)
	degenerate.Length = 0
	if _, err := e.Predict(context.Background(), degenerate); !errors.Is(err, solver.ErrDiverged) {
		t.Fatalf("degenerate case: err = %v, want ErrDiverged", err)
	}
	if _, err := e.Predict(context.Background(), testCase(2.5e3)); err != nil {
		t.Fatalf("healthy case after a diverged look-alike: %v", err)
	}
	if st := e.Stats(); st.CacheNegativeHits != 0 {
		t.Errorf("negative hits = %d, want 0", st.CacheNegativeHits)
	}
}

// TestClusterPredictMemo: a repeat Predict is a case-key hit that runs no
// solve and no forward pass, and the engine holds one entry for the
// request. (The Cluster prefix is kept from the replica tier this test once
// ran through; a process now serves one Engine.)
func TestClusterPredictMemo(t *testing.T) {
	e, m := caseEngine(t, WithMaxDelay(time.Millisecond), WithCache(1<<20))
	want := m.Infer(solveDirect(t, testCase(2.5e3)))
	for i := 0; i < 3; i++ {
		got, err := e.Predict(context.Background(), testCase(2.5e3))
		if err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
		sameInf(t, "engine predict", want, got)
	}
	st := e.Stats()
	if st.LRSolves != 1 || st.Completed != 1 || st.CacheHitsCase != 2 || st.CacheEntries != 1 {
		t.Errorf("solves=%d forward passes=%d case hits=%d entries=%d, want 1/1/2/1", st.LRSolves, st.Completed, st.CacheHitsCase, st.CacheEntries)
	}
}

// TestPredictTraceSpans: a trace of a leader, of a follower and of a repeat
// shows where the time went — cache_probe, solve_wait and lr_solve, then
// engine → queue_wait/forward/assemble for the leader, flight_wait for the
// follower, cache_hit{key=case} for the repeat — each from the clock reads
// its histogram observed. The leader is the only request through the queue,
// so every stage histogram holds one sample, its mean IS the span, and the
// comparison is exact equality.
func TestPredictTraceSpans(t *testing.T) {
	reg := obs.NewRegistry()
	e, _ := caseEngine(t, WithCache(1<<20), WithMetrics(reg))
	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	run := func(wait func()) (map[string]obs.SpanView, string) {
		ctx, root := tracer.StartRequest(context.Background(), "POST /predict", "")
		done := make(chan error, 1)
		go func() {
			_, err := e.Predict(ctx, testCase(2.5e3))
			done <- err
		}()
		if wait != nil {
			wait()
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		root.End()
		recs := tracer.Trace(root.Trace().String())
		if len(recs) != 1 {
			t.Fatalf("retained %d records, want 1", len(recs))
		}
		return spanByName(t, recs[0]), recs[0].TraceID
	}

	// Leader and follower, overlapped by holding the solve slots.
	id := caseIdent(testCase(2.5e3).Build())
	release := holdSolves(e)
	var follower map[string]obs.SpanView
	leader, leaderTrace := run(func() {
		waitFor(t, 5*time.Second, func() bool { return followers(e, id) == 0 }, "the leader's flight")
		follower, _ = run(func() {
			waitFor(t, 5*time.Second, func() bool { return followers(e, id) == 1 }, "the follower")
			release()
		})
	})
	st := e.Stats()
	for _, name := range []string{"POST /predict", "cache_probe", "solve_wait", "lr_solve", "engine", "queue_wait", "forward", "assemble"} {
		if _, ok := leader[name]; !ok {
			t.Fatalf("leader trace has no %q span: %v", name, leader)
		}
	}
	// Parentage: the request root → cache_probe/engine → engine stages.
	root := leader["POST /predict"]
	for _, name := range []string{"cache_probe", "solve_wait", "lr_solve", "engine"} {
		if leader[name].ParentID != root.SpanID {
			t.Errorf("%s parent = %q, want root %q", name, leader[name].ParentID, root.SpanID)
		}
	}
	for _, name := range []string{"queue_wait", "forward", "assemble"} {
		if leader[name].ParentID != leader["engine"].SpanID {
			t.Errorf("%s parent = %q, want engine %q", name, leader[name].ParentID, leader["engine"].SpanID)
		}
	}
	if got := leader["cache_probe"].Attrs["hit"]; got != false {
		t.Errorf("cache_probe hit attr = %v, want false", got)
	}
	if _, ok := leader["forward"].Attrs["group"].(int64); !ok {
		t.Errorf("forward span missing group attr: %+v", leader["forward"])
	}
	if st.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (only the leader reaches the queue)", st.Completed)
	}
	for _, chk := range []struct {
		span string
		mean time.Duration
	}{
		{"solve_wait", st.MeanSolveWait},
		{"queue_wait", st.MeanQueueWait},
		{"forward", st.MeanForward},
		{"assemble", st.MeanAssemble},
		{"engine", st.MeanE2E},
	} {
		if got := leader[chk.span].DurationMs; got != msOf(chk.mean) {
			t.Errorf("%s span = %vms, histogram mean = %vms; must share clock reads", chk.span, got, msOf(chk.mean))
		}
	}
	// Exemplars: every stage tail names the leader's trace as its slowest —
	// the only observation there is.
	for name, tail := range map[string]Tail{
		"queue_wait": st.QueueWaitTail, "forward": st.ForwardTail,
		"assemble": st.AssembleTail, "e2e": st.E2ETail,
	} {
		if tail.SlowestTrace != leaderTrace {
			t.Errorf("%s tail exemplar = %q, want the leader's trace %q", name, tail.SlowestTrace, leaderTrace)
		}
	}
	fw, ok := follower["flight_wait"]
	if !ok || fw.Attrs["key"] != "case" {
		t.Fatalf("follower trace has no flight_wait{key=case} span: %v", follower)
	}
	if fw.DurationMs != msOf(st.MeanFlightWait) {
		t.Errorf("flight_wait span = %vms, histogram mean = %vms", fw.DurationMs, msOf(st.MeanFlightWait))
	}
	if _, solved := follower["lr_solve"]; solved {
		t.Error("the follower ran its own solve")
	}

	repeat, _ := run(nil)
	hitSpan, ok := repeat["cache_hit"]
	if !ok || hitSpan.Attrs["key"] != "case" {
		t.Fatalf("repeat trace has no cache_hit{key=case} span: %v", repeat)
	}
	st = e.Stats()
	if hitSpan.DurationMs != msOf(st.MeanCacheHit) {
		t.Errorf("cache_hit span = %vms, histogram mean = %vms", hitSpan.DurationMs, msOf(st.MeanCacheHit))
	}
	for name, want := range map[string]float64{
		"adarnet_serve_lr_solves_total":              float64(st.LRSolves),
		"adarnet_serve_coalesced_total":              float64(st.Coalesced),
		`adarnet_serve_cache_hits_total{key="case"}`: float64(st.CacheHitsCase),
	} {
		if got := metricValue(t, reg, name); got != want {
			t.Errorf("%s = %v, registry disagrees with EngineStats %v", name, got, want)
		}
	}
	if st.LRSolves != 1 || st.Coalesced != 1 || st.CacheHitsCase != 1 {
		t.Errorf("solves=%d coalesced=%d case hits=%d, want 1/1/1", st.LRSolves, st.Coalesced, st.CacheHitsCase)
	}
}
