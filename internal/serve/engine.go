// Package serve implements a batched, concurrent inference engine for
// trained ADARNet models. Many goroutines call Predict/PredictFlow; the
// engine micro-batches their fields across in-flight requests, runs the
// scorer and the per-resolution decoder groups as single batched forward
// passes on gradient-free inference tapes, and demultiplexes the results
// back to each caller.
//
// Pipeline (DESIGN.md §8):
//
//	callers → bounded queue → batcher (flush on MaxBatch / MaxDelay)
//	        → worker pool (batched forward, per-sample assembly) → demux
//
// Backpressure is load-shedding: when the queue is full, submission fails
// immediately with ErrQueueFull instead of blocking the caller. Every stage
// honors context cancellation — a canceled request is dropped at the next
// stage boundary and its caller unblocks with the context error.
//
// Identical requests are deduplicated in front of the pipeline by one keyed
// flight-plus-cache table (memo, DESIGN.md §12): concurrent ones elect a
// leader and the rest wait on its flight, later ones are served from the
// retained answer when WithCache gives the table a byte budget. Each caller
// receives its own deep copy, and the answer is exact, because the LR solve
// and inference are deterministic functions of the bytes the key covers.
//
// Batched outputs are bit-identical to direct core.Model inference: the GEMM
// accumulates over the depth dimension in the same order regardless of how
// many rows the batch contributes, and ranking, patch extraction, and
// assembly are per-sample operations (see core.ForwardBatch).
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/geometry"
	"adarnet/internal/grid"
	"adarnet/internal/obs"
	"adarnet/internal/patch"
	"adarnet/internal/solver"
)

// config collects the engine knobs, set through functional Options.
type config struct {
	maxBatch   int
	maxDelay   time.Duration
	workers    int
	queueDepth int
	solverOpt  solver.Options
	levelCap   int
	precision  Precision
	cacheBytes int64
	negTTL     time.Duration
	metrics    *obs.Registry
	logger     *slog.Logger
}

// Precision selects the numeric path of the engine's forward passes.
type Precision int

const (
	// Float64 is the default: the full-precision tape path, bit-identical
	// to direct core.Model inference.
	Float64 Precision = iota
	// Float32 opts into the frozen fast path (core.Model32): weights
	// converted and packed once at engine construction, fused tape-free
	// kernels at serve time. Outputs agree with Float64 within the
	// tolerance documented in DESIGN.md §11; refinement decisions
	// (the argmax over score bins) match in practice because softmax
	// margins dwarf float32 rounding.
	Float32
)

// String names the precision for stats, logs, and /metrics labels.
func (p Precision) String() string {
	if p == Float32 {
		return "float32"
	}
	return "float64"
}

// Option configures an Engine at construction.
type Option func(*config)

// WithMaxBatch sets the flush size: a batch dispatches as soon as this many
// requests are pending (default 8).
func WithMaxBatch(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.maxBatch = n
		}
	}
}

// WithMaxDelay sets the flush deadline: a partial batch dispatches at most
// this long after its first request arrived (default 2ms).
func WithMaxDelay(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.maxDelay = d
		}
	}
}

// WithWorkers sets the number of forward-pass workers (default 2).
func WithWorkers(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithQueueDepth bounds the submission queue and the number of requests
// waiting for an LR-solve slot; a full queue rejects new requests with
// ErrQueueFull (default 64).
func WithQueueDepth(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.queueDepth = n
		}
	}
}

// WithSolverOptions sets the physics-solver options Predict uses for the LR
// solve that produces the model input.
func WithSolverOptions(opt solver.Options) Option {
	return func(c *config) { c.solverOpt = opt }
}

// WithLevelCap clamps inferred refinement levels (default patch.MaxLevel).
func WithLevelCap(n int) Option {
	return func(c *config) {
		if n >= 0 && n <= patch.MaxLevel {
			c.levelCap = n
		}
	}
}

// WithPrecision selects the numeric path (default Float64). Float32 freezes
// the model into the fused fast path at construction; the default remains
// bit-identical to direct core.Model inference.
func WithPrecision(p Precision) Option {
	return func(c *config) {
		if p == Float64 || p == Float32 {
			c.precision = p
		}
	}
}

// WithCache gives the request-deduplication table a total byte budget for
// retaining finished answers (default 0: concurrent identical requests still
// share one computation, but nothing is kept). Identical inputs recurring
// over time are then answered from memory — Predict skips the LR solve and
// the forward pass, PredictFlow the queue and the forward pass, bit-identical
// on both precision paths — with LRU eviction keeping the resident set under
// the budget. See DESIGN.md §12.
func WithCache(bytes int64) Option {
	return func(c *config) {
		if bytes > 0 {
			c.cacheBytes = bytes
		}
	}
}

// WithNegativeTTL sets the lifetime of negative cache entries — inputs
// whose LR solve diverged (default 10s; 0 disables negative caching). Only
// meaningful with WithCache: a repeated diverging input is answered with
// the cached ErrDiverged instead of burning solver iterations, and the TTL
// keeps a transient misconfiguration from being remembered forever.
func WithNegativeTTL(d time.Duration) Option {
	return func(c *config) {
		if d >= 0 {
			c.negTTL = d
		}
	}
}

// WithMetrics attaches the engine's counters and per-stage latency
// histograms to reg under the adarnet_serve_* names, so a /metrics endpoint
// exports the same distributions Stats() reports. The engine records into
// its own instruments either way; this only adds the exposition.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *config) { c.metrics = reg }
}

// WithLogger sets a structured logger for engine-internal events — today,
// contained worker panics, logged at ERROR with the request IDs of the
// affected requests (propagated via context from the HTTP boundary) and the
// truncated panic stack. A nil logger (the default) keeps the engine silent;
// errors still reach callers as *PanicError.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) { c.logger = l }
}

// request is one in-flight prediction traveling through the pipeline.
type request struct {
	ctx      context.Context
	flow     *grid.Flow
	enqueued time.Time
	done     chan response // buffered(1): workers never block on reply

	// span is the per-request engine span (submit → reply), nil when the
	// caller's context carries no recording trace. It starts at enqueued
	// and ends — with the same clock read the e2e histogram observes — in
	// reply/fail, strictly before the done send, so a trace can never
	// finalize while its engine spans are still being written.
	span *obs.Span

	// replied flips when the response is delivered. One worker goroutine
	// owns a batch end to end — including the individual retries after a
	// batch-level panic — so the flag needs no synchronization; it exists
	// so the retry path never double-replies to a request that was answered
	// before the panic.
	replied bool
}

type response struct {
	inf *core.Inference
	err error
}

// Engine is a batched inference server around one trained model. It is safe
// for concurrent use; create it with New and release it with Close.
type Engine struct {
	model *core.Model
	// model32 is the frozen float32 snapshot, non-nil iff the engine was
	// built with WithPrecision(Float32). Immutable and share-safe.
	model32 *core.Model32
	cfg     config

	// memo deduplicates identical requests in both key spaces (case keys in
	// Predict, flow keys in PredictFlow): flights always, retention within
	// the WithCache budget. seed folds the refinement parameters into every
	// key (memoSeed). gate rations the LR solves of Predict's flight leaders.
	memo *memo
	seed uint64
	gate *solveGate

	queue   chan *request   // bounded submission queue
	batches chan []*request // unbuffered batcher→worker handoff

	mu     sync.RWMutex // guards closed vs. queue sends
	wg     sync.WaitGroup
	closed bool

	stats counters // hot-path counters and stage histograms (stats.go)

	// logger, when non-nil, receives engine-internal events (contained
	// panics) as structured records tagged with request IDs.
	logger *slog.Logger

	// hold, when non-nil, blocks each worker before it processes a batch —
	// a test hook that makes queue saturation deterministic.
	hold chan struct{}

	// inject holds an optional hook run inside the forward boundary for each
	// request about to enter a batched pass — a fault-injection point that
	// panics deterministically so containment can be exercised. Atomic so
	// tests can arm it while traffic is in flight.
	inject atomic.Pointer[func(*grid.Flow)]
}

// setInject arms (or, with nil, disarms) the per-request fault-injection
// hook. Safe to call concurrently with serving.
func (e *Engine) setInject(fn func(*grid.Flow)) {
	if fn == nil {
		e.inject.Store(nil)
		return
	}
	e.inject.Store(&fn)
}

// New starts an engine for a trained model. The model is shared read-only
// across workers (inference tapes never write to it). Returns
// core.ErrUntrained for a nil or parameterless model.
func New(m *core.Model, opts ...Option) (*Engine, error) {
	if m == nil || len(m.Params()) == 0 {
		return nil, fmt.Errorf("serve: %w", core.ErrUntrained)
	}
	cfg := config{
		maxBatch:   8,
		maxDelay:   2 * time.Millisecond,
		workers:    2,
		queueDepth: 64,
		solverOpt:  solver.DefaultOptions(),
		levelCap:   patch.MaxLevel,
		negTTL:     10 * time.Second,
	}
	for _, o := range opts {
		o(&cfg)
	}
	e := &Engine{
		model:   m,
		cfg:     cfg,
		logger:  cfg.logger,
		memo:    newMemo(cfg.cacheBytes, cfg.negTTL),
		seed:    memoSeed(m.Cfg, &cfg),
		gate:    newSolveGate(cfg.queueDepth),
		queue:   make(chan *request, cfg.queueDepth),
		batches: make(chan []*request),
	}
	if cfg.precision == Float32 {
		fm, err := core.NewModel32(m)
		if err != nil {
			return nil, fmt.Errorf("serve: freeze float32 model: %w", err)
		}
		e.model32 = fm
	}
	if cfg.metrics != nil {
		e.RegisterMetrics(cfg.metrics)
	}
	e.wg.Add(1 + cfg.workers)
	go e.batcher()
	for i := 0; i < cfg.workers; i++ {
		go e.worker()
	}
	return e, nil
}

// Precision reports which numeric path the engine serves with.
func (e *Engine) Precision() Precision {
	if e.model32 != nil {
		return Float32
	}
	return Float64
}

func (e *Engine) isClosed() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.closed
}

// Close drains the pipeline and stops the engine: in-flight requests finish,
// subsequent submissions fail with ErrEngineClosed. Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.queue)
	e.mu.Unlock()
	e.wg.Wait()
	// A closed engine's results must not outlive it, and the byte budget is
	// released immediately.
	e.memo.purge()
	return nil
}

// Predict builds the case's LR grid and answers it under its case key: a
// retained answer or another request's open flight if there is one,
// otherwise — as the flight's leader, in the caller's goroutine — the LR
// solve that produces the model input and a batched forward pass. The leader
// solves under the solve gate and hands the solved field straight to the
// queue, not through the flow key space, so a request leaves one entry
// behind, not two.
func (e *Engine) Predict(ctx context.Context, c *geometry.Case) (*core.Inference, error) {
	lr := c.Build()
	id := caseIdent(lr)
	return e.answer(ctx, id.hash(e.seed), id, func(ctx context.Context) (*core.Inference, error) {
		if err := e.solve(ctx, lr); err != nil {
			return nil, err
		}
		return e.submit(ctx, lr)
	})
}

// solveGate bounds the LR solves, which run on callers' goroutines outside
// the queue: GOMAXPROCS at a time (a solve is CPU-bound and, at serving
// grids, serial), at most depth more waiting, the rest shed.
type solveGate struct {
	slots   chan struct{}
	waiting atomic.Int64
	depth   int64
}

func newSolveGate(depth int) *solveGate {
	return &solveGate{slots: make(chan struct{}, runtime.GOMAXPROCS(0)), depth: int64(depth)}
}

func (g *solveGate) acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if g.waiting.Add(1) > g.depth {
		g.waiting.Add(-1)
		return fmt.Errorf("serve: solve (%d waiting): %w", g.depth, ErrQueueFull)
	}
	defer g.waiting.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *solveGate) release() { <-g.slots }

// solve runs the LR solve of a flight leader in place on lr, behind the
// solve gate. The solve_wait and lr_solve spans share their clock reads with
// each other and with the solve-wait histogram.
func (e *Engine) solve(ctx context.Context, lr *grid.Flow) error {
	sp := obs.SpanFromContext(ctx)
	waitStart := time.Now()
	if err := e.gate.acquire(ctx); err != nil {
		if errors.Is(err, ErrQueueFull) {
			e.stats.rejected.Add(1)
		}
		return err
	}
	defer e.gate.release()
	start := time.Now()
	e.stats.solveWait.ObserveDuration(start.Sub(waitStart))
	e.stats.lrSolves.Add(1)
	_, err := solver.Solve(ctx, lr, e.cfg.solverOpt)
	if sp.Recording() {
		sp.Child("solve_wait", waitStart, start)
		c := sp.StartChildAt("lr_solve", start)
		c.SetError(err)
		c.End()
	}
	return err
}

// PredictFlow answers a solved LR flow field under its flow key: a retained
// answer or an open flight if there is one, otherwise a batched forward
// pass. The field is read, not retained.
func (e *Engine) PredictFlow(ctx context.Context, lr *grid.Flow) (*core.Inference, error) {
	id := flowIdent(lr)
	return e.answer(ctx, id.hash(e.seed), id, func(ctx context.Context) (*core.Inference, error) {
		return e.submit(ctx, lr)
	})
}

// answer serves one request through the table and records how it went. A
// hit or a follower gets a private copy, bit-identical to recomputing; only
// a leader runs lead. A closed engine serves neither from its queue nor from
// its table. With a recording trace in ctx the outcome becomes a cache_hit,
// flight_wait or (leader, retaining table) cache_probe span from the same
// clock reads as the matching histogram.
func (e *Engine) answer(ctx context.Context, key uint64, id ident,
	lead func(context.Context) (*core.Inference, error)) (*core.Inference, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	if e.isClosed() {
		return nil, fmt.Errorf("serve: submit: %w", ErrEngineClosed)
	}
	sp := obs.SpanFromContext(ctx)
	inf, err, how := e.memo.do(ctx, key, &id, func() (*core.Inference, error) {
		if sp.Recording() && e.memo.retains() {
			sp.Child("cache_probe", start, time.Now(), obs.Bool("hit", false))
		}
		return lead(ctx)
	})
	if how == led {
		return inf, err
	}
	end := time.Now()
	d := end.Sub(start)
	if how == followed {
		e.stats.flightWait.ObserveDuration(d)
		if sp.Recording() {
			sp.Child("flight_wait", start, end, obs.String("key", id.space.String()))
		}
		if err != nil {
			return nil, err
		}
		e.stats.coalesced.Add(1)
		inf.Elapsed = d
		return inf, nil
	}
	e.stats.cacheHit.ObserveDuration(d)
	if sp.Recording() {
		e.stats.cacheHitEx.Observe(d.Nanoseconds(), sp.Trace())
		sp.Child("cache_hit", start, end, obs.String("key", id.space.String()), obs.Bool("negative", err != nil))
	}
	if err != nil {
		return nil, fmt.Errorf("serve: negative cache: %w", err)
	}
	inf.Elapsed = d
	return inf, nil
}

// submit enqueues a solved field for a batched forward pass and blocks until
// the result, a queue rejection, or ctx cancellation.
func (e *Engine) submit(ctx context.Context, lr *grid.Flow) (*core.Inference, error) {
	enqueued := time.Now()
	req := &request{ctx: ctx, flow: lr, enqueued: enqueued, done: make(chan response, 1)}
	// The engine span starts at the same clock read as the e2e histogram's
	// submit timestamp, so its duration and MeanE2E agree exactly.
	if sp := obs.SpanFromContext(ctx); sp.Recording() {
		req.span = sp.StartChildAt("engine", enqueued)
	}

	// The read lock pairs with Close's write lock so the queue cannot be
	// closed between the flag check and the send.
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		err := fmt.Errorf("serve: submit: %w", ErrEngineClosed)
		e.endSpan(req, err)
		return nil, err
	}
	select {
	case e.queue <- req:
		e.mu.RUnlock()
	default:
		e.mu.RUnlock()
		e.stats.rejected.Add(1)
		err := fmt.Errorf("serve: submit (queue depth %d): %w", e.cfg.queueDepth, ErrQueueFull)
		e.endSpan(req, err)
		return nil, err
	}
	e.stats.requests.Add(1)

	select {
	case resp := <-req.done:
		return resp.inf, resp.err
	case <-ctx.Done():
		// The worker will still reply into the buffered channel and skip the
		// forward pass for this request when it notices the dead context.
		e.stats.canceled.Add(1)
		return nil, ctx.Err()
	}
}

// endSpan closes a request's engine span on a path that never entered the
// pipeline (closed engine, full queue).
func (e *Engine) endSpan(req *request, err error) {
	if req.span == nil {
		return
	}
	req.span.SetError(err)
	req.span.End()
}

// memoSeed folds the engine's refinement parameters into the hash seed of
// every key: two engines differing in patch size, bin count, level cap, or
// precision produce different predictions for the same input, so their keys
// must never coincide.
func memoSeed(mc core.Config, cfg *config) uint64 {
	h := fnvOffset
	for _, v := range [...]uint64{
		uint64(mc.PatchH), uint64(mc.PatchW), uint64(mc.Bins),
		uint64(cfg.levelCap), uint64(cfg.precision),
	} {
		h = fnvMix(h, v)
	}
	return h
}

// batcher collects queued requests into batches, flushing when MaxBatch is
// reached or MaxDelay after the first pending request.
func (e *Engine) batcher() {
	defer e.wg.Done()
	var pending []*request
	var timer *time.Timer
	var timeout <-chan time.Time

	flush := func() {
		if timer != nil {
			timer.Stop()
			timer, timeout = nil, nil
		}
		if len(pending) == 0 {
			return
		}
		e.stats.occupancy.Observe(int64(len(pending)))
		e.batches <- pending
		pending = nil
	}

	for {
		select {
		case req, ok := <-e.queue:
			if !ok {
				flush()
				close(e.batches)
				return
			}
			pending = append(pending, req)
			if len(pending) >= e.cfg.maxBatch {
				flush()
			} else if timer == nil {
				timer = time.NewTimer(e.cfg.maxDelay)
				timeout = timer.C
			}
		case <-timeout:
			timer, timeout = nil, nil
			flush()
		}
	}
}

// worker consumes batches and processes each inside a fault boundary, so a
// panicking forward pass can never kill the process or strand Close.
func (e *Engine) worker() {
	defer e.wg.Done()
	for batch := range e.batches {
		if e.hold != nil {
			<-e.hold
		}
		e.processBatch(batch)
	}
}

// processBatch drops dead requests, groups live ones by field shape, and runs
// one batched forward pass per group. The deferred recover is the worker's
// last-resort boundary: runGroup contains forward-pass panics itself, so this
// only fires on a panic in the surrounding bookkeeping — and even then every
// unanswered caller gets ErrInternal instead of hanging on a worker that
// died mid-batch.
func (e *Engine) processBatch(batch []*request) {
	defer func() {
		if r := recover(); r != nil {
			e.stats.panics.Add(1)
			err := newPanicError(r)
			e.logPanic("batch bookkeeping", err, batch)
			for _, req := range batch {
				e.fail(req, err)
			}
		}
	}()
	now := time.Now()
	var live []*request
	for _, req := range batch {
		wait := now.Sub(req.enqueued)
		e.stats.queueWait.ObserveDuration(wait)
		if req.span != nil {
			// Same clock reads as the histogram observation above.
			e.stats.queueWaitEx.Observe(wait.Nanoseconds(), req.span.Trace())
			req.span.Child("queue_wait", req.enqueued, now)
		}
		if err := req.ctx.Err(); err != nil {
			e.fail(req, err)
			continue
		}
		live = append(live, req)
	}
	// Group by grid shape: one stacked tensor per (H, W).
	for len(live) > 0 {
		h, w := live[0].flow.H, live[0].flow.W
		group := live[:0:0]
		rest := live[:0:0]
		for _, req := range live {
			if req.flow.H == h && req.flow.W == w {
				group = append(group, req)
			} else {
				rest = append(rest, req)
			}
		}
		e.runGroup(group)
		live = rest
	}
}
