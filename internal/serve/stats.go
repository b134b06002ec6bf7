package serve

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"adarnet/internal/obs"
	"adarnet/internal/tensor"
	"adarnet/internal/tensor/cpu"
)

// counters are the engine's hot-path metrics; the scalar fields are atomics
// and the stage histograms are lock-free, so every pipeline stage records
// without locks. The histograms are the single source of truth for stage
// timing: EngineStats means and tails, the /metrics exposition, and the
// benchmark harness all derive from the same buckets, so they can never
// disagree.
type counters struct {
	requests  atomic.Uint64 // accepted submissions
	completed atomic.Uint64 // replies delivered with a result
	canceled  atomic.Uint64 // callers that gave up or arrived dead
	rejected  atomic.Uint64 // queue-full rejections
	coalesced atomic.Uint64 // flight followers: requests served from another request's computation
	lrSolves  atomic.Uint64 // LR solves started by Predict's flight leaders
	panics    atomic.Uint64 // panics recovered at a worker boundary
	retried   atomic.Uint64 // individual re-runs after a batch-level panic

	queueWait  obs.Histogram // submit → batch pickup, ns, per request
	forward    obs.Histogram // batched forward pass, ns, per batch group
	assemble   obs.Histogram // cap/assemble/invert + demux, ns, per batch group
	e2e        obs.Histogram // submit → reply delivered, ns, per completed request
	occupancy  obs.Histogram // requests per flushed batch
	cacheHit   obs.Histogram // cache lookup → copied reply, ns, per cache hit
	flightWait obs.Histogram // lookup → leader's result copied (or own ctx dead), ns, per follower
	solveWait  obs.Histogram // wait for an LR-solve slot, ns, per admitted leader

	// Stage exemplars: per histogram bucket, the trace ID of the slowest
	// observation — so an EngineStats tail can name the trace to pull from
	// /debug/traces. Recorded from the same clock reads as the histograms;
	// free when tracing is off (zero trace IDs are dropped on entry).
	queueWaitEx obs.Exemplars
	forwardEx   obs.Exemplars
	assembleEx  obs.Exemplars
	e2eEx       obs.Exemplars
	cacheHitEx  obs.Exemplars
}

// EngineStats is a point-in-time snapshot of the engine's counters and
// latency distributions.
type EngineStats struct {
	// Precision names the engine's numeric path: "float64" (default,
	// bit-identical to direct inference) or "float32" (fused fast path).
	Precision string

	// GemmKernel names the float32 GEMM micro-kernel active in this
	// process ("avx2", "neon", or "generic") and CPUFeatures the detected
	// vector features — surfaced here so a field perf regression can be
	// triaged from /stats alone (a box silently falling back to the scalar
	// kernel looks exactly like a 2–4× serve-path slowdown).
	GemmKernel  string
	CPUFeatures string

	Requests  uint64 // submissions accepted into the queue
	Completed uint64 // predictions delivered
	Canceled  uint64 // requests dropped by context cancellation
	Rejected  uint64 // submissions shed with ErrQueueFull
	Batches   uint64 // forward-pass batches dispatched
	Coalesced uint64 // flight followers: requests that shared an identical in-flight request's computation
	LRSolves  uint64 // LR solves run by Predict (one per flight leader; hits and followers run none)

	// Panics counts panics recovered at worker boundaries — each one would
	// have killed the process before fault containment. Nonzero Panics with
	// the process still serving is the containment working as designed, but
	// it always indicates a bug worth chasing via the logged stack.
	Panics uint64
	// Retried counts requests re-run individually after a batch-level panic
	// (the graceful-degradation path that keeps batch-mates of a poisoned
	// request succeeding).
	Retried uint64

	// Retention counters of the deduplication table (DESIGN.md §12); all
	// zero without WithCache. Cache hits bypass the queue, so they appear
	// here and in the CacheHit histogram rather than in
	// Requests/Completed/E2E. The same atomics feed the
	// adarnet_serve_cache_* series on /metrics, so the two views can never
	// disagree.
	CacheHits         uint64 // predictions served from the cache: CacheHitsCase + CacheHitsFlow
	CacheHitsCase     uint64 // Predict answered under its case key (no solve, no forward pass)
	CacheHitsFlow     uint64 // PredictFlow answered under its flow key (no forward pass)
	CacheMisses       uint64 // lookups that found no entry (flight leaders and followers)
	CacheNegativeHits uint64 // cached ErrDiverged answers
	CacheEvicted      uint64 // entries evicted at the byte budget
	CacheBytes        int64  // resident cache bytes
	CacheEntries      int64  // resident cache entries

	// MeanBatchOccupancy is requests per batch — the micro-batching win.
	MeanBatchOccupancy float64

	// MeanQueueWait is the average submit → batch-pickup latency.
	MeanQueueWait time.Duration
	// MeanForward is the average batched-forward stage time per batch.
	MeanForward time.Duration
	// MeanAssemble is the average assembly/demux stage time per batch.
	MeanAssemble time.Duration
	// MeanE2E is the average submit → reply latency per completed request.
	MeanE2E time.Duration
	// MeanCacheHit is the average lookup → copied-reply latency per cache
	// hit — the cost of serving a memoized prediction.
	MeanCacheHit time.Duration
	// MeanFlightWait is the average time a follower waited on its leader.
	MeanFlightWait time.Duration
	// MeanSolveWait is the average time a leader waited for a solve slot.
	MeanSolveWait time.Duration

	// Per-stage latency tails, from the same histograms that feed the means
	// and the /metrics exposition. E2E covers submit → reply for completed
	// requests; the stage tails are per batch (Forward, Assemble) or per
	// request (QueueWait).
	QueueWaitTail Tail
	ForwardTail   Tail
	AssembleTail  Tail
	E2ETail       Tail
	CacheHitTail  Tail
}

// Tail summarizes a latency distribution at the quantiles operators watch.
// SlowestTrace, when tracing is on, is the trace ID of the slowest
// observation the stage has seen — the exemplar to pull from /debug/traces
// when the tail looks wrong.
type Tail struct {
	P50          time.Duration
	P95          time.Duration
	P99          time.Duration
	SlowestTrace string `json:",omitempty"`
}

func tailOf(s obs.Snapshot, ex obs.Exemplar) Tail {
	return Tail{
		P50:          time.Duration(s.Quantile(0.50)),
		P95:          time.Duration(s.Quantile(0.95)),
		P99:          time.Duration(s.Quantile(0.99)),
		SlowestTrace: ex.Trace.String(),
	}
}

// stageSnaps accumulates the stage-histogram snapshots an EngineStats
// derives its timing fields from. Snapshots merge bucket-wise exactly, so a
// cluster aggregate built from several replicas' counters is as faithful as
// a single engine's. The exemplar fields keep the max-valued exemplar seen
// across the merged sets.
type stageSnaps struct {
	queueWait, forward, assemble, e2e, occupancy, cacheHit, flightWait, solveWait obs.Snapshot

	queueWaitEx, forwardEx, assembleEx, e2eEx, cacheHitEx obs.Exemplar
}

// addTo accumulates this counter set into s (scalars sum) and snaps (stage
// histograms merge). Engine.Stats calls it once; Cluster.Stats calls it once
// per replica slot to build the fleet aggregate.
func (c *counters) addTo(s *EngineStats, snaps *stageSnaps) {
	s.Requests += c.requests.Load()
	s.Completed += c.completed.Load()
	s.Canceled += c.canceled.Load()
	s.Rejected += c.rejected.Load()
	s.Coalesced += c.coalesced.Load()
	s.LRSolves += c.lrSolves.Load()
	s.Panics += c.panics.Load()
	s.Retried += c.retried.Load()
	snaps.queueWait.Merge(c.queueWait.Snapshot())
	snaps.forward.Merge(c.forward.Snapshot())
	snaps.assemble.Merge(c.assemble.Snapshot())
	snaps.e2e.Merge(c.e2e.Snapshot())
	snaps.occupancy.Merge(c.occupancy.Snapshot())
	snaps.cacheHit.Merge(c.cacheHit.Snapshot())
	snaps.flightWait.Merge(c.flightWait.Snapshot())
	snaps.solveWait.Merge(c.solveWait.Snapshot())
	snaps.queueWaitEx = obs.MaxExemplar(snaps.queueWaitEx, c.queueWaitEx.Slowest())
	snaps.forwardEx = obs.MaxExemplar(snaps.forwardEx, c.forwardEx.Slowest())
	snaps.assembleEx = obs.MaxExemplar(snaps.assembleEx, c.assembleEx.Slowest())
	snaps.e2eEx = obs.MaxExemplar(snaps.e2eEx, c.e2eEx.Slowest())
	snaps.cacheHitEx = obs.MaxExemplar(snaps.cacheHitEx, c.cacheHitEx.Slowest())
}

// addCacheTo accumulates a table's retention counters into s.
func addCacheTo(s *EngineStats, c *memo) {
	s.CacheHitsCase += c.hits[caseSpace].Load()
	s.CacheHitsFlow += c.hits[flowSpace].Load()
	s.CacheHits = s.CacheHitsCase + s.CacheHitsFlow
	s.CacheMisses += c.misses.Load()
	s.CacheNegativeHits += c.negHits.Load()
	s.CacheEvicted += c.evicted.Load()
	s.CacheBytes += c.bytes.Load()
	s.CacheEntries += c.entries.Load()
}

// finishStats derives the timing fields — means, tails, batch count — from
// the accumulated stage snapshots.
func finishStats(s *EngineStats, snaps *stageSnaps) {
	s.Batches = snaps.occupancy.Count
	s.MeanBatchOccupancy = snaps.occupancy.Mean()
	s.MeanQueueWait = time.Duration(snaps.queueWait.Mean())
	s.MeanForward = time.Duration(snaps.forward.Mean())
	s.MeanAssemble = time.Duration(snaps.assemble.Mean())
	s.MeanE2E = time.Duration(snaps.e2e.Mean())
	s.MeanCacheHit = time.Duration(snaps.cacheHit.Mean())
	s.MeanFlightWait = time.Duration(snaps.flightWait.Mean())
	s.MeanSolveWait = time.Duration(snaps.solveWait.Mean())
	s.QueueWaitTail = tailOf(snaps.queueWait, snaps.queueWaitEx)
	s.ForwardTail = tailOf(snaps.forward, snaps.forwardEx)
	s.AssembleTail = tailOf(snaps.assemble, snaps.assembleEx)
	s.E2ETail = tailOf(snaps.e2e, snaps.e2eEx)
	s.CacheHitTail = tailOf(snaps.cacheHit, snaps.cacheHitEx)
}

// Stats snapshots the engine counters. Safe to call concurrently with
// serving; the fields are read individually, not as one atomic unit.
// All timing fields — means and tails — derive from the stage histogram
// snapshots, the same data /metrics exports.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		Precision:   e.Precision().String(),
		GemmKernel:  tensor.Gemm32KernelName(),
		CPUFeatures: cpu.Summary(),
	}
	var snaps stageSnaps
	e.stats.addTo(&s, &snaps)
	addCacheTo(&s, e.memo)
	finishStats(&s, &snaps)
	return s
}

// String renders the snapshot for logs.
func (s EngineStats) String() string {
	return fmt.Sprintf("precision=%s requests=%d completed=%d canceled=%d rejected=%d batches=%d coalesced=%d lr_solves=%d panics=%d retried=%d occupancy=%.2f queue_wait=%v forward=%v assemble=%v cache_hits=%d cache_misses=%d cache_evicted=%d cache_bytes=%d",
		s.Precision, s.Requests, s.Completed, s.Canceled, s.Rejected, s.Batches, s.Coalesced, s.LRSolves, s.Panics, s.Retried,
		s.MeanBatchOccupancy, s.MeanQueueWait, s.MeanForward, s.MeanAssemble,
		s.CacheHits, s.CacheMisses, s.CacheEvicted, s.CacheBytes)
}

// RegisterMetrics attaches the engine's counters and stage histograms to a
// metrics registry under the adarnet_serve_* names (DESIGN.md §10). The
// registry reads the engine's own instruments — there is no second set of
// books — so /metrics and Stats() always agree. Typically wired through the
// WithMetrics option; exported for callers that construct the registry
// after the engine.
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	registerServeMetrics(reg, nil, e.stats, func() *Engine { return e })
}

// registerServeMetrics attaches one counter set's series under the
// adarnet_serve_* names, optionally labeled (a Cluster registers each slot
// with replica="i"). The counters outlive replica generations, but the cache
// and precision belong to the live engine, so those series read through the
// engine accessor — for a cluster slot that is whichever generation is
// serving at scrape time.
func registerServeMetrics(reg *obs.Registry, labels []string, c *counters, engine func() *Engine) {
	if reg == nil {
		return
	}
	name := func(base string, kv ...string) string {
		return obs.Labeled(base, append(slices.Clip(labels), kv...)...)
	}
	reg.CounterFunc(name("adarnet_serve_requests_total"), "Submissions accepted into the queue.",
		func() float64 { return float64(c.requests.Load()) })
	reg.CounterFunc(name("adarnet_serve_completed_total"), "Predictions delivered.",
		func() float64 { return float64(c.completed.Load()) })
	reg.CounterFunc(name("adarnet_serve_canceled_total"), "Requests dropped by context cancellation.",
		func() float64 { return float64(c.canceled.Load()) })
	reg.CounterFunc(name("adarnet_serve_rejected_total"), "Submissions shed with ErrQueueFull.",
		func() float64 { return float64(c.rejected.Load()) })
	reg.CounterFunc(name("adarnet_serve_coalesced_total"), "Flight followers: requests served from an identical in-flight request's computation.",
		func() float64 { return float64(c.coalesced.Load()) })
	reg.CounterFunc(name("adarnet_serve_lr_solves_total"), "LR solves run by Predict's flight leaders.",
		func() float64 { return float64(c.lrSolves.Load()) })
	reg.CounterFunc(name("adarnet_serve_panics_total"), "Panics recovered at worker boundaries.",
		func() float64 { return float64(c.panics.Load()) })
	reg.CounterFunc(name("adarnet_serve_retried_total"), "Individual re-runs after a batch-level panic.",
		func() float64 { return float64(c.retried.Load()) })
	reg.GaugeFunc(name("adarnet_serve_precision_float32"), "1 when the engine serves the float32 fast path, 0 for the float64 default.",
		func() float64 {
			if e := engine(); e != nil && e.Precision() == Float32 {
				return 1
			}
			return 0
		})
	// Cache series read the live engine's table atomics; EngineStats reads
	// the same ones, so the views always agree. Hits carry the key space
	// that answered (key="case" skipped a solve, key="flow" a forward pass).
	cacheVal := func(read func(*memo) float64) func() float64 {
		return func() float64 {
			e := engine()
			if e == nil {
				return 0
			}
			return read(e.memo)
		}
	}
	for sp := keySpace(0); sp < numKeySpaces; sp++ {
		reg.CounterFunc(name("adarnet_serve_cache_hits_total", "key", sp.String()),
			"Predictions served from the content-addressed cache, by key space.",
			cacheVal(func(m *memo) float64 { return float64(m.hits[sp].Load()) }))
	}
	reg.CounterFunc(name("adarnet_serve_cache_misses_total"), "Cache lookups that found no entry and led or followed a flight.",
		cacheVal(func(m *memo) float64 { return float64(m.misses.Load()) }))
	reg.CounterFunc(name("adarnet_serve_cache_negative_hits_total"), "Cached ErrDiverged answers served without re-solving.",
		cacheVal(func(m *memo) float64 { return float64(m.negHits.Load()) }))
	reg.CounterFunc(name("adarnet_serve_cache_evicted_total"), "Cache entries evicted at the byte budget.",
		cacheVal(func(m *memo) float64 { return float64(m.evicted.Load()) }))
	reg.GaugeFunc(name("adarnet_serve_cache_bytes"), "Resident prediction-cache bytes.",
		cacheVal(func(m *memo) float64 { return float64(m.bytes.Load()) }))
	reg.GaugeFunc(name("adarnet_serve_cache_entries"), "Resident prediction-cache entries.",
		cacheVal(func(m *memo) float64 { return float64(m.entries.Load()) }))
	reg.GaugeFunc(name("adarnet_serve_cache_enabled"), "1 when the engine was built with WithCache, 0 otherwise.",
		cacheVal(func(m *memo) float64 {
			if m.retains() {
				return 1
			}
			return 0
		}))
	reg.AttachHistogram(name("adarnet_serve_queue_wait_seconds"), "Submit to batch-pickup wait per request.", 1e-9, &c.queueWait)
	reg.AttachHistogram(name("adarnet_serve_forward_seconds"), "Batched forward-pass time per batch group.", 1e-9, &c.forward)
	reg.AttachHistogram(name("adarnet_serve_assemble_seconds"), "Assembly/demux time per batch group.", 1e-9, &c.assemble)
	reg.AttachHistogram(name("adarnet_serve_e2e_seconds"), "Submit to reply latency per completed request.", 1e-9, &c.e2e)
	reg.AttachHistogram(name("adarnet_serve_batch_occupancy"), "Requests per flushed batch.", 1, &c.occupancy)
	reg.AttachHistogram(name("adarnet_serve_cache_hit_seconds"), "Lookup to copied-reply latency per cache hit.", 1e-9, &c.cacheHit)
	reg.AttachHistogram(name("adarnet_serve_flight_wait_seconds"), "Time a follower waited on an identical in-flight request.", 1e-9, &c.flightWait)
	reg.AttachHistogram(name("adarnet_serve_solve_wait_seconds"), "Time a flight leader waited for an LR-solve slot.", 1e-9, &c.solveWait)
}
