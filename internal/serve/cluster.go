package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/geometry"
	"adarnet/internal/grid"
	"adarnet/internal/obs"
	"adarnet/internal/tensor"
	"adarnet/internal/tensor/cpu"
)

// Cluster fans requests across N in-process engine replicas behind the same
// Predictor contract as a single Engine (DESIGN.md §13).
//
// Routing is consistent-hash on the request's content key — the same key the
// replicas' tables use — so repeats of a case or a flow state land on the
// replica that retained the answer, and the fleet's aggregate cache capacity
// partitions across replicas instead of duplicating. When the
// home replica's queue runs hot, the router falls back to the next replica on
// the ring (load-aware fallback); retriable failures (contained panics,
// queue-full, a replica mid-replacement) are retried on the next replica, so
// a replica dying mid-traffic fails zero accepted requests.
//
// The router holds a zero-budget instance of the replicas' table (memo), so
// concurrent requests with bitwise-identical fields collapse to one replica
// submission regardless of which replica each would have hedged or fallen
// back to, and every follower receives its own deep copy of the result.
//
// A background monitor derives per-replica health from the same obs
// histograms /metrics exports; an unhealthy replica is ejected from routing,
// drained, and replaced by a fresh engine built from the same (pre-frozen)
// model. Optional hedged retries launch a second attempt on the next replica
// after a p99-derived delay; the first response wins and the loser's context
// is cancelled.
type Cluster struct {
	model *core.Model
	cfg   config

	slots []*slot
	ring  *hashRing

	// seed is the routing hash seed: memoSeed, as in every replica, so the
	// router key for a request equals each replica's table key for it — the
	// property that makes routing cache-affine.
	seed uint64

	// flights coalesces concurrent identical PredictFlow calls ahead of
	// routing; with no budget it retains nothing (the replicas do).
	flights *memo

	// loadThreshold is the home-replica queue depth at which the router
	// prefers a less-loaded replica: 3/4 of the submission queue.
	loadThreshold int

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup // accepted requests, drained by Close

	healthDone chan struct{}
	healthWG   sync.WaitGroup

	// Router-level counters, on top of the per-replica engine counters.
	ejections atomic.Uint64 // replicas ejected and replaced
	hedges    atomic.Uint64 // hedged second attempts launched
	hedgeWins atomic.Uint64 // hedged attempts that answered first
	fallbacks atomic.Uint64 // requests routed off a hot home replica
	retries   atomic.Uint64 // rerouted after a retriable replica failure
	coalesced atomic.Uint64 // followers served from a router-level flight

	logger *slog.Logger
}

// Slot states: a slot is routable only while ready.
const (
	slotReady int32 = iota
	slotDraining
	slotClosed
)

// slot is one replica position in the ring. The position — its index, its
// ring points, its counters — outlives replica generations: a replacement
// swaps the engine pointer and bumps the generation, leaving routing and the
// labeled metrics series untouched.
type slot struct {
	index      int
	stats      *counters
	eng        atomic.Pointer[Engine]
	state      atomic.Int32
	generation atomic.Int32

	// Health-monitor window state, touched only by the monitor goroutine.
	lastPanics uint64
	lastE2E    obs.Snapshot
}

func (s *slot) engine() *Engine { return s.eng.Load() }
func (s *slot) ready() bool     { return s.state.Load() == slotReady }

func (s *slot) stateName() string {
	switch s.state.Load() {
	case slotDraining:
		return StateDraining
	case slotClosed:
		return StateClosed
	default:
		return StateReady
	}
}

// NewCluster starts cfg.replicas engine replicas (WithReplicas) for a
// trained model and the router in front of them. All per-replica options
// (WithWorkers, WithMaxBatch, WithCache, ...) apply to every replica; with
// WithPrecision(Float32) the model is frozen once and shared. Returns
// core.ErrUntrained for a nil or parameterless model.
func NewCluster(m *core.Model, opts ...Option) (*Cluster, error) {
	cfg := newConfig(opts)
	if m == nil || len(m.Params()) == 0 {
		return nil, fmt.Errorf("serve: %w", core.ErrUntrained)
	}
	if cfg.precision == Float32 && cfg.frozen == nil {
		fm, err := core.NewModel32(m)
		if err != nil {
			return nil, fmt.Errorf("serve: freeze float32 model: %w", err)
		}
		cfg.frozen = fm
	}
	cfg.gate = newSolveGate(cfg.queueDepth)
	c := &Cluster{
		model:         m,
		cfg:           cfg,
		seed:          memoSeed(m.Cfg, &cfg),
		loadThreshold: max(1, 3*cfg.queueDepth/4),
		flights:       newMemo(0, 0),
		ring:          newHashRing(cfg.replicas, ringVnodes),
		healthDone:    make(chan struct{}),
		logger:        cfg.logger,
	}
	for i := 0; i < cfg.replicas; i++ {
		s := &slot{index: i, stats: &counters{}}
		eng, err := newEngine(m, c.replicaConfig(s))
		if err != nil {
			for _, prev := range c.slots {
				prev.engine().Close()
			}
			return nil, err
		}
		s.eng.Store(eng)
		c.slots = append(c.slots, s)
	}
	if cfg.metrics != nil {
		c.RegisterMetrics(cfg.metrics)
	}
	c.healthWG.Add(1)
	go c.healthLoop()
	return c, nil
}

// replicaConfig derives one slot's engine config: the slot's generation-
// stable counters, the shared frozen model, and no direct metrics
// registration (the cluster registers labeled series itself).
func (c *Cluster) replicaConfig(s *slot) config {
	cfg := c.cfg
	cfg.sharedStats = s.stats
	cfg.metrics = nil
	return cfg
}

// NumReplicas reports the replica count (fixed for the cluster's lifetime —
// replacements reuse slots).
func (c *Cluster) NumReplicas() int { return len(c.slots) }

// Precision reports the fleet's numeric path (uniform across replicas).
func (c *Cluster) Precision() Precision { return c.cfg.precision }

// acquire admits one request for drain accounting; ok=false after Close.
func (c *Cluster) acquire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.inflight.Add(1)
	return true
}

// Close stops the health monitor, waits for every accepted request to
// complete (graceful drain — zero accepted requests are lost), then closes
// all replicas. Subsequent submissions fail with ErrEngineClosed. Idempotent.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.healthDone)
	c.healthWG.Wait()
	c.inflight.Wait()
	for _, s := range c.slots {
		if e := s.engine(); e != nil {
			e.Close()
		}
		s.state.Store(slotClosed)
	}
	return nil
}

// Predict mirrors Engine.Predict across the fleet: the case key picks a home
// replica, whose table answers the request; a flight leader solves in the
// caller's goroutine and routes the solved field like any other (fallback,
// retries, hedging), bypassing the replicas' flow key space.
func (c *Cluster) Predict(ctx context.Context, gc *geometry.Case) (*core.Inference, error) {
	if !c.acquire() {
		return nil, fmt.Errorf("serve: cluster submit: %w", ErrEngineClosed)
	}
	defer c.inflight.Done()
	lr := gc.Build()
	id := caseIdent(lr)
	key := id.hash(c.seed)
	for {
		home := c.homeEngine(key)
		inf, err := home.predictCase(ctx, key, id, lr, func(ctx context.Context, lr *grid.Flow) (*core.Inference, error) {
			return c.do(ctx, key, lr, (*Engine).submit)
		})
		// The home replica was replaced between the lookup and the call:
		// its successor owns the key now.
		if errors.Is(err, ErrEngineClosed) && c.homeEngine(key) != home {
			continue
		}
		return inf, err
	}
}

// PredictFlow routes a solved LR flow field to its home replica (with
// load-aware fallback, retries, and optional hedging) and blocks until the
// result. Concurrent identical requests coalesce at the router: one replica
// submission, a private deep copy per caller.
func (c *Cluster) PredictFlow(ctx context.Context, lr *grid.Flow) (*core.Inference, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !c.acquire() {
		return nil, fmt.Errorf("serve: cluster submit: %w", ErrEngineClosed)
	}
	defer c.inflight.Done()

	start := time.Now()
	id := flowIdent(lr)
	key := id.hash(c.seed)
	inf, err, how := c.flights.do(ctx, key, &id, func() (*core.Inference, error) {
		return c.do(ctx, key, lr, (*Engine).PredictFlow)
	})
	if how == followed {
		end := time.Now()
		if sp := obs.SpanFromContext(ctx); sp.Recording() {
			// The follower's whole wall time is waiting on the leader's
			// in-flight result.
			sp.Child("flight_wait", start, end, obs.String("key", "flow"))
		}
		if err == nil {
			c.coalesced.Add(1)
			inf.Elapsed = end.Sub(start)
		}
	}
	return inf, err
}

// Stats snapshots the exact fleet aggregate: scalar counters sum and stage
// histograms merge bucket-wise across replicas, so the aggregate's means and
// tails are as faithful as a single engine's. Coalesced additionally counts
// router-level flights.
func (c *Cluster) Stats() EngineStats {
	s := EngineStats{
		Precision:   c.cfg.precision.String(),
		GemmKernel:  tensor.Gemm32KernelName(),
		CPUFeatures: cpu.Summary(),
	}
	var snaps stageSnaps
	for _, sl := range c.slots {
		sl.stats.addTo(&s, &snaps)
		if e := sl.engine(); e != nil {
			addCacheTo(&s, e.memo)
		}
	}
	s.Coalesced += c.coalesced.Load()
	finishStats(&s, &snaps)
	return s
}

// ReplicaStats is one replica slot's snapshot inside ClusterStats.
type ReplicaStats struct {
	Replica    int    `json:"replica"`
	Generation int    `json:"generation"`
	State      string `json:"state"`
	QueueLen   int    `json:"queue_len"`
	EngineStats
}

// ClusterStats is the fleet view: the aggregate, each replica's own
// counters, and the router's counters.
type ClusterStats struct {
	Aggregate EngineStats    `json:"aggregate"`
	Replicas  []ReplicaStats `json:"replicas"`

	Ejections uint64 `json:"ejections"`  // replicas ejected and replaced
	Hedges    uint64 `json:"hedges"`     // hedged second attempts launched
	HedgeWins uint64 `json:"hedge_wins"` // hedges that answered first
	Fallbacks uint64 `json:"fallbacks"`  // load-aware reroutes off a hot home
	Retries   uint64 `json:"retries"`    // reroutes after retriable failures
	Coalesced uint64 `json:"coalesced"`  // router-level single-flight followers
}

// ClusterStats snapshots the per-replica and router counters.
func (c *Cluster) ClusterStats() ClusterStats {
	cs := ClusterStats{
		Aggregate: c.Stats(),
		Ejections: c.ejections.Load(),
		Hedges:    c.hedges.Load(),
		HedgeWins: c.hedgeWins.Load(),
		Fallbacks: c.fallbacks.Load(),
		Retries:   c.retries.Load(),
		Coalesced: c.coalesced.Load(),
	}
	for _, s := range c.slots {
		rs := ReplicaStats{
			Replica:    s.index,
			Generation: int(s.generation.Load()),
			State:      s.stateName(),
		}
		if e := s.engine(); e != nil {
			rs.QueueLen = e.queueLen()
			rs.EngineStats = e.Stats()
		}
		cs.Replicas = append(cs.Replicas, rs)
	}
	return cs
}

// InjectReplicaFault arms (or, with nil, disarms) the fault-injection hook
// on slot i's current replica — test and benchmark plumbing for exercising
// ejection, replacement, and zero-loss rerouting. A replacement replica
// starts with the hook disarmed.
func (c *Cluster) InjectReplicaFault(i int, fn func(*grid.Flow)) {
	if i < 0 || i >= len(c.slots) {
		return
	}
	if e := c.slots[i].engine(); e != nil {
		e.setInject(fn)
	}
}

// RegisterMetrics attaches every replica slot's series under the
// adarnet_serve_* names labeled replica="i" — counters stay monotonic across
// replacements because the slot, not the engine, owns them — plus the
// router's adarnet_cluster_* counters. Typically wired through WithMetrics.
func (c *Cluster) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, s := range c.slots {
		registerServeMetrics(reg, []string{"replica", strconv.Itoa(s.index)}, s.stats, s.engine)
	}
	reg.GaugeFunc("adarnet_cluster_replicas", "Configured replica slots.",
		func() float64 { return float64(len(c.slots)) })
	reg.GaugeFunc("adarnet_cluster_ready_replicas", "Replica slots currently routable.",
		func() float64 {
			n := 0
			for _, s := range c.slots {
				if s.ready() {
					n++
				}
			}
			return float64(n)
		})
	counter := func(name, help string, v *atomic.Uint64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("adarnet_cluster_ejections_total", "Replicas ejected from the ring and replaced.", &c.ejections)
	counter("adarnet_cluster_hedges_total", "Hedged second attempts launched.", &c.hedges)
	counter("adarnet_cluster_hedge_wins_total", "Hedged attempts that answered before the primary.", &c.hedgeWins)
	counter("adarnet_cluster_fallbacks_total", "Requests routed off a hot home replica.", &c.fallbacks)
	counter("adarnet_cluster_retries_total", "Requests rerouted after a retriable replica failure.", &c.retries)
	counter("adarnet_cluster_coalesced_total", "Followers served from a router-level single flight.", &c.coalesced)
}
