package serve

import (
	"context"

	"adarnet/internal/core"
	"adarnet/internal/geometry"
	"adarnet/internal/grid"
)

// Predictor is the single serving abstraction: the contract shared by Engine
// (one batched pipeline) and Cluster (a replicated fleet behind a shard-aware
// router). Callers — the HTTP server, the benchmark harness, the façade —
// hold a Predictor and never depend on which shape is serving.
type Predictor interface {
	// Predict builds the case's LR grid, runs the physics solve, and submits
	// the field for batched inference.
	Predict(ctx context.Context, c *geometry.Case) (*core.Inference, error)
	// PredictFlow submits an already-solved LR flow field.
	PredictFlow(ctx context.Context, lr *grid.Flow) (*core.Inference, error)
	// Stats snapshots the serving counters — for a Cluster, the exact
	// aggregate across replicas (scalars sum, histograms merge bucket-wise).
	Stats() EngineStats
	// Health reports readiness per replica; Ready is false only when zero
	// replicas are routable.
	Health() Health
	// Close drains in-flight work and stops serving. Idempotent.
	Close() error
}

// Compile-time contract checks: both serving shapes satisfy Predictor.
var (
	_ Predictor = (*Engine)(nil)
	_ Predictor = (*Cluster)(nil)
)

// Replica states reported by Health.
const (
	// StateReady: in the ring and accepting requests.
	StateReady = "ready"
	// StateDraining: ejected from the ring, finishing in-flight work while a
	// replacement spins up.
	StateDraining = "draining"
	// StateClosed: shut down (a closed Engine, or a Cluster after Close).
	StateClosed = "closed"
)

// Health is a point-in-time readiness report, JSON-shaped for /healthz. A
// standalone Engine reports itself as a single replica.
type Health struct {
	// Ready is true while at least one replica is routable.
	Ready bool `json:"ready"`
	// Replicas holds one entry per replica slot.
	Replicas []ReplicaHealth `json:"replicas"`
}

// ReplicaHealth describes one replica slot's routability and the signals the
// health monitor ejects on.
type ReplicaHealth struct {
	Replica int    `json:"replica"`
	State   string `json:"state"` // StateReady | StateDraining | StateClosed
	// Generation counts replica replacements in this slot (0 = original).
	Generation int `json:"generation"`
	// Panics is the slot's lifetime contained-panic count.
	Panics uint64 `json:"panics"`
	// QueueLen is the replica's current submission-queue depth — the
	// router's load signal.
	QueueLen int `json:"queue_len"`
	// P99E2EMs is the observed p99 submit→reply latency in milliseconds.
	P99E2EMs float64 `json:"p99_e2e_ms"`
}

// Health reports the engine as a single always-routable replica (until
// closed). Clusters derive richer per-slot reports from the same signals.
func (e *Engine) Health() Health {
	closed := e.isClosed()
	state := StateReady
	if closed {
		state = StateClosed
	}
	return Health{
		Ready: !closed,
		Replicas: []ReplicaHealth{{
			State:    state,
			Panics:   e.stats.panics.Load(),
			QueueLen: e.queueLen(),
			P99E2EMs: e.stats.e2e.Snapshot().Quantile(0.99) / 1e6,
		}},
	}
}
