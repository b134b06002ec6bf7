package serve

// Engine states reported by Health.
const (
	// StateReady: accepting requests.
	StateReady = "ready"
	// StateClosed: shut down by Close.
	StateClosed = "closed"
)

// Health is a point-in-time readiness report, JSON-shaped for /healthz.
type Health struct {
	// Ready is true until Close.
	Ready bool   `json:"ready"`
	State string `json:"state"` // StateReady | StateClosed
	// Panics is the engine's lifetime contained-panic count.
	Panics uint64 `json:"panics"`
	// QueueLen is the current submission-queue depth.
	QueueLen int `json:"queue_len"`
	// P99E2EMs is the observed p99 submit→reply latency in milliseconds.
	P99E2EMs float64 `json:"p99_e2e_ms"`
}

// Health reports the engine as ready until it is closed.
func (e *Engine) Health() Health {
	closed := e.isClosed()
	state := StateReady
	if closed {
		state = StateClosed
	}
	return Health{
		Ready:    !closed,
		State:    state,
		Panics:   e.stats.panics.Load(),
		QueueLen: len(e.queue),
		P99E2EMs: e.stats.e2e.Snapshot().Quantile(0.99) / 1e6,
	}
}
