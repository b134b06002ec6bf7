// Package obs is the repository's telemetry layer: stdlib-only metrics
// primitives (atomic counters and gauges, a lock-free log-linear latency
// histogram), a process-wide Registry with Prometheus text exposition and
// expvar publication, request-ID propagation through context, a span
// tracer with tail-based retention, and a pprof-enabled debug mux.
//
// Design constraints (DESIGN.md §10):
//
//   - Zero dependencies. The serving and training hot paths cannot afford a
//     metrics client library, and the container has none; everything here is
//     built on sync/atomic, math/bits, and net/http.
//   - Hot-path recording is wait-free and allocation-free: Counter.Add is
//     one atomic add, Histogram.Observe is a bit-twiddle plus two atomic
//     adds (see BenchmarkHistogramRecord; target ≤ ~50 ns/op, 0 allocs/op).
//   - Distributions, not means. EngineStats previously reported only mean
//     stage latencies; tail behavior (p99 queue wait, occupancy collapse,
//     retry storms) is exactly what averages hide, so the histogram is the
//     primary primitive and means are derived from its snapshots.
//
// Typical wiring: package-level metrics register themselves in Default at
// init; per-object metrics (an Engine's stage histograms) live on the object
// and are attached to a Registry explicitly, so tests can use a private
// Registry and binaries share Default.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64, safe for concurrent use.
// The zero value is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, safe for concurrent use.
// The zero value is ready to use and reads 0.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the current value
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (d may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
