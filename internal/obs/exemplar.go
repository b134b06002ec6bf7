package obs

import "sync/atomic"

// Exemplars attaches "which trace was that" to a Histogram: per bucket, the
// trace ID of the largest value observed there. Reading the highest
// populated bucket then answers "show me the slowest trace" directly from
// aggregate stats — the exemplar pattern, without a metrics-protocol
// dependency.
//
// Observe is wait-free (one load + occasional CAS) and returns immediately
// for a zero trace ID, so instrumented hot paths pay nothing when tracing
// is off. The zero value is ready to use.
type Exemplars struct {
	slots [NumBuckets]atomic.Pointer[Exemplar]
}

// Exemplar is one (value, trace) sample.
type Exemplar struct {
	Value int64   // recorded units (latency: nanoseconds)
	Trace TraceID // the trace that produced it
}

// Observe offers a sample. It keeps the per-bucket maximum; ties keep the
// incumbent. A zero trace ID is a no-op.
func (e *Exemplars) Observe(v int64, trace TraceID) {
	if trace.IsZero() {
		return
	}
	if v < 0 {
		v = 0
	}
	slot := &e.slots[bucketIndex(v)]
	for {
		old := slot.Load()
		if old != nil && old.Value >= v {
			return
		}
		if slot.CompareAndSwap(old, &Exemplar{Value: v, Trace: trace}) {
			return
		}
	}
}

// Slowest returns the exemplar from the highest populated bucket — the
// largest value the set has seen — or a zero Exemplar when none.
func (e *Exemplars) Slowest() Exemplar {
	for i := NumBuckets - 1; i >= 0; i-- {
		if ex := e.slots[i].Load(); ex != nil {
			return *ex
		}
	}
	return Exemplar{}
}
