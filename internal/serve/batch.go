package serve

import (
	"errors"
	"fmt"
	"time"

	"adarnet/internal/autodiff"
	"adarnet/internal/core"
	"adarnet/internal/grid"
	"adarnet/internal/obs"
	"adarnet/internal/tensor"
)

// runGroup runs one same-shape group through the batched forward pass inside
// a panic boundary. A panic poisons the whole batched pass — there is no way
// to tell which sample tripped it — so on failure the group degrades
// gracefully: every request that has not been answered yet is retried
// individually on a fresh tape. Batch-mates of a poisoned request therefore
// still succeed (bit-identical to direct inference, since a batch of one is
// the direct path), and only the request(s) whose own forward pass panics
// again receive ErrInternal.
func (e *Engine) runGroup(reqs []*request) {
	err := e.forwardGroup(reqs)
	if err == nil {
		return
	}
	e.logPanic("batched forward", err, reqs)
	if len(reqs) == 1 {
		e.fail(reqs[0], err)
		return
	}
	for _, req := range reqs {
		if req.replied {
			continue
		}
		e.stats.retried.Add(1)
		if rerr := e.forwardGroup([]*request{req}); rerr != nil {
			e.logPanic("individual retry", rerr, []*request{req})
			e.fail(req, rerr)
		}
	}
}

// logPanic emits a structured ERROR record for a contained panic, tagged
// with the request IDs the HTTP boundary propagated via context so the log
// line joins the per-request access log and the request's retained trace.
// Silent when the engine has no logger.
func (e *Engine) logPanic(stage string, err error, reqs []*request) {
	if e.logger == nil {
		return
	}
	ids := make([]string, 0, len(reqs))
	for _, req := range reqs {
		if id := obs.RequestIDFrom(req.ctx); id != "" {
			ids = append(ids, id)
		}
	}
	attrs := []any{"stage", stage, "request_ids", ids}
	var pe *PanicError
	if errors.As(err, &pe) {
		attrs = append(attrs, "panic", fmt.Sprint(pe.Value), "stack", pe.Stack)
	} else {
		attrs = append(attrs, "err", err.Error())
	}
	e.logger.Error("serve: contained panic", attrs...)
}

// forwardGroup runs same-shape requests through one batched forward pass —
// the gradient-free tape by default, the frozen float32 fast path under
// WithPrecision(Float32) — and demultiplexes the assembled per-sample
// predictions to their callers. Identical requests never share a batch: the
// table in front of the queue (memo) lets one of them through. A panic
// anywhere inside is recovered into a *PanicError (wrapping ErrInternal) for
// runGroup to handle; the tape's pooled buffers are abandoned to the GC on
// that path — a panic is rare enough that leaking one tape's working set
// beats trying to free state of unknown integrity.
//
// Inference.MemoryBytes is zero on this path: the peak-allocation counter is
// process-global and several workers share it, so the figure is only
// meaningful for direct single-request core.Model inference.
func (e *Engine) forwardGroup(reqs []*request) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e.stats.panics.Add(1)
			err = newPanicError(r)
		}
	}()
	start := time.Now()
	var infs []*core.Inference
	if e.model32 != nil {
		infs = e.forwardGroup32(reqs, start)
	} else {
		infs = e.forwardGroup64(reqs, start)
	}
	for i, inf := range infs {
		e.reply(reqs[i], inf)
	}
	return nil
}

// forwardGroup32 is the batched fast path: one frozen float32 pass over the
// group. BeginBatch (normalize + network) is timed as the forward
// stage and Finish (cap + assemble + invert) as the assemble stage, so the
// stage histograms stay comparable across precisions.
func (e *Engine) forwardGroup32(reqs []*request, start time.Time) []*core.Inference {
	flows := make([]*grid.Flow, len(reqs))
	inject := e.inject.Load()
	for i, req := range reqs {
		if inject != nil {
			(*inject)(req.flow)
		}
		flows[i] = req.flow
	}
	batch := e.model32.BeginBatch(flows)
	forwardDone := time.Now()
	e.stats.forward.ObserveDuration(forwardDone.Sub(start))
	infs := batch.Finish(e.cfg.levelCap)
	assembleDone := time.Now()
	e.stats.assemble.ObserveDuration(assembleDone.Sub(forwardDone))
	e.recordStageSpans(reqs, start, forwardDone, assembleDone)
	for _, inf := range infs {
		inf.Elapsed = time.Since(start)
	}
	return infs
}

// recordStageSpans attaches forward/assemble child spans to every traced
// request of a batch group, from the exact clock reads the stage histograms
// observed — span durations and histogram samples are identical by
// construction. The histograms record once per group; each traced request
// in the group gets its own copy of the group's stage spans.
func (e *Engine) recordStageSpans(reqs []*request, start, forwardDone, assembleDone time.Time) {
	fwd := forwardDone.Sub(start).Nanoseconds()
	asm := assembleDone.Sub(forwardDone).Nanoseconds()
	group := int64(len(reqs))
	for _, req := range reqs {
		if req.span == nil {
			continue
		}
		e.stats.forwardEx.Observe(fwd, req.span.Trace())
		e.stats.assembleEx.Observe(asm, req.span.Trace())
		req.span.Child("forward", start, forwardDone, obs.Int("group", group))
		req.span.Child("assemble", forwardDone, assembleDone)
	}
}

// forwardGroup64 is the default full-precision tape path.
func (e *Engine) forwardGroup64(reqs []*request, start time.Time) []*core.Inference {
	m := e.model
	b := len(reqs)
	h, w := reqs[0].flow.H, reqs[0].flow.W
	per := h * w * grid.NumChannels

	t := autodiff.NewInferTape()
	stacked := tensor.NewPooled(b, h, w, grid.NumChannels)
	sd := stacked.Data()
	inject := e.inject.Load()
	for i, req := range reqs {
		if inject != nil {
			(*inject)(req.flow)
		}
		raw := grid.ToTensor(req.flow)
		norm := m.Norm.Apply(raw)
		copy(sd[i*per:(i+1)*per], norm.Data())
		tensor.Recycle(raw)
		tensor.Recycle(norm)
	}
	t.Scratch(stacked) // const leaves aren't freed by the tape

	results := m.ForwardBatch(t, t.Const(stacked))
	forwardDone := time.Now()
	e.stats.forward.ObserveDuration(forwardDone.Sub(start))

	infs := make([]*core.Inference, b)
	for i, res := range results {
		core.CapLevels(t, res, e.cfg.levelCap)
		assembled := core.AssembleUniform(res, m.Cfg)
		field := m.Norm.Invert(assembled)
		tensor.Recycle(assembled)
		infs[i] = &core.Inference{
			Levels:         res.Levels,
			Field:          field,
			CompositeCells: res.Levels.CompositeCells(),
			Elapsed:        time.Since(start),
		}
	}
	t.Free()
	assembleDone := time.Now()
	e.stats.assemble.ObserveDuration(assembleDone.Sub(forwardDone))
	e.recordStageSpans(reqs, start, forwardDone, assembleDone)
	return infs
}

// reply delivers a result and fail delivers an error; both are no-ops for a
// request that was already answered, so the post-panic retry path cannot
// double-send on the buffered(1) done channel. The engine span ends before
// the done send: once the caller unblocks it may end the trace's root span,
// and every span of this request must already be buffered by then.
func (e *Engine) reply(req *request, inf *core.Inference) {
	if req.replied {
		return
	}
	req.replied = true
	e.stats.completed.Add(1)
	end := time.Now()
	d := end.Sub(req.enqueued)
	e.stats.e2e.ObserveDuration(d)
	if req.span != nil {
		// Same clock reads as the e2e observation: the engine span's
		// duration is the histogram's sample.
		e.stats.e2eEx.Observe(d.Nanoseconds(), req.span.Trace())
		req.span.EndAt(end)
	}
	req.done <- response{inf: inf}
}

func (e *Engine) fail(req *request, err error) {
	if req.replied {
		return
	}
	req.replied = true
	if req.span != nil {
		req.span.SetError(err)
		req.span.End()
	}
	req.done <- response{err: err}
}
