package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the call. Name is "<layer>.<operation>"; spans of one
// replayed request share Req, and Parent is the index of the enclosing span
// (-1 for a request's root).
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the spans-off side of the overhead measurement and
// every untraced run execute the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) start(req, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, StartNs: now, EndNs: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(req, parent int, name string, fn func()) {
	id := t.start(req, parent, name)
	fn()
	t.end(id)
}

// add records a span whose bounds were observed elsewhere (a stage hook).
func (t *tracer) add(req, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover. Children are clipped to the parent's interval.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if hi > lo {
			self[s.Parent] -= time.Duration(hi - lo)
		}
	}
	return self
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerShares sums self time per layer over the spans under roots named
// rootName, and returns it with the roots' total duration and the share of
// that total which named child spans cover.
func layerShares(spans []span, rootName string) (byLayer map[string]time.Duration, total time.Duration, coverage float64) {
	self := selfTimes(spans)
	byLayer = map[string]time.Duration{}
	var uncovered time.Duration
	inTree := make([]bool, len(spans))
	for i, s := range spans {
		switch {
		case s.Parent < 0 && s.Name == rootName:
			inTree[i] = true
			total += s.dur()
			uncovered += self[i]
		case s.Parent >= 0 && s.Parent < i && inTree[s.Parent]:
			inTree[i] = true
			byLayer[layerOf(s.Name)] += self[i]
		}
	}
	if total > 0 {
		coverage = 1 - float64(uncovered)/float64(total)
	}
	return byLayer, total, coverage
}

// spanDurations returns the durations of every span with the given name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur().Nanoseconds()))
		}
	}
	return out
}
