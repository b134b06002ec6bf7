package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adarnet/internal/obs"
)

// traceConfig is testConfig plus a keep-everything tracer.
func traceConfig() serverConfig {
	cfg := testConfig()
	cfg.tracer = obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	return cfg
}

// TestTraceparentFreshRoot: a request without trace context gets a fresh
// trace — a well-formed traceparent response header whose trace ID lands in
// the access log and the retained trace, whose root span carries the
// request ID.
func TestTraceparentFreshRoot(t *testing.T) {
	var logged bytes.Buffer
	cfg := traceConfig()
	cfg.logger = slog.New(slog.NewJSONHandler(&logged, nil))
	mux := newMux(&stubPredictor{inf: stubInference()}, cfg)

	rec := postPredict(mux, `{"case":"channel"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %q", rec.Code, rec.Body)
	}
	tp := rec.Header().Get("traceparent")
	trace, _, sampled, ok := obs.ParseTraceparent(tp)
	if !ok || !sampled {
		t.Fatalf("response traceparent %q not well-formed and sampled", tp)
	}

	var line struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(logged.Bytes(), &line); err != nil {
		t.Fatalf("access log: %v (%q)", err, logged.String())
	}
	if line.TraceID != trace.String() {
		t.Errorf("access log trace_id = %q, want %q", line.TraceID, trace)
	}

	recs := cfg.tracer.Trace(trace.String())
	if len(recs) != 1 || recs[0].Root != "POST /predict" {
		t.Fatalf("retained trace = %+v", recs)
	}
	if got := recs[0].Spans[0].Attrs["status"]; got != int64(200) {
		t.Errorf("root status attr = %v, want 200", got)
	}
	if got, want := recs[0].Spans[0].Attrs["request_id"], rec.Header().Get("X-Request-Id"); got != want {
		t.Errorf("root request_id attr = %v, want %q", got, want)
	}
}

// TestTraceparentAdopted: a valid incoming traceparent is continued — same
// trace ID on the response, and the server's root span is remote-parented.
func TestTraceparentAdopted(t *testing.T) {
	cfg := traceConfig()
	mux := newMux(&stubPredictor{inf: stubInference()}, cfg)

	upTrace, upSpan := obs.NewTraceID(), obs.NewSpanID()
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"case":"channel"}`))
	req.Header.Set("traceparent", obs.FormatTraceparent(upTrace, upSpan, true))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %q", rec.Code, rec.Body)
	}

	gotTrace, gotSpan, _, ok := obs.ParseTraceparent(rec.Header().Get("traceparent"))
	if !ok || gotTrace != upTrace {
		t.Fatalf("trace not continued: response %q", rec.Header().Get("traceparent"))
	}
	if gotSpan == upSpan {
		t.Fatal("response span ID must be the server's own, not the parent's")
	}
	recs := cfg.tracer.Trace(upTrace.String())
	if len(recs) != 1 {
		t.Fatalf("retained %d records", len(recs))
	}
	root := recs[0].Spans[0]
	if !root.Remote || root.ParentID != upSpan.String() {
		t.Errorf("root span %+v, want remote with parent %s", root, upSpan)
	}
}

// TestTraceparentMalformedNeverRejects: malformed trace context silently
// starts a fresh trace — the request is served normally, never a 4xx.
func TestTraceparentMalformedNeverRejects(t *testing.T) {
	cfg := traceConfig()
	mux := newMux(&stubPredictor{inf: stubInference()}, cfg)
	for _, bad := range []string{
		"garbage",
		"00-00000000000000000000000000000000-0000000000000000-00",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
		strings.Repeat("0", 200),
	} {
		req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"case":"channel"}`))
		req.Header.Set("traceparent", bad)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("traceparent %q: status = %d, want 200", bad, rec.Code)
		}
		if _, _, _, ok := obs.ParseTraceparent(rec.Header().Get("traceparent")); !ok {
			t.Errorf("traceparent %q: response header %q not a fresh valid context", bad, rec.Header().Get("traceparent"))
		}
		if strings.Contains(rec.Header().Get("traceparent"), bad[:7]) && len(bad) > 10 {
			// Defensive: the malformed value must not be echoed back.
			t.Errorf("malformed traceparent %q echoed", bad)
		}
	}
}

// TestTracerOffNoHeader: with no tracer configured the middleware adds no
// traceparent header and requests still serve.
func TestTracerOffNoHeader(t *testing.T) {
	mux := newMux(&stubPredictor{inf: stubInference()}, testConfig())
	rec := postPredict(mux, `{"case":"channel"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := rec.Header().Get("traceparent"); got != "" {
		t.Errorf("traceparent header %q with tracing off", got)
	}
}

// TestQuietRoutesNotTraced: probe and scrape endpoints never start traces.
func TestQuietRoutesNotTraced(t *testing.T) {
	cfg := traceConfig()
	mux := newMux(&stubPredictor{inf: stubInference()}, cfg)
	for _, path := range []string{"/healthz", "/metrics"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		if got := rec.Header().Get("traceparent"); got != "" {
			t.Errorf("GET %s: traceparent %q on a quiet route", path, got)
		}
	}
	if got := cfg.tracer.Stats().Started; got != 0 {
		t.Errorf("quiet routes started %d traces", got)
	}
}

// TestErrorTraceRetainedWithStatus: a 5xx request is always retained with
// the error verdict and its status attribute.
func TestErrorTraceRetainedWithStatus(t *testing.T) {
	cfg := traceConfig()
	// Huge sampling: only the error rule can retain this trace.
	cfg.tracer = obs.NewTracer(obs.TracerConfig{SampleEvery: 1 << 60})
	mux := newMux(&stubPredictor{err: errors.New("stub blew up")}, cfg)
	rec := postPredict(mux, `{"case":"channel"}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	trace, _, _, _ := obs.ParseTraceparent(rec.Header().Get("traceparent"))
	recs := cfg.tracer.Trace(trace.String())
	if len(recs) != 1 || recs[0].Kept != "error" {
		t.Fatalf("error trace not retained: %+v", recs)
	}
	if got := recs[0].Spans[0].Attrs["status"]; got != int64(500) {
		t.Errorf("status attr = %v", got)
	}
}
