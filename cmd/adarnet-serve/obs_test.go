package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adarnet/internal/obs"
)

// rootSpan returns the root span of the one retained trace whose context
// the response's traceparent header names.
func rootSpan(t *testing.T, tracer *obs.Tracer, rec *httptest.ResponseRecorder) obs.SpanView {
	t.Helper()
	trace, _, _, ok := obs.ParseTraceparent(rec.Header().Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q not well-formed", rec.Header().Get("traceparent"))
	}
	recs := tracer.Trace(trace.String())
	if len(recs) != 1 {
		t.Fatalf("trace %s: %d retained records, want 1", trace, len(recs))
	}
	return recs[0].Spans[0]
}

// TestRequestIDInLogAndTrace is the observability integration test: one
// request through the full middleware + handler stack must carry the same
// request ID in the X-Request-Id response header, the structured access-log
// line, and the request_id attribute of its retained trace's root span.
func TestRequestIDInLogAndTrace(t *testing.T) {
	var logged bytes.Buffer
	cfg := traceConfig()
	cfg.logger = slog.New(slog.NewJSONHandler(&logged, nil))
	mux := newMux(&stubPredictor{inf: stubInference()}, cfg)

	rec := postPredict(mux, `{"case":"channel"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %q", rec.Code, rec.Body)
	}
	id := rec.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("response missing X-Request-Id")
	}

	// The access-log line carries the same ID, as structured JSON.
	var line struct {
		Msg       string  `json:"msg"`
		RequestID string  `json:"request_id"`
		Route     string  `json:"route"`
		Status    int     `json:"status"`
		ElapsedMs float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(logged.Bytes(), &line); err != nil {
		t.Fatalf("access log is not one JSON line: %v (%q)", err, logged.String())
	}
	if line.Msg != "request" || line.RequestID != id || line.Route != "/predict" || line.Status != 200 {
		t.Errorf("access log = %+v, want msg=request request_id=%s route=/predict status=200", line, id)
	}

	// The retained trace's root span carries the same ID and status, so
	// the trace joins its access-log line by request_id.
	root := rootSpan(t, cfg.tracer, rec)
	if root.Name != "POST /predict" || root.Attrs["request_id"] != id || root.Attrs["status"] != int64(200) {
		t.Errorf("root span = %+v, want POST /predict with request_id=%s status=200", root, id)
	}
}

// TestClientRequestIDAdopted checks that a well-formed client X-Request-Id
// is adopted end to end, and a hostile one is replaced.
func TestClientRequestIDAdopted(t *testing.T) {
	var logged bytes.Buffer
	cfg := traceConfig()
	cfg.logger = slog.New(slog.NewTextHandler(&logged, nil))
	mux := newMux(&stubPredictor{inf: stubInference()}, cfg)

	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{}`))
	req.Header.Set("X-Request-Id", "client-abc.123")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "client-abc.123" {
		t.Errorf("well-formed client ID not adopted: header = %q", got)
	}
	if got := rootSpan(t, cfg.tracer, rec).Attrs["request_id"]; got != "client-abc.123" {
		t.Errorf("root span request_id = %v, want the adopted ID", got)
	}
	if !strings.Contains(logged.String(), "request_id=client-abc.123") {
		t.Errorf("access log missing adopted ID: %q", logged.String())
	}

	req = httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{}`))
	req.Header.Set("X-Request-Id", "evil\nid=injected")
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got == "" || strings.Contains(got, "\n") {
		t.Errorf("hostile ID not replaced: header = %q", got)
	}
}

// TestQuietRoutes checks that /healthz and /metrics stay out of the access
// log and start no trace (probe and scrape noise) while /stats is traced.
func TestQuietRoutes(t *testing.T) {
	var logged bytes.Buffer
	cfg := traceConfig()
	cfg.logger = slog.New(slog.NewTextHandler(&logged, nil))
	mux := newMux(&stubPredictor{inf: stubInference()}, cfg)

	for _, path := range []string{"/healthz", "/metrics", "/stats"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status = %d", path, rec.Code)
		}
	}
	if got := cfg.tracer.Stats().Started; got != 1 {
		t.Errorf("%d traces started, want only /stats", got)
	}
	if sums := cfg.tracer.Traces(0, false, 0); len(sums) != 1 || sums[0].Root != "GET /stats" {
		t.Errorf("retained traces = %+v, want only GET /stats", sums)
	}
	if log := logged.String(); strings.Contains(log, "/healthz") || strings.Contains(log, "route=/metrics") {
		t.Errorf("quiet routes leaked into the access log: %q", log)
	}
}

// TestMetricsEndpointServesEngineStats checks the /metrics route on the
// serving mux renders valid Prometheus text including the process metrics.
func TestMetricsEndpointServesEngineStats(t *testing.T) {
	mux := newMux(&stubPredictor{inf: stubInference()}, testConfig())
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE adarnet_http_requests_total counter",
		"# TYPE adarnet_http_request_seconds histogram",
		`adarnet_http_request_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHandlerPanicLoggedWithRequestID checks the last line of defense: a
// panic escaping a handler is answered with a 500 carrying the request ID
// header, logged at ERROR with the same ID and a stack, and retained as an
// error trace with status 500.
func TestHandlerPanicLoggedWithRequestID(t *testing.T) {
	var logged bytes.Buffer
	cfg := traceConfig()
	// Huge sampling: only the error rule can retain this trace.
	cfg.tracer = obs.NewTracer(obs.TracerConfig{SampleEvery: 1 << 60})
	cfg.logger = slog.New(slog.NewTextHandler(&logged, nil))

	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	h := withObs(inner, cfg)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{}`)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	id := rec.Header().Get("X-Request-Id")
	log := logged.String()
	if !strings.Contains(log, "handler exploded") || !strings.Contains(log, "level=ERROR") {
		t.Errorf("panic not logged at ERROR: %q", log)
	}
	if id == "" || !strings.Contains(log, id) {
		t.Errorf("panic log missing request ID %q: %q", id, log)
	}
	trace, _, _, _ := obs.ParseTraceparent(rec.Header().Get("traceparent"))
	recs := cfg.tracer.Trace(trace.String())
	if len(recs) != 1 || recs[0].Kept != "error" {
		t.Fatalf("panicked request not retained as an error trace: %+v", recs)
	}
	if root := recs[0].Spans[0]; root.Attrs["status"] != int64(500) || root.Attrs["request_id"] != id {
		t.Errorf("root span attrs = %v, want status=500 request_id=%s", root.Attrs, id)
	}
}
