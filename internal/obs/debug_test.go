package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestDebugMux checks every route the opt-in debug listener exposes:
// the scrape endpoint, expvar and pprof's index.
func TestDebugMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("debug_test_total", "").Inc()

	srv := httptest.NewServer(DebugMux(reg, nil))
	defer srv.Close()
	get := func(path string) (*http.Response, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp, string(body)
	}

	if resp, body := get("/metrics"); resp.StatusCode != 200 || !strings.Contains(body, "debug_test_total 1") {
		t.Errorf("/metrics: status=%d body=%q", resp.StatusCode, body)
	}
	if resp, body := get("/debug/vars"); resp.StatusCode != 200 || !strings.Contains(body, "adarnet") {
		t.Errorf("/debug/vars: status=%d missing adarnet map (body %q)", resp.StatusCode, body)
	}
	// The last-N request route is gone: retained span traces are the one
	// request record.
	if resp, _ := get("/debug/requests"); resp.StatusCode != 404 {
		t.Errorf("removed request-ring route: status=%d, want 404", resp.StatusCode)
	}
	if resp, body := get("/debug/pprof/"); resp.StatusCode != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: status=%d, index should list profiles", resp.StatusCode)
	}
	// No tracer wired: the span-trace routes 404.
	if resp, _ := get("/debug/traces"); resp.StatusCode != 404 {
		t.Errorf("/debug/traces without tracer: status=%d, want 404", resp.StatusCode)
	}
}

// TestDebugTraces exercises the span-trace endpoints: the filtered summary
// list, the single-trace timeline, and the 4xx responses for bad query
// parameters and unknown IDs.
func TestDebugTraces(t *testing.T) {
	tracer := NewTracer(TracerConfig{SampleEvery: 1})
	_, fast := tracer.StartRequest(context.Background(), "POST /predict", "")
	fast.StartChild("engine").End()
	fast.EndAt(fast.start.Add(2 * time.Millisecond))
	_, slow := tracer.StartRequest(context.Background(), "POST /jobs", "")
	slow.EndAt(slow.start.Add(400 * time.Millisecond))

	srv := httptest.NewServer(DebugMux(nil, tracer))
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	status, body := get("/debug/traces")
	if status != 200 {
		t.Fatalf("/debug/traces: status=%d", status)
	}
	var sums []TraceSummary
	if err := json.Unmarshal([]byte(body), &sums); err != nil {
		t.Fatalf("/debug/traces: not JSON: %v (body %q)", err, body)
	}
	if len(sums) != 2 || sums[0].Root != "POST /jobs" || sums[1].Root != "POST /predict" {
		t.Fatalf("/debug/traces = %+v, want both traces newest first", sums)
	}

	if status, body := get("/debug/traces?min_ms=100"); status != 200 || strings.Contains(body, "/predict") {
		t.Errorf("min_ms filter: status=%d body=%q", status, body)
	}
	if status, _ := get("/debug/traces?min_ms=nope"); status != 400 {
		t.Errorf("bad min_ms: status=%d, want 400", status)
	}
	if status, _ := get("/debug/traces?limit=0"); status != 400 {
		t.Errorf("bad limit: status=%d, want 400", status)
	}
	if status, body := get("/debug/traces?err=1"); status != 200 || strings.TrimSpace(body) != "[]" {
		t.Errorf("err filter with no errors: status=%d body=%q", status, body)
	}

	status, body = get("/debug/traces/" + fast.Trace().String())
	if status != 200 {
		t.Fatalf("single trace: status=%d", status)
	}
	var recs []TraceRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("single trace: not JSON: %v", err)
	}
	if len(recs) != 1 || len(recs[0].Spans) != 2 {
		t.Fatalf("single trace = %+v, want 1 record with 2 spans", recs)
	}
	if status, _ := get("/debug/traces/" + strings.Repeat("0", 32)); status != 404 {
		t.Errorf("unknown trace: status=%d, want 404", status)
	}
}
