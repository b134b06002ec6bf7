package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/geometry"
	"adarnet/internal/patch"
	"adarnet/internal/serve"
)

// stubPredictor lets the HTTP tests exercise validation and error mapping
// without a trained model or a live engine.
type stubPredictor struct {
	inf     *core.Inference
	err     error
	block   bool // wait for ctx cancellation instead of answering
	unready bool // report a closed engine from Health
	gotCase *geometry.Case
}

func (s *stubPredictor) Predict(ctx context.Context, c *geometry.Case) (*core.Inference, error) {
	s.gotCase = c
	if s.block {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.inf, nil
}

func (s *stubPredictor) Stats() serve.EngineStats { return serve.EngineStats{Panics: 2} }

func (s *stubPredictor) Health() serve.Health {
	if s.unready {
		return serve.Health{State: serve.StateClosed}
	}
	return serve.Health{Ready: true, State: serve.StateReady}
}

func stubInference() *core.Inference {
	return &core.Inference{Levels: patch.NewMap(8, 16, 4, 4), CompositeCells: 123}
}

func testConfig() serverConfig {
	return serverConfig{maxDim: 64, patchTile: 4, maxBody: 1 << 10}
}

func postPredict(mux http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body))
	mux.ServeHTTP(rec, req)
	return rec
}

func TestPredictOK(t *testing.T) {
	stub := &stubPredictor{inf: stubInference()}
	mux := newMux(stub, testConfig())
	rec := postPredict(mux, `{"case":"cylinder","re":1e5,"h":8,"w":16}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %q", rec.Code, rec.Body)
	}
	var resp predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.CompositeCells != 123 {
		t.Errorf("composite cells = %d, want 123", resp.CompositeCells)
	}
	if stub.gotCase == nil || stub.gotCase.H != 8 || stub.gotCase.W != 16 {
		t.Errorf("engine saw case %+v, want 8x16", stub.gotCase)
	}
}

func TestPredictDefaults(t *testing.T) {
	stub := &stubPredictor{inf: stubInference()}
	mux := newMux(stub, testConfig())
	if rec := postPredict(mux, `{}`); rec.Code != http.StatusOK {
		t.Fatalf("omitted fields: status = %d, body %q", rec.Code, rec.Body)
	}
	if stub.gotCase.H != 16 || stub.gotCase.W != 64 || stub.gotCase.Re != 2.5e3 {
		t.Errorf("defaults not applied: got h=%d w=%d re=%v", stub.gotCase.H, stub.gotCase.W, stub.gotCase.Re)
	}
}

// TestPredictRejectsBadInput covers the request-hardening 400s: out-of-range
// and non-positive dimensions (no more silent default substitution),
// non-tiling dimensions, bad Reynolds numbers, unknown cases, unknown JSON
// fields, and malformed bodies.
func TestPredictRejectsBadInput(t *testing.T) {
	stub := &stubPredictor{inf: stubInference()}
	mux := newMux(stub, testConfig())
	for _, tc := range []struct{ name, body string }{
		{"h too large", `{"h":1000000,"w":16}`},
		{"w too large", `{"h":8,"w":1000000}`},
		{"h zero", `{"h":0}`},
		{"h negative", `{"h":-8}`},
		{"w negative", `{"w":-16}`},
		{"h not tiled by patch", `{"h":6}`},
		{"re negative", `{"re":-10}`},
		{"re zero", `{"re":0}`},
		{"re absurd", `{"re":1e300}`},
		{"unknown case", `{"case":"warpdrive"}`},
		{"unknown field", `{"case":"channel","hh":8}`},
		{"malformed json", `{"case":`},
		{"wrong type", `{"h":"big"}`},
	} {
		stub.gotCase = nil
		rec := postPredict(mux, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %q)", tc.name, rec.Code, rec.Body)
		}
		if stub.gotCase != nil {
			t.Errorf("%s: invalid request reached the engine", tc.name)
		}
	}
}

func TestPredictBodyTooLarge(t *testing.T) {
	cfg := testConfig()
	mux := newMux(&stubPredictor{inf: stubInference()}, cfg)
	big := `{"case":"` + strings.Repeat("x", int(cfg.maxBody)) + `"}`
	if rec := postPredict(mux, big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413", rec.Code)
	}
}

func TestMethodRestrictions(t *testing.T) {
	mux := newMux(&stubPredictor{inf: stubInference()}, testConfig())
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/predict"},
		{http.MethodPost, "/stats"},
		{http.MethodDelete, "/stats"},
		{http.MethodPost, "/healthz"},
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", tc.method, tc.path, rec.Code)
		}
	}
}

// TestInternalErrorMapping checks the contained-panic path end to end at the
// HTTP layer: serve.ErrInternal maps to a clean 500 (panic value and stack
// stay in the server log, not the response) and the listener keeps
// answering /healthz with 200.
func TestInternalErrorMapping(t *testing.T) {
	pe := fmt.Errorf("serve: batch: %w",
		&serve.PanicError{Value: "index out of range", Stack: "goroutine 7 [running]: secret frames"})
	var logged bytes.Buffer
	cfg := testConfig()
	cfg.logger = slog.New(slog.NewTextHandler(&logged, nil))
	mux := newMux(&stubPredictor{err: pe}, cfg)

	rec := postPredict(mux, `{"case":"channel"}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); strings.Contains(body, "secret frames") || strings.Contains(body, "index out of range") {
		t.Errorf("response leaked panic detail: %q", body)
	}
	if !strings.Contains(logged.String(), "secret frames") {
		t.Errorf("server log missing the stack: %q", logged.String())
	}

	health := httptest.NewRecorder()
	mux.ServeHTTP(health, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if health.Code != http.StatusOK {
		t.Fatalf("/healthz after internal error: status = %d, want 200", health.Code)
	}
}

func TestOverloadAndShutdownMapping(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("serve: submit: %w", serve.ErrQueueFull), http.StatusTooManyRequests},
		{fmt.Errorf("serve: submit: %w", serve.ErrEngineClosed), http.StatusServiceUnavailable},
	} {
		mux := newMux(&stubPredictor{err: tc.err}, testConfig())
		if rec := postPredict(mux, `{}`); rec.Code != tc.want {
			t.Errorf("%v: status = %d, want %d", tc.err, rec.Code, tc.want)
		}
	}
}

// TestRequestDeadline checks the server-side per-request timeout: a stuck
// engine call is cut off and reported as 408, not held forever.
func TestRequestDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.requestTimeout = 20 * time.Millisecond
	mux := newMux(&stubPredictor{block: true}, cfg)
	start := time.Now()
	rec := postPredict(mux, `{}`)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408", rec.Code)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline did not cut the request off promptly")
	}
}

// TestHealthzReadiness checks that /healthz reports the engine state as
// JSON and flips to 503 the moment the engine is closed, so load balancers
// stop sending traffic to a draining or dead process.
func TestHealthzReadiness(t *testing.T) {
	getHealthz := func(stub *stubPredictor) *httptest.ResponseRecorder {
		mux := newMux(stub, testConfig())
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rec
	}

	rec := getHealthz(&stubPredictor{inf: stubInference()})
	if rec.Code != http.StatusOK {
		t.Fatalf("ready predictor: status = %d, want 200 (body %q)", rec.Code, rec.Body)
	}
	var h serve.Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz body is not JSON: %v (body %q)", err, rec.Body)
	}
	if !h.Ready || h.State != serve.StateReady {
		t.Errorf("healthz body = %+v, want ready", h)
	}

	rec = getHealthz(&stubPredictor{inf: stubInference(), unready: true})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unready predictor: status = %d, want 503 (body %q)", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("unready healthz body is not JSON: %v (body %q)", err, rec.Body)
	}
	if h.Ready || h.State != serve.StateClosed {
		t.Errorf("unready healthz body = %+v, want not ready and closed", h)
	}
}

func TestStatsEndpoint(t *testing.T) {
	mux := newMux(&stubPredictor{inf: stubInference()}, testConfig())
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var s serve.EngineStats
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Panics != 2 {
		t.Errorf("stats panics = %d, want 2 (the Panics counter must survive JSON)", s.Panics)
	}
}
