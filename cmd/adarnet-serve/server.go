package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/geometry"
	"adarnet/internal/jobs"
	"adarnet/internal/obs"
	"adarnet/internal/serve"
)

// predictor is the slice of *serve.Engine the HTTP layer uses; tests stub it
// to exercise request validation and error mapping without a trained model.
type predictor interface {
	Predict(ctx context.Context, c *geometry.Case) (*core.Inference, error)
	Stats() serve.EngineStats
	Health() serve.Health
}

// HTTP-boundary metrics, registered once on the process registry: every
// request through the middleware lands in the latency histogram, and 5xx
// responses get their own counter so an alert needs no log parsing.
var (
	httpRequests = obs.Default.Counter("adarnet_http_requests_total",
		"HTTP requests served (all routes through the access middleware).")
	httpServerErrors = obs.Default.Counter("adarnet_http_responses_5xx_total",
		"HTTP responses with a 5xx status.")
	httpLatency = obs.Default.Histogram("adarnet_http_request_seconds",
		"End-to-end HTTP request latency, including decode and encode.", 1e-9)
)

// serverConfig bounds what a request may cost before it reaches the engine.
// Every limit exists to convert a hostile or buggy input into a 4xx instead
// of an allocation, a stuck handler, or a worker panic.
type serverConfig struct {
	maxDim         int           // largest accepted grid H or W
	patchTile      int           // H and W must tile by the model's patch size
	maxBody        int64         // request-body byte cap
	requestTimeout time.Duration // per-request deadline (0 = client's only)
	logger         *slog.Logger  // structured access + error log (nil: silent)
	tracer         *obs.Tracer   // span tracer (nil: no span tracing)
	jobs           *jobs.Service // async E2E job service (nil: /jobs not served)
}

// validateTimeouts rejects a server configuration whose connection write
// deadline would fire before the per-request deadline: the handler's own
// timeout (a clean 408) must always win over the TCP-level cutoff (an
// aborted connection the client cannot distinguish from a crash).
func validateTimeouts(writeTimeout, requestTimeout time.Duration) error {
	if writeTimeout > 0 && requestTimeout > 0 && writeTimeout <= requestTimeout {
		return fmt.Errorf("-write-timeout (%v) must exceed -request-timeout (%v)", writeTimeout, requestTimeout)
	}
	return nil
}

type predictRequest struct {
	// Pointer fields distinguish "omitted → default" from an explicit
	// value, so explicit zero or negative dimensions are rejected instead
	// of silently replaced.
	Case string   `json:"case"` // channel | flatplate | cylinder | naca0012 | naca1412
	Re   *float64 `json:"re"`
	H    *int     `json:"h"`
	W    *int     `json:"w"`
}

type predictResponse struct {
	Case           string  `json:"case"`
	Levels         [][]int `json:"levels"` // refinement level per patch tile
	CompositeCells int     `json:"composite_cells"`
	UniformCells   int     `json:"uniform_cells"`
	ElapsedMs      float64 `json:"elapsed_ms"`
}

// buildCase validates the request against cfg's bounds and constructs the
// geometry. Every rejection is a client error (HTTP 400).
func buildCase(r predictRequest, cfg serverConfig) (*geometry.Case, error) {
	h, w, re := 16, 64, 2.5e3
	if r.H != nil {
		h = *r.H
	}
	if r.W != nil {
		w = *r.W
	}
	if r.Re != nil {
		re = *r.Re
	}
	for _, d := range [2]struct {
		name string
		v    int
	}{{"h", h}, {"w", w}} {
		if d.v < 1 || d.v > cfg.maxDim {
			return nil, fmt.Errorf("%s=%d out of range [1, %d]", d.name, d.v, cfg.maxDim)
		}
		if cfg.patchTile > 0 && d.v%cfg.patchTile != 0 {
			return nil, fmt.Errorf("%s=%d not a multiple of the model's patch size %d", d.name, d.v, cfg.patchTile)
		}
	}
	if math.IsNaN(re) || math.IsInf(re, 0) || re <= 0 || re > 1e9 {
		return nil, fmt.Errorf("re=%v out of range (0, 1e9]", re)
	}
	switch r.Case {
	case "channel", "":
		return geometry.ChannelCase(re, h, w), nil
	case "flatplate":
		return geometry.FlatPlateCase(re, h, w), nil
	case "cylinder":
		return geometry.CylinderCase(re, h, w), nil
	case "naca0012":
		return geometry.AirfoilCase("0012", re, h, w), nil
	case "naca1412":
		return geometry.AirfoilCase("1412", re, h, w), nil
	default:
		return nil, fmt.Errorf("unknown case %q", r.Case)
	}
}

// statusWriter captures the response status for the access log, the trace
// ring, and the 5xx counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach through to the underlying
// writer, so the SSE handler can flush and extend write deadlines.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// validRequestID reports whether a client-supplied X-Request-Id is safe to
// adopt: short and plain so it cannot smuggle log-injection payloads.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// withObs is the per-request observability middleware: it assigns (or
// adopts) a request ID, propagates it via context to every layer below —
// handler logs, engine panic logs, error paths — echoes it in the
// X-Request-Id response header, captures the status, and on completion
// emits one structured access-log line, ends the root span, and records the
// HTTP latency histogram. A panic escaping a handler is logged at ERROR with
// the request ID and a truncated stack, answered with a clean 500, and does
// not take down the listener. /healthz and /metrics are exempt from the
// access log and span tracing (probe and scrape noise), but panics there are
// still contained.
//
// With a tracer configured, each non-quiet request becomes the root span of
// a trace: an incoming W3C traceparent header is adopted (malformed or
// absent values silently start a fresh trace — trace context is telemetry,
// never a reason to reject a request), the serving layers below hang their
// stage spans off it via context, and the outgoing trace context is echoed
// in the traceparent response header so the caller can correlate. The root
// span records the request ID, status and error, so a retained trace joins
// its access-log line by request_id.
func withObs(next http.Handler, cfg serverConfig) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !validRequestID(id) {
			id = obs.NewRequestID()
		}
		ctx := obs.WithRequestID(r.Context(), id)
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}

		quiet := r.URL.Path == "/healthz" || r.URL.Path == "/metrics"
		var span *obs.Span
		if !quiet {
			ctx, span = cfg.tracer.StartRequest(ctx, r.Method+" "+r.URL.Path, r.Header.Get("traceparent"))
			if tp := span.Traceparent(); tp != "" {
				w.Header().Set("traceparent", tp)
			}
		}
		r = r.WithContext(ctx)

		start := time.Now()
		defer func() {
			end := time.Now()
			elapsed := end.Sub(start)
			if rec := recover(); rec != nil {
				buf := make([]byte, 4<<10)
				n := runtime.Stack(buf, false)
				if cfg.logger != nil {
					cfg.logger.Error("handler panic",
						"request_id", id, "trace_id", span.Trace().String(), "route", r.URL.Path,
						"panic", fmt.Sprint(rec), "stack", string(buf[:n]))
				}
				if sw.status == 0 {
					http.Error(sw, "internal error", http.StatusInternalServerError)
				}
			}
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			httpRequests.Inc()
			httpLatency.ObserveDuration(elapsed)
			if sw.status >= 500 {
				httpServerErrors.Inc()
			}
			if quiet {
				return
			}
			span.SetAttrs(obs.Int("status", int64(sw.status)), obs.String("request_id", id))
			if sw.status >= 500 {
				span.SetError(fmt.Errorf("http status %d", sw.status))
			}
			// Same clock read as the root span's end: the trace duration and
			// the access log's elapsed_ms describe the same interval.
			span.EndAt(end)
			if cfg.logger != nil {
				cfg.logger.Info("request",
					"request_id", id, "trace_id", span.Trace().String(),
					"method", r.Method, "route", r.URL.Path,
					"status", sw.status, "elapsed_ms", float64(elapsed.Microseconds())/1000)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// newMux wires the HTTP endpoints around a predictor, wrapped in the
// observability middleware. Handlers never trust the request: bodies are
// size-capped, unknown fields and out-of-bounds dimensions are 400s,
// methods are restricted, and an engine-internal panic (serve.ErrInternal)
// maps to a 500 whose detail stays in the server log — the listener itself
// is never at risk.
func newMux(p predictor, cfg serverConfig) http.Handler {
	logger := cfg.logger
	if logger == nil {
		// Handlers log unconditionally through this discard logger; the
		// middleware checks cfg.logger itself and skips the access log.
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Default.Handler())
	if cfg.jobs != nil {
		registerJobRoutes(mux, cfg.jobs, cfg, logger)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		// Readiness, not just liveness: engine state in the body, 503 once
		// the engine is closed so load balancers stop sending.
		h := p.Health()
		w.Header().Set("Content-Type", "application/json")
		if !h.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		if err := json.NewEncoder(w).Encode(h); err != nil {
			logger.Warn("healthz encode failed", "request_id", obs.RequestIDFrom(r.Context()), "err", err.Error())
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(p.Stats()); err != nil {
			logger.Warn("stats encode failed", "request_id", obs.RequestIDFrom(r.Context()), "err", err.Error())
		}
	})
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		reqID := obs.RequestIDFrom(r.Context())
		traceID := obs.SpanFromContext(r.Context()).Trace().String()
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, cfg.maxBody)
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		var req predictRequest
		if err := dec.Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, fmt.Sprintf("request body exceeds %d bytes", cfg.maxBody), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		c, err := buildCase(req, cfg)
		if err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}

		ctx := r.Context()
		if cfg.requestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.requestTimeout)
			defer cancel()
		}
		start := time.Now()
		inf, err := p.Predict(ctx, c)
		switch {
		case err == nil:
		case errors.Is(err, serve.ErrQueueFull):
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		case errors.Is(err, serve.ErrEngineClosed):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			http.Error(w, err.Error(), http.StatusRequestTimeout)
			return
		case errors.Is(err, serve.ErrInternal):
			// The contained panic: full detail (value + stack) goes to the
			// log; the client gets a clean 500 and the listener lives on.
			var pe *serve.PanicError
			if errors.As(err, &pe) {
				logger.Error("predict: contained panic",
					"request_id", reqID, "trace_id", traceID, "case", c.Name,
					"panic", fmt.Sprint(pe.Value), "stack", pe.Stack)
			} else {
				logger.Error("predict failed", "request_id", reqID, "trace_id", traceID, "case", c.Name, "err", err.Error())
			}
			http.Error(w, "internal error", http.StatusInternalServerError)
			return
		default:
			logger.Error("predict failed", "request_id", reqID, "trace_id", traceID, "case", c.Name, "err", err.Error())
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		levels := make([][]int, inf.Levels.NPy)
		for py := range levels {
			row := make([]int, inf.Levels.NPx)
			for px := range row {
				row[px] = inf.Levels.At(py, px)
			}
			levels[py] = row
		}
		w.Header().Set("Content-Type", "application/json")
		err = json.NewEncoder(w).Encode(predictResponse{
			Case:           c.Name,
			Levels:         levels,
			CompositeCells: inf.CompositeCells,
			UniformCells:   inf.Levels.UniformCells(),
			ElapsedMs:      float64(time.Since(start).Microseconds()) / 1000,
		})
		if err != nil {
			logger.Warn("predict encode failed", "request_id", reqID, "trace_id", traceID, "case", c.Name, "err", err.Error())
		}
	})
	return withObs(mux, cfg)
}
