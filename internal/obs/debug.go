package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// DebugMux builds the opt-in diagnostics surface a binary exposes on its
// -debug-addr: the full net/http/pprof suite (CPU and heap profiles,
// goroutine dumps, execution traces), expvar, the Prometheus metrics of
// reg, and the retained span traces (when tracer is non-nil) — the one
// record of recent requests, each root span carrying its route, status,
// error and request_id.
//
// It is deliberately a separate mux on a separate listener: profiling
// endpoints can stall a goroutine for the length of a CPU profile and must
// never share a port (or an exposure decision) with the serving traffic.
//
// Endpoints:
//
//	/metrics              Prometheus text exposition of reg
//	/debug/vars           expvar JSON (includes the "adarnet" metric map)
//	/debug/traces         retained trace summaries, newest first
//	                      (?min_ms=N ?err=1 ?limit=N; 404 when no tracer)
//	/debug/traces/{id}    full span timeline(s) for one trace ID
//	/debug/pprof/...      index, profile, heap, goroutine, trace, symbol, cmdline
func DebugMux(reg *Registry, tracer *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	mux.Handle("/debug/vars", expvar.Handler())
	if tracer != nil {
		mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			var minDur time.Duration
			if v := q.Get("min_ms"); v != "" {
				ms, err := strconv.ParseFloat(v, 64)
				if err != nil || ms < 0 {
					http.Error(w, "min_ms: want a non-negative number", http.StatusBadRequest)
					return
				}
				minDur = time.Duration(ms * float64(time.Millisecond))
			}
			limit := 0
			if v := q.Get("limit"); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					http.Error(w, "limit: want a positive integer", http.StatusBadRequest)
					return
				}
				limit = n
			}
			errOnly := q.Get("err") == "1" || q.Get("err") == "true"
			writeDebugJSON(w, tracer.Traces(minDur, errOnly, limit))
		})
		mux.HandleFunc("GET /debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
			recs := tracer.Trace(r.PathValue("id"))
			if len(recs) == 0 {
				http.Error(w, "trace not retained", http.StatusNotFound)
				return
			}
			writeDebugJSON(w, recs)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeDebugJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Connection gone mid-encode; nothing to do.
		_ = err
	}
}
