// Command benchmark is the repo's end-to-end ledger: it trains a checkpoint,
// spawns the real adarnet-serve binary, drives POST /predict and POST /jobs
// over loopback and Engine.PredictFlow in process, checks the outputs, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced replay (--trace 1) named in BENCHMARK.json. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string
	serveBin string
	traceOut string
	man      manifest
}

// metricDef is one metric of BENCHMARK.json, the single list of what this
// program reports: names, units, directions and regression bounds.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// manifest is the part of BENCHMARK.json the program reads. End-to-end
// metrics are what a user of the system sees, reported by every workload
// with tracing off; per-layer metrics (layer = module name) come from the
// traced run, and a workload that does not exercise a layer reports 0 for
// it. README.md maps each to the end-to-end metric it should move.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// defs are the metrics a run with these options reports.
func (o options) defs() []metricDef {
	if o.trace {
		return o.man.PerLayer
	}
	return o.man.EndToEnd
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return m, fmt.Errorf("%s: no metrics", path)
	}
	return m, nil
}

// countMetrics repeat exactly between runs of one build and seed;
// -selfcheck fails on any difference.
var countMetrics = []string{
	"solver.lr_iterations", "solver.ps_iterations", "core.composite_cells", "amr.itc",
}

type workload struct {
	name string
	run  func(ctx context.Context, r *run, e *env) error
}

var workloads = []workload{
	{"predict_cold", runPredictCold},
	{"predict_zipf", runPredictZipf},
	{"infer_flow", runInferFlow},
	{"e2e_ttc", runE2ETTC},
}

// run collects what one workload run measured and checked.
type run struct {
	o      options
	tr     *tracer // nil with tracing off
	values map[string]float64

	attempted, failed int
}

// check counts one operation or correctness check; a failed one is logged.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "FAIL [%s] %s\n", r.o.workload, fmt.Sprintf(format, args...))
	}
	return ok
}

// set records a metric. A name BENCHMARK.json does not list is a bug here.
func (r *run) set(name string, v float64) {
	known := func(d metricDef) bool { return d.Name == name }
	if !slices.ContainsFunc(r.o.man.EndToEnd, known) && !slices.ContainsFunc(r.o.man.PerLayer, known) {
		panic("benchmark: metric " + name + " is not in BENCHMARK.json")
	}
	r.values[name] = v
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%s] %s\n", r.o.workload, fmt.Sprintf(format, args...))
}

// latencies records the three latency/throughput end-to-end metrics of a
// phase whose operations took latMs each, with `inFlight` closed-loop
// clients. Throughput is Little's law for a closed loop without think time,
// clients ÷ mean latency: the rate the clients sustain, free of the idle
// tail of the phase in which one client waits for the other's last request.
func (r *run) latencies(latMs []float64, inFlight int) {
	var sum float64
	for _, l := range latMs {
		sum += l
	}
	tailV, pct := tail(latMs)
	throughput := float64(inFlight) / (sum / float64(len(latMs)) / 1e3)
	r.set("latency_p50_ms", median(latMs))
	r.set("latency_tail_ms", tailV)
	r.set("throughput_per_s", throughput)
	r.logf("n=%d p50=%.3f ms tail(p%.1f)=%.3f ms throughput=%.4f/s at %d in flight",
		len(latMs), median(latMs), pct, tailV, throughput, inFlight)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setUps is how often an untraced run sets up; setup_s is the median.
const setUps = 3

func runWorkload(ctx context.Context, o options) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	r := &run{o: o, values: map[string]float64{}}
	k := setUps
	if o.trace {
		r.tr = newTracer()
		k = 1 // setup_s is an end-to-end metric; the traced run needs one environment
	}
	e, times, same, err := setUpRepeated(ctx, o.workDir, o.serveBin, k, r.tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	r.check(same, "checkpoints of %d set-ups hash differently", k)
	r.set("setup_s", median(times))
	r.set("dataset.generate_s", e.generateS)
	r.set("core.train_epoch_s", e.fitS/trainEpochs)
	r.set("core.train_samples_per_s", float64(e.trainSamples*trainEpochs)/e.fitS)
	r.logf("set-up ×%d: %.3f s each (generate %.3f s, fit %.3f s), checkpoint %s", k, median(times), e.generateS, e.fitS, e.ckptHash[:12])

	if err := w.run(ctx, r, e); err != nil {
		e.srv.dumpStderr()
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.failed > 0 {
		e.srv.dumpStderr()
	}
	if o.trace {
		out := o.traceOut
		if out == "" {
			out = filepath.Join(o.workDir, "trace-"+o.workload+".json")
		}
		if err := r.tr.write(out); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range o.defs() {
		res.Metrics[d.Name] = metricValue{r.values[d.Name], d.Unit}
	}
	return res, nil
}

func main() {
	var o options
	var trace int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "predict_cold | predict_zipf | infer_flow | e2e_ttc; empty runs all four, untraced then traced")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every random choice of the workload generators")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal length of the measured phase; fixes the request counts")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics from a traced replay")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "tmp"), "scratch directory (checkpoints, job journals, server stderr)")
	flag.StringVar(&o.serveBin, "serve-bin", "", "path of the built cmd/adarnet-serve binary")
	flag.StringVar(&o.traceOut, "trace-out", "", "span dump of a traced run (default <workdir>/trace-<workload>.json)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice, untraced and traced, and fail if the two disagree")
	flag.Parse()
	o.trace = trace != 0
	if o.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and there are no positional arguments")
		os.Exit(2)
	}

	var err error
	if o.man, err = loadManifest("BENCHMARK.json"); err != nil { // the driver runs from the checkout's root
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, o, selfcheck)
	stop()
	os.Exit(code)
}

// realMain returns the exit code, so that deferred clean-up (children
// stopped, scratch directories removed) has run before the process exits.
func realMain(ctx context.Context, o options, selfcheck bool) int {
	fmt.Fprintf(os.Stderr, "fingerprint: %s\n", fingerprint(o))
	if o.workload == "" || selfcheck {
		repeats := 1
		if selfcheck {
			repeats = 2
		}
		return runAll(ctx, o, repeats)
	}
	res, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, d := range o.defs() {
		fmt.Fprintf(os.Stderr, "  %-32s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
