package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	if !reflect.DeepEqual(predictColdRequests(7, 4), predictColdRequests(7, 4)) {
		t.Error("predict_cold: same seed gave different requests")
	}
	if reflect.DeepEqual(predictColdRequests(7, 4), predictColdRequests(8, 4)) {
		t.Error("predict_cold: different seeds gave the same requests")
	}
	if !reflect.DeepEqual(predictZipfRequests(7, 28), predictZipfRequests(7, 28)) {
		t.Error("predict_zipf: same seed gave different requests")
	}
	if reflect.DeepEqual(predictZipfRequests(7, 28), predictZipfRequests(8, 28)) {
		t.Error("predict_zipf: different seeds gave the same requests")
	}
	if !reflect.DeepEqual(inferFlowRefs(7, 5, 7), inferFlowRefs(7, 5, 7)) {
		t.Error("infer_flow: same seed gave different inputs")
	}
	if reflect.DeepEqual(inferFlowRefs(7, 5, 7), inferFlowRefs(8, 5, 7)) {
		t.Error("infer_flow: different seeds gave the same inputs")
	}
}

func TestPredictColdHasNoDuplicateAndWholeRounds(t *testing.T) {
	reqs := predictColdRequests(3, 6)
	if len(reqs) != 6*len(paperCases) {
		t.Fatalf("%d requests, want %d", len(reqs), 6*len(paperCases))
	}
	seen := map[string]bool{}
	perCase := map[string]int{}
	for _, p := range reqs {
		if seen[p.key()] {
			t.Errorf("duplicate request %s", p.key())
		}
		seen[p.key()] = true
		perCase[p.Case]++
	}
	if perCase["channel"] != 12 || perCase["flatplate"] != 12 || perCase["cylinder"] != 6 {
		t.Errorf("rounds are not whole: %v", perCase)
	}
}

func TestPredictZipfShape(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		const n = 105
		reqs := predictZipfRequests(seed, n)
		if len(reqs) != n {
			t.Fatalf("%d requests, want %d", len(reqs), n)
		}
		count := map[string]int{}
		for _, p := range reqs {
			count[p.key()]++
		}
		hot, repeats, top := 0, 0, 0
		for _, c := range count {
			if c > 1 {
				hot += c
				repeats += c - 1
			}
			top = max(top, c)
		}
		if share := float64(hot) / n; share < 0.78 || share > 0.82 {
			t.Errorf("seed %d: hot-set share %.3f, want ≈ 0.8", seed, share)
		}
		if repeats <= n/2 {
			t.Errorf("seed %d: %d repeats of %d requests; the median must be a repeat", seed, repeats, n)
		}
		// Zipf(s=1) over five ranks: rank 1 holds 1/H5 = 43.8 % of the hot draws.
		if want := 0.438 * 0.8 * n; float64(top) < want-2 || float64(top) > want+2 {
			t.Errorf("seed %d: rank 1 drawn %d times, want ≈ %.0f", seed, top, want)
		}
	}
}

func TestInferFlowRefsAreDistinct(t *testing.T) {
	seen := map[flowRef]bool{}
	for _, ref := range inferFlowRefs(1, 50, 7) {
		if seen[ref] {
			t.Fatalf("duplicate input %v", ref)
		}
		seen[ref] = true
		if d := ref.Factor - 1; d == 0 || d > 5e-4 || d < -5e-4 {
			t.Fatalf("perturbation %g outside ±0.05 %%", d)
		}
	}
}

func TestApportion(t *testing.T) {
	got := apportion(22, []float64{1, 1.0 / 2, 1.0 / 3, 1.0 / 4, 1.0 / 5})
	if want := []int{10, 5, 3, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("apportion = %v, want %v", got, want)
	}
}

func TestTailPicksHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to prove it sorts
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		value, pc float64
	}{
		{1050, 1040, 100 * 1040.0 / 1050}, // ≈ p99
		{105, 95, 100 * 95.0 / 105},       // ≈ p90
		{28, 18, 100 * 18.0 / 28},
		{22, 12, 100 * 12.0 / 22},
		{21, 21, 100}, // nothing above the median has ten beyond it: the maximum
		{2, 2, 100},
	} {
		v, pc := tail(seq(tc.n))
		if v != tc.value || pc != tc.pc {
			t.Errorf("tail of 1..%d = %v at p%.2f, want %v at p%.2f", tc.n, v, pc, tc.value, tc.pc)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if tc.n >= 22 && beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want 10", tc.n, beyond)
		}
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median([]float64{3, 1, 2}) != 2 {
		t.Error("median is wrong")
	}
}

func TestSpanSelfTime(t *testing.T) {
	us := func(n int64) int64 { return n * int64(time.Microsecond) }
	spans := []span{
		{Name: "predict.request", Req: 0, Parent: -1, StartNs: 0, EndNs: us(1000)},
		{Name: "geometry.build", Req: 0, Parent: 0, StartNs: us(10), EndNs: us(20)},
		{Name: "solver.lr_solve", Req: 0, Parent: 0, StartNs: us(20), EndNs: us(800)},
		{Name: "core.infer64", Req: 0, Parent: 0, StartNs: us(800), EndNs: us(1100)}, // overruns: clipped
		{Name: "tensor.gemm", Req: 0, Parent: 3, StartNs: us(850), EndNs: us(950)},
		{Name: "other.root", Req: 1, Parent: -1, StartNs: 0, EndNs: us(500)},
	}
	self := selfTimes(spans)
	want := []time.Duration{10 * time.Microsecond, 10 * time.Microsecond, 780 * time.Microsecond, 200 * time.Microsecond, 100 * time.Microsecond, 500 * time.Microsecond}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	byLayer, total, coverage := layerShares(spans, "predict.request")
	if total != time.Millisecond || coverage != 0.99 {
		t.Errorf("total %v coverage %v, want 1ms and 0.99", total, coverage)
	}
	if byLayer["solver"] != 780*time.Microsecond || byLayer["core"] != 200*time.Microsecond || byLayer["tensor"] != 100*time.Microsecond || byLayer["other"] != 0 {
		t.Errorf("layer shares %v", byLayer)
	}
	var nilTracer *tracer
	nilTracer.do(0, -1, "x.y", func() {})
	if nilTracer.snapshot() != nil {
		t.Error("a nil tracer recorded a span")
	}
}

func TestBoundComparison(t *testing.T) {
	if w := worseBy(100, 110, true); w < 0.0999 || w > 0.1001 {
		t.Errorf("latency 100 → 110 is worse by %v, want 0.1", w)
	}
	if w := worseBy(100, 110, false); w > -0.0999 {
		t.Errorf("throughput 100 → 110 is worse by %v, want -0.1", w)
	}
	if !withinBound(100, 109, 0.1, true) || withinBound(100, 112, 0.1, true) || withinBound(112, 100, 0.1, true) {
		t.Error("withinBound(lower is better) is wrong")
	}
	if !withinBound(100, 92, 0.1, false) || withinBound(100, 88, 0.1, false) {
		t.Error("withinBound(higher is better) is wrong")
	}
	res := func(lat, iters float64) *result {
		return &result{Metrics: map[string]metricValue{"latency_p50_ms": {lat, "ms"}, "solver.lr_iterations": {iters, "count"}}}
	}
	defs := []metricDef{{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}, {Name: "solver.lr_iterations", Better: "lower"}}
	if d := disagreements(defs, res(100, 13350), res(105, 13350)); len(d) != 0 {
		t.Errorf("unexpected disagreements %v", d)
	}
	if d := disagreements(defs, res(100, 13350), res(120, 13375)); len(d) != 2 {
		t.Errorf("want a bound and a count disagreement, got %v", d)
	}
}

func TestPredictBodyValid(t *testing.T) {
	levels := make([][]int, 4)
	for i := range levels {
		levels[i] = make([]int, 16)
	}
	levels[1][3], levels[2][5] = 2, 1
	b := predictBody{Levels: levels, CompositeCells: 62*16 + 16*16 + 16*4}
	if err := b.valid(); err != nil {
		t.Error(err)
	}
	b.CompositeCells++
	if b.valid() == nil {
		t.Error("wrong composite_cells accepted")
	}
	levels[0][0] = 3
	if b.valid() == nil {
		t.Error("level 3 accepted")
	}
}

// BENCHMARK.json must name this program's workloads and the metrics the
// self-check treats specially.
func TestManifest(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	hasSetup := false
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, name := range countMetrics {
		if !slices.ContainsFunc(man.PerLayer, func(d metricDef) bool { return d.Name == name && d.Unit == "count" }) {
			t.Errorf("count metric %s is not a per-layer metric of BENCHMARK.json", name)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &names); err != nil {
		t.Fatal(err)
	}
	if len(names.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in main.go", len(names.Workloads), len(workloads))
	}
	for i, w := range names.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in main.go", i, w.Name, workloads[i].name)
		}
	}
	// A metric name BENCHMARK.json does not list is a bug: set panics.
	defer func() {
		if recover() == nil {
			t.Error("setting an unlisted metric did not panic")
		}
	}()
	(&run{o: options{man: man}, values: map[string]float64{}}).set("no.such_metric", 1)
}
