package serve

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/geometry"
	"adarnet/internal/grid"
	"adarnet/internal/obs"
	"adarnet/internal/solver"
)

// sameInf fails the test unless two inferences are bit-identical.
func sameInf(t *testing.T, tag string, want, got *core.Inference) {
	t.Helper()
	if want.CompositeCells != got.CompositeCells {
		t.Fatalf("%s: composite cells %d != %d", tag, got.CompositeCells, want.CompositeCells)
	}
	for i, l := range want.Levels.Level {
		if got.Levels.Level[i] != l {
			t.Fatalf("%s: level[%d] = %d, want %d", tag, i, got.Levels.Level[i], l)
		}
	}
	wd, gd := want.Field.Data(), got.Field.Data()
	if len(wd) != len(gd) {
		t.Fatalf("%s: field length %d != %d", tag, len(gd), len(wd))
	}
	for i, v := range wd {
		if math.Float64bits(gd[i]) != math.Float64bits(v) {
			t.Fatalf("%s: field[%d] = %x, want %x", tag, i, math.Float64bits(gd[i]), math.Float64bits(v))
		}
	}
}

// TestCacheHitBitIdentical checks the cache's exactness contract on both
// precision paths: a hit is bit-identical to the miss that populated it (and
// therefore to direct inference), and a caller mutating its result cannot
// poison later hits (copy-on-read).
func TestCacheHitBitIdentical(t *testing.T) {
	for _, prec := range []Precision{Float64, Float32} {
		flows := testFlows(1, 8, 16)
		m := testModel(flows)
		e, err := New(m, WithPrecision(prec), WithCache(1<<20))
		if err != nil {
			t.Fatalf("%v: New: %v", prec, err)
		}

		miss, err := e.PredictFlow(context.Background(), flows[0])
		if err != nil {
			t.Fatalf("%v: miss predict: %v", prec, err)
		}
		// Vandalize the miss result: the cache must hold its own copies.
		miss.Field.Data()[0] = math.Inf(1)
		miss.Levels.Level[0] = 99

		hit, err := e.PredictFlow(context.Background(), flows[0])
		if err != nil {
			t.Fatalf("%v: hit predict: %v", prec, err)
		}
		var want *core.Inference
		if prec == Float32 {
			fm, ferr := core.NewModel32(m)
			if ferr != nil {
				t.Fatalf("freeze: %v", ferr)
			}
			want = fm.InferFlow(flows[0])
		} else {
			want = m.Infer(flows[0])
		}
		sameInf(t, prec.String()+" hit vs direct", want, hit)

		// Vandalize the hit too, then read again: still pristine.
		hit.Field.Data()[0] = math.NaN()
		hit2, err := e.PredictFlow(context.Background(), flows[0])
		if err != nil {
			t.Fatalf("%v: second hit: %v", prec, err)
		}
		sameInf(t, prec.String()+" hit after mutation", want, hit2)

		st := e.Stats()
		if st.CacheHits != 2 || st.CacheMisses != 1 {
			t.Fatalf("%v: hits=%d misses=%d, want 2/1", prec, st.CacheHits, st.CacheMisses)
		}
		if st.CacheBytes <= 0 || st.CacheEntries != 1 {
			t.Fatalf("%v: bytes=%d entries=%d", prec, st.CacheBytes, st.CacheEntries)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("%v: Close: %v", prec, err)
		}
		if st := e.Stats(); st.CacheBytes != 0 || st.CacheEntries != 0 {
			t.Fatalf("%v: cache not purged on close: bytes=%d entries=%d", prec, st.CacheBytes, st.CacheEntries)
		}
	}
}

// TestCacheEvictionAtBudget streams more distinct flows than the byte budget
// holds and checks the cache evicts rather than grows: resident bytes stay
// within budget and the eviction counter moves.
func TestCacheEvictionAtBudget(t *testing.T) {
	// Entries for an 8x16 flow run ~21 KiB (input snapshot + HR field +
	// levels); 1 MiB across 16 shards holds ~3 per shard, so 96 distinct
	// inserts must evict.
	const budget = 1 << 20
	flows := testFlows(96, 8, 16)
	m := testModel(flows)
	e, err := New(m, WithCache(budget))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()

	for _, f := range flows {
		if _, err := e.PredictFlow(context.Background(), f); err != nil {
			t.Fatalf("predict: %v", err)
		}
	}
	st := e.Stats()
	if st.CacheBytes > budget {
		t.Fatalf("resident bytes %d exceed budget %d", st.CacheBytes, budget)
	}
	if st.CacheEvicted == 0 {
		t.Fatalf("no evictions after %d distinct inserts into a %d-byte cache", len(flows), budget)
	}
	if st.CacheEntries <= 0 || st.CacheEntries >= int64(len(flows)) {
		t.Fatalf("entries = %d, want in (0, %d)", st.CacheEntries, len(flows))
	}
}

// TestCacheNegativeTTL drives the negative path at the unit level with an
// injected clock: a diverged input is served from the table until the TTL
// elapses, then expires back to a miss; negTTL=0 disables negative caching.
func TestCacheNegativeTTL(t *testing.T) {
	id := caseIdent(testFlows(1, 8, 16)[0])
	key := id.hash(fnvOffset)
	solves := 0
	diverge := func() (*core.Inference, error) {
		solves++
		return nil, solver.ErrDiverged
	}
	ask := func(m *memo) (error, outcome) {
		_, err, how := m.do(context.Background(), key, &id, diverge)
		return err, how
	}

	m := newMemo(1<<20, 50*time.Millisecond)
	base := time.Now()
	cur := base
	m.now = func() time.Time { return cur }

	if err, how := ask(m); how != led || !errors.Is(err, solver.ErrDiverged) {
		t.Fatalf("first request: outcome %v err %v, want a led divergence", how, err)
	}
	if err, how := ask(m); how != hit || !errors.Is(err, solver.ErrDiverged) || solves != 1 {
		t.Fatalf("live negative entry: outcome %v err %v after %d solves", how, err, solves)
	}
	if got := m.negHits.Load(); got != 1 {
		t.Fatalf("negHits = %d, want 1", got)
	}

	cur = base.Add(51 * time.Millisecond)
	if _, how := ask(m); how != led || solves != 2 {
		t.Fatalf("expired negative entry still served: outcome %v after %d solves", how, solves)
	}
	if got := m.entries.Load(); got != 1 {
		t.Fatalf("expired entry not replaced by the re-derived one: entries = %d", got)
	}

	off := newMemo(1<<20, 0)
	ask(off)
	if _, how := ask(off); how != led || off.entries.Load() != 0 {
		t.Fatalf("negative caching retained an entry with negTTL = 0: outcome %v", how)
	}
}

// TestCacheNegativeEngine checks the engine-level negative path: a case whose
// LR solve diverges is answered from the cache on the second Predict, with
// the error still unwrapping to solver.ErrDiverged, until the TTL runs out.
func TestCacheNegativeEngine(t *testing.T) {
	flows := testFlows(1, 8, 16)
	m := testModel(flows)
	e, err := New(m, WithCache(1<<20), WithNegativeTTL(time.Minute))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()

	// NaN Reynolds number → NaN viscosity → non-finite fields → ErrDiverged.
	div := &geometry.Case{Name: "nan-re", Kind: geometry.Channel, Re: math.NaN(), Height: 1, Length: 2, H: 8, W: 16}
	if _, err := e.Predict(context.Background(), div); !errors.Is(err, solver.ErrDiverged) {
		t.Fatalf("first predict: err = %v, want ErrDiverged", err)
	}
	if _, err := e.Predict(context.Background(), div); !errors.Is(err, solver.ErrDiverged) {
		t.Fatalf("second predict: err = %v, want ErrDiverged", err)
	}
	if st := e.Stats(); st.CacheNegativeHits != 1 || st.LRSolves != 1 {
		t.Fatalf("second diverged predict did not hit the negative cache: %+v", st)
	}
	// Past the TTL the entry is gone and the case is solved again.
	e.memo.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	if _, err := e.Predict(context.Background(), div); !errors.Is(err, solver.ErrDiverged) {
		t.Fatalf("predict after expiry: err = %v, want ErrDiverged", err)
	}
	if st := e.Stats(); st.CacheNegativeHits != 1 || st.LRSolves != 2 {
		t.Fatalf("expired negative entry still served: %+v", st)
	}
}

// TestCacheConcurrentStorm hammers a small cache from many goroutines mixing
// hits, misses, and evictions — run under -race, it is the data-race check
// for the sharded LRU; functionally, every response must stay bit-identical
// to direct inference.
func TestCacheConcurrentStorm(t *testing.T) {
	const goroutines = 8
	const iters = 30
	flows := testFlows(24, 8, 16)
	m := testModel(flows)
	want := make([]*core.Inference, len(flows))
	for i, f := range flows {
		want[i] = m.Infer(f)
	}
	// Budget sized to hold only a fraction of the working set, so the storm
	// exercises eviction and re-population concurrently with hits.
	e, err := New(m, WithCache(128<<10), WithMaxBatch(4), WithMaxDelay(time.Millisecond), WithWorkers(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g*7 + i*3) % len(flows)
				inf, err := e.PredictFlow(context.Background(), flows[k])
				if err != nil {
					errs[g] = err
					return
				}
				wd, gd := want[k].Field.Data(), inf.Field.Data()
				for j, v := range wd {
					if math.Float64bits(gd[j]) != math.Float64bits(v) {
						errs[g] = errors.New("response not bit-identical to direct inference")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	st := e.Stats()
	if st.CacheHits+st.CacheMisses != goroutines*iters {
		t.Fatalf("hits+misses = %d, want %d lookups", st.CacheHits+st.CacheMisses, goroutines*iters)
	}
	if st.CacheBytes > 128<<10 {
		t.Fatalf("resident bytes %d exceed budget", st.CacheBytes)
	}
}

// TestCacheClosedEngine: a warm cache must not serve after Close — shutdown
// invalidates, and submissions fail with ErrEngineClosed like any other.
func TestCacheClosedEngine(t *testing.T) {
	flows := testFlows(1, 8, 16)
	m := testModel(flows)
	e, err := New(m, WithCache(1<<20))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.PredictFlow(context.Background(), flows[0]); err != nil {
		t.Fatalf("warming predict: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := e.PredictFlow(context.Background(), flows[0]); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("predict on closed engine: err = %v, want ErrEngineClosed", err)
	}
}

// TestCacheOptionValidation: like the other engine options, nonsense values
// are ignored rather than fatal — a non-positive budget leaves the cache
// disabled (the -cache-bytes 0 path) and a negative TTL keeps the default.
func TestCacheOptionValidation(t *testing.T) {
	flows := testFlows(1, 8, 16)
	m := testModel(flows)
	for _, bytes := range []int64{0, -1} {
		e, err := New(m, WithCache(bytes), WithNegativeTTL(-time.Second))
		if err != nil {
			t.Fatalf("WithCache(%d): %v", bytes, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := e.PredictFlow(context.Background(), flows[0]); err != nil {
				t.Fatalf("predict: %v", err)
			}
		}
		st := e.Stats()
		if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 {
			t.Fatalf("WithCache(%d) did not leave the cache disabled: %+v", bytes, st)
		}
		e.Close()
	}
}

// flowKeyOf is the flow-space table key of f.
func flowKeyOf(seed uint64, f *grid.Flow) uint64 {
	id := flowIdent(f)
	return id.hash(seed)
}

// TestFlowKeyShape is the collision regression for ident.hash: two flows of
// different grid shapes with identical flattened channel bytes must hash
// differently, because the shape is part of the hash — without it they would
// collide on every request and only the equality check would separate them.
func TestFlowKeyShape(t *testing.T) {
	a := grid.NewFlow(4, 8, 0.1, 0.1)
	b := grid.NewFlow(8, 4, 0.1, 0.1)
	for i := 0; i < 32; i++ {
		v := float64(i) * 0.25
		a.U.Data[i], b.U.Data[i] = v, v
		a.V.Data[i], b.V.Data[i] = -v, -v
		a.P.Data[i], b.P.Data[i] = v*v, v*v
		a.Nut.Data[i], b.Nut.Data[i] = v/8, v/8
	}
	if flowKeyOf(fnvOffset, a) == flowKeyOf(fnvOffset, b) {
		t.Fatal("4x8 and 8x4 flows with identical flattened bytes share a key")
	}
	// Same shape, same bytes → same key (the coalescing invariant).
	c := a.Clone()
	if flowKeyOf(fnvOffset, a) != flowKeyOf(fnvOffset, c) {
		t.Fatal("bitwise-identical flows hash differently")
	}
	// The seed folds in refinement parameters: two engines with different
	// patch configurations must not share keys for one flow.
	cfg1 := core.DefaultConfig(2, 2)
	cfg2 := core.DefaultConfig(4, 4)
	s1 := memoSeed(cfg1, &config{})
	s2 := memoSeed(cfg2, &config{})
	if s1 == s2 {
		t.Fatal("different patch configs share a seed")
	}
	if flowKeyOf(s1, a) == flowKeyOf(s2, a) {
		t.Fatal("different refinement parameters share a key for the same flow")
	}
	// The two key spaces never share a key for one flow either.
	if id := caseIdent(a); id.hash(s1) == flowKeyOf(s1, a) {
		t.Fatal("case key and flow key of one flow coincide")
	}
}

// TestCacheStatsMatchMetrics checks the single-source-of-truth contract:
// the adarnet_serve_cache_* series exposed on a registry and EngineStats
// read the same atomics, so their values agree at any quiescent point.
func TestCacheStatsMatchMetrics(t *testing.T) {
	flows := testFlows(3, 8, 16)
	m := testModel(flows)
	reg := obs.NewRegistry()
	e, err := New(m, WithCache(1<<20), WithMetrics(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()

	for _, f := range flows { // misses
		if _, err := e.PredictFlow(context.Background(), f); err != nil {
			t.Fatalf("predict: %v", err)
		}
	}
	for i := 0; i < 2; i++ { // hits
		if _, err := e.PredictFlow(context.Background(), flows[0]); err != nil {
			t.Fatalf("predict: %v", err)
		}
	}

	st := e.Stats()
	checks := map[string]float64{
		`adarnet_serve_cache_hits_total{key="flow"}`: float64(st.CacheHitsFlow),
		`adarnet_serve_cache_hits_total{key="case"}`: float64(st.CacheHitsCase),
		"adarnet_serve_cache_misses_total":           float64(st.CacheMisses),
		"adarnet_serve_cache_bytes":                  float64(st.CacheBytes),
		"adarnet_serve_cache_entries":                float64(st.CacheEntries),
		"adarnet_serve_cache_enabled":                1,
	}
	for name, want := range checks {
		if got := metricValue(t, reg, name); got != want {
			t.Errorf("%s = %v, registry disagrees with EngineStats %v", name, got, want)
		}
	}
}

// metricValue reads one scalar sample from the registry's Prometheus text
// exposition — the same bytes a /metrics scrape would see.
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatalf("render registry: %v", err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("parse %s sample %q: %v", name, f[1], err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not in exposition", name)
	return 0
}
