package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/grid"
)

// flowKeyOf is the flow-space table key of f: the router's routing key.
func flowKeyOf(seed uint64, f *grid.Flow) uint64 {
	id := flowIdent(f)
	return id.hash(seed)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", msg)
}

// TestClusterMatchesDirect checks the acceptance criterion: cluster output
// is bit-identical to direct core.Model inference, across several flows
// routed to different replicas.
func TestClusterMatchesDirect(t *testing.T) {
	flows := testFlows(6, 8, 16)
	m := testModel(flows)
	c, err := NewCluster(m, WithReplicas(3), WithMaxDelay(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i, f := range flows {
		want := m.Infer(f)
		got, err := c.PredictFlow(context.Background(), f)
		if err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
		sameInf(t, "cluster", want, got)
	}
	if got := c.Stats().Completed; got != uint64(len(flows)) {
		t.Errorf("aggregate completed = %d, want %d", got, len(flows))
	}
}

// TestRouterDeterministic checks consistent-hash routing: the same key maps
// to the same replica on every call while the ring is unchanged, and
// repeated submissions of one flow land on exactly one replica.
func TestRouterDeterministic(t *testing.T) {
	flows := testFlows(8, 8, 16)
	m := testModel(flows)
	c, err := NewCluster(m, WithReplicas(4), WithMaxDelay(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i, f := range flows {
		key := flowKeyOf(c.seed, f)
		first := c.routeOrder(key)
		if len(first) != 4 {
			t.Fatalf("routeOrder returned %d slots, want 4", len(first))
		}
		for trial := 0; trial < 10; trial++ {
			again := c.routeOrder(key)
			for j := range first {
				if again[j] != first[j] {
					t.Fatalf("flow %d trial %d: route order %v != %v", i, trial, again, first)
				}
			}
		}
	}

	// End to end: 5 sequential submissions of one flow are all served by its
	// home replica — exactly one slot accepts requests.
	f := flows[0]
	for i := 0; i < 5; i++ {
		if _, err := c.PredictFlow(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	home := c.routeOrder(flowKeyOf(c.seed, f))[0]
	for _, s := range c.slots {
		got := s.stats.requests.Load()
		if s.index == home && got != 5 {
			t.Errorf("home replica %d: requests = %d, want 5", s.index, got)
		}
		if s.index != home && got != 0 {
			t.Errorf("replica %d: requests = %d, want 0", s.index, got)
		}
	}
}

// TestClusterSingleFlight checks router-level coalescing: concurrent
// identical requests collapse to one replica submission, and every follower
// receives a private bit-identical copy.
func TestClusterSingleFlight(t *testing.T) {
	const callers = 6
	flows := testFlows(1, 8, 16)
	m := testModel(flows)
	c, err := NewCluster(m, WithReplicas(2), WithMaxBatch(1), WithMaxDelay(time.Millisecond), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Hold both replicas' workers so all callers pile onto one flight.
	hold := make(chan struct{})
	for _, s := range c.slots {
		s.engine().hold = hold
	}

	want := m.Infer(flows[0])
	got := make([]*core.Inference, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.PredictFlow(context.Background(), flows[0])
		}(i)
	}
	// Wait until one leader's request is queued; the flight stays open while
	// its worker is held, so stragglers reaching the router join as
	// followers. The brief sleep lets the remaining callers arrive.
	waitFor(t, 2*time.Second, func() bool {
		n := uint64(0)
		for _, s := range c.slots {
			n += s.stats.requests.Load()
		}
		return n >= 1
	}, "leader submission")
	time.Sleep(100 * time.Millisecond)
	close(hold)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		sameInf(t, "follower", want, got[i])
	}
	// Followers must not alias the leader's tensors.
	for i := 1; i < callers; i++ {
		if got[i] == got[0] || &got[i].Field.Data()[0] == &got[0].Field.Data()[0] {
			t.Fatal("coalesced followers share the leader's result object")
		}
	}
	// At least callers-1 were served from flights (exactly, unless a caller
	// arrived after the flight closed and started its own).
	if co := c.coalesced.Load(); co == 0 {
		t.Error("router-level coalesced = 0, want > 0")
	}
	total := uint64(0)
	for _, s := range c.slots {
		total += s.stats.requests.Load()
	}
	if total >= callers {
		t.Errorf("replica submissions = %d, want < %d (coalescing)", total, callers)
	}
}

// TestClusterEjectionAndReadmission checks the health monitor: a replica
// whose contained-panic rate breaches the budget is ejected, drained, and
// replaced in the same slot (generation bumps, state returns to ready) —
// and no request fails while it happens, because retriable errors reroute.
func TestClusterEjectionAndReadmission(t *testing.T) {
	flows := testFlows(4, 8, 16)
	m := testModel(flows)
	// The health window must be long enough to accumulate the panic budget
	// even on a slow single-CPU -race run where each request takes tens of
	// milliseconds.
	c, err := NewCluster(m, WithReplicas(2),
		WithMaxBatch(1), WithMaxDelay(time.Millisecond), WithWorkers(1),
		WithHealthInterval(150*time.Millisecond), WithEjectPanics(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	f := flows[0]
	home := c.routeOrder(flowKeyOf(c.seed, f))[0]
	c.InjectReplicaFault(home, func(*grid.Flow) { panic("injected replica fault") })

	// Every request succeeds despite the home replica panicking on each one:
	// ErrInternal is retriable, so the router reroutes to the other replica.
	// Keep the panic rate up until the monitor's window trips the budget.
	want := m.Infer(f)
	for i := 0; i < 200 && c.slots[home].generation.Load() == 0; i++ {
		inf, err := c.PredictFlow(context.Background(), f)
		if err != nil {
			t.Fatalf("request %d during fault: %v", i, err)
		}
		sameInf(t, "rerouted", want, inf)
	}
	if r := c.retries.Load(); r == 0 {
		t.Error("retries = 0, want > 0 (rerouted off the panicking home)")
	}

	// The monitor ejects the home slot and installs a fresh generation.
	waitFor(t, 5*time.Second, func() bool {
		s := c.slots[home]
		return s.generation.Load() >= 1 && s.ready()
	}, "ejection and re-admission")
	if e := c.ejections.Load(); e == 0 {
		t.Error("ejections = 0, want >= 1")
	}

	// The replacement replica serves the home key directly again (its
	// inject hook is disarmed), so requests stop rerouting.
	before := c.retries.Load()
	inf, err := c.PredictFlow(context.Background(), f)
	if err != nil {
		t.Fatalf("request after replacement: %v", err)
	}
	sameInf(t, "replacement", want, inf)
	if after := c.retries.Load(); after != before {
		t.Errorf("retries grew %d → %d after replacement; replacement still faulty", before, after)
	}

	h := c.Health()
	if !h.Ready {
		t.Error("Health().Ready = false with both replicas serving")
	}
	if g := h.Replicas[home].Generation; g < 1 {
		t.Errorf("home replica generation = %d, want >= 1", g)
	}
}

// TestClusterHedgedRetry checks hedging: a request stuck on a slow home
// replica is answered by the hedged attempt on the next replica, the first
// response wins, and the loser is cancelled rather than awaited.
func TestClusterHedgedRetry(t *testing.T) {
	flows := testFlows(1, 8, 16)
	m := testModel(flows)
	c, err := NewCluster(m, WithReplicas(2),
		WithMaxBatch(1), WithMaxDelay(time.Millisecond), WithWorkers(1),
		WithHedge(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	f := flows[0]
	home := c.routeOrder(flowKeyOf(c.seed, f))[0]
	release := make(chan struct{})
	var once sync.Once
	c.InjectReplicaFault(home, func(*grid.Flow) {
		<-release // the home replica stalls until released
	})
	defer once.Do(func() { close(release) })

	want := m.Infer(f)
	start := time.Now()
	inf, err := c.PredictFlow(context.Background(), f)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	sameInf(t, "hedged", want, inf)
	if elapsed > 2*time.Second {
		t.Errorf("hedged request took %v; the slow primary was awaited", elapsed)
	}
	if h := c.hedges.Load(); h == 0 {
		t.Error("hedges = 0, want >= 1")
	}
	if w := c.hedgeWins.Load(); w == 0 {
		t.Error("hedge wins = 0, want >= 1 (the second attempt answered first)")
	}
	// The losing attempt was cancelled: the home replica records the
	// abandoned caller without ever delivering.
	waitFor(t, 2*time.Second, func() bool {
		return c.slots[home].stats.canceled.Load() >= 1
	}, "loser cancellation")
	once.Do(func() { close(release) })
}

// TestClusterDrainOnClose checks graceful drain: every request accepted
// before Close completes successfully, submissions after Close fail with
// ErrEngineClosed, and Close itself returns only after the drain.
func TestClusterDrainOnClose(t *testing.T) {
	const callers = 10
	flows := testFlows(callers, 8, 16)
	m := testModel(flows)
	c, err := NewCluster(m, WithReplicas(2), WithMaxBatch(2), WithMaxDelay(time.Millisecond), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}

	// Hold the workers so accepted requests are provably in flight at Close.
	hold := make(chan struct{})
	for _, s := range c.slots {
		s.engine().hold = hold
	}

	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.PredictFlow(context.Background(), flows[i])
		}(i)
	}
	waitFor(t, 2*time.Second, func() bool {
		n := uint64(0)
		for _, s := range c.slots {
			n += s.stats.requests.Load()
		}
		return n == callers
	}, "all requests accepted")

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()

	// Close is draining: new submissions are refused while accepted ones are
	// still pending. Wait for the closed flag first — probing before Close
	// flips it would join an open flight and block behind the held workers.
	waitFor(t, 2*time.Second, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.closed
	}, "Close to begin draining")
	if _, err := c.PredictFlow(context.Background(), flows[0]); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("submission during drain: err = %v, want ErrEngineClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while accepted requests were still held")
	default:
	}

	close(hold)
	wg.Wait()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("accepted request %d lost at Close: %v", i, err)
		}
	}
	if h := c.Health(); h.Ready {
		t.Error("Health().Ready = true after Close")
	}
}

// TestClusterLoadFallback checks load-aware routing: with the home replica's
// queue saturated past the threshold, the router prefers a replica with
// headroom instead of queueing behind the hot one.
func TestClusterLoadFallback(t *testing.T) {
	flows := testFlows(2, 8, 16)
	m := testModel(flows)
	c, err := NewCluster(m, WithReplicas(2),
		WithMaxBatch(1), WithMaxDelay(time.Millisecond), WithWorkers(1), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	f := flows[0]
	key := flowKeyOf(c.seed, f)
	home := c.routeOrder(key)[0]

	// Saturate the home queue: hold its worker and fill the queue directly.
	hold := make(chan struct{})
	eng := c.slots[home].engine()
	eng.hold = hold
	// The batcher absorbs up to two requests (one held in the worker, one
	// blocked on the unbuffered handoff), so six fills leave the 4-deep
	// queue saturated past the threshold of 3.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct flows so nothing coalesces at either level.
			fill := flows[0].Clone()
			fill.U.Data[0] += float64(i+1) * 1e-9
			eng.PredictFlow(context.Background(), fill)
		}(i)
	}
	waitFor(t, 2*time.Second, func() bool { return eng.queueLen() >= 3 }, "home queue saturation")

	order := c.routeOrder(key)
	if order[0] == home {
		t.Errorf("routeOrder home = %d with a saturated queue, want fallback replica", order[0])
	}
	if c.fallbacks.Load() == 0 {
		t.Error("fallbacks = 0, want >= 1")
	}
	close(hold)
	wg.Wait()
}
