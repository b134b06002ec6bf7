package serve

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/grid"
)

// TestWorkerPanicContainment is the acceptance scenario: with a panic
// injected into one request of an 8-request batch, that caller receives
// ErrInternal (a *PanicError carrying the panic value and a stack), its
// seven batch-mates receive results bit-identical to direct inference, the
// engine keeps serving afterwards, Stats reports the panics and retries, and
// no goroutine leaks.
func TestWorkerPanicContainment(t *testing.T) {
	const callers = 8
	const poisonedIdx = 3
	flows := testFlows(callers, 8, 16)
	m := testModel(flows)

	want := make([]*core.Inference, callers)
	for i, f := range flows {
		want[i] = m.Infer(f)
	}

	before := runtime.NumGoroutine()
	e, err := New(m, WithMaxBatch(callers), WithMaxDelay(50*time.Millisecond), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	poisoned := flows[poisonedIdx]
	e.setInject(func(f *grid.Flow) {
		if f == poisoned {
			panic("injected fault")
		}
	})

	got := make([]*core.Inference, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = e.PredictFlow(context.Background(), flows[i])
		}(i)
	}
	wg.Wait()

	// The poisoned request fails with the typed sentinel and full diagnostics.
	if !errors.Is(errs[poisonedIdx], ErrInternal) {
		t.Fatalf("poisoned request: err = %v, want ErrInternal", errs[poisonedIdx])
	}
	var pe *PanicError
	if !errors.As(errs[poisonedIdx], &pe) {
		t.Fatalf("poisoned request: err = %T, want *PanicError", errs[poisonedIdx])
	}
	if pe.Value != "injected fault" {
		t.Errorf("PanicError.Value = %v, want %q", pe.Value, "injected fault")
	}
	if !strings.Contains(pe.Stack, "forwardGroup") {
		t.Errorf("PanicError.Stack does not mention the panic boundary:\n%s", pe.Stack)
	}

	// Batch-mates succeed with bit-identical results.
	for i := 0; i < callers; i++ {
		if i == poisonedIdx {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("batch-mate %d: %v", i, errs[i])
		}
		w, g := want[i], got[i]
		if w.CompositeCells != g.CompositeCells {
			t.Errorf("batch-mate %d: composite cells %d != %d", i, g.CompositeCells, w.CompositeCells)
		}
		for k, lvl := range w.Levels.Level {
			if g.Levels.Level[k] != lvl {
				t.Fatalf("batch-mate %d: level[%d] = %d, want %d", i, k, g.Levels.Level[k], lvl)
			}
		}
		wd, gd := w.Field.Data(), g.Field.Data()
		for k := range wd {
			if wd[k] != gd[k] { // bit-identical, not approximately equal
				t.Fatalf("batch-mate %d: field[%d] = %v, want %v", i, k, gd[k], wd[k])
			}
		}
	}

	// Batched pass + poisoned retry both panicked; all 8 were retried
	// individually (nobody had been answered when the batch pass died).
	s := e.Stats()
	if s.Panics < 2 {
		t.Errorf("stats panics = %d, want >= 2 (batch pass + poisoned retry)", s.Panics)
	}
	if s.Retried != callers {
		t.Errorf("stats retried = %d, want %d", s.Retried, callers)
	}
	if s.Completed != callers-1 {
		t.Errorf("stats completed = %d, want %d", s.Completed, callers-1)
	}

	// The engine keeps serving: with the fault cleared, the formerly
	// poisoned flow now succeeds.
	e.setInject(nil)
	inf, err := e.PredictFlow(context.Background(), poisoned)
	if err != nil {
		t.Fatalf("predict after contained panic: %v", err)
	}
	wd, gd := want[poisonedIdx].Field.Data(), inf.Field.Data()
	for k := range wd {
		if wd[k] != gd[k] {
			t.Fatalf("post-recovery field[%d] = %v, want %v", k, gd[k], wd[k])
		}
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// No goroutine leaked across the panic/recover cycle.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+1 { // +1 slack for runtime noise
		t.Errorf("goroutines: %d before engine, %d after Close", before, n)
	}
}

// TestSingleRequestPanic checks the degenerate batch: a panic with no
// batch-mates fails directly with ErrInternal and performs no retry.
func TestSingleRequestPanic(t *testing.T) {
	flows := testFlows(1, 8, 16)
	m := testModel(flows)
	e, err := New(m, WithMaxBatch(1), WithMaxDelay(time.Millisecond), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.setInject(func(*grid.Flow) { panic("always") })

	if _, err := e.PredictFlow(context.Background(), flows[0]); !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	s := e.Stats()
	if s.Panics != 1 {
		t.Errorf("stats panics = %d, want 1", s.Panics)
	}
	if s.Retried != 0 {
		t.Errorf("stats retried = %d, want 0 for a single-request batch", s.Retried)
	}
}

// TestCoalescedPanicContainment checks that coalesced callers of a poisoned
// field all receive ErrInternal: the retry pass re-runs each caller's
// request individually, and each one panics on its own.
func TestCoalescedPanicContainment(t *testing.T) {
	const callers = 3
	base := testFlows(2, 8, 16)
	m := testModel(base)
	want := m.Infer(base[1])

	e, err := New(m, WithMaxBatch(callers+1), WithMaxDelay(50*time.Millisecond), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	// All clones of base[0] are poisoned; base[1] is healthy.
	poison := base[0]
	poisonID := flowIdent(poison)
	e.setInject(func(f *grid.Flow) {
		if id := flowIdent(f); id.equal(&poisonID) {
			panic("poisoned field")
		}
	})

	flows := make([]*grid.Flow, callers+1)
	for i := 0; i < callers; i++ {
		flows[i] = poison.Clone()
	}
	flows[callers] = base[1]

	errs := make([]error, callers+1)
	infs := make([]*core.Inference, callers+1)
	var wg sync.WaitGroup
	for i := range flows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			infs[i], errs[i] = e.PredictFlow(context.Background(), flows[i])
		}(i)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < callers; i++ {
		if !errors.Is(errs[i], ErrInternal) {
			t.Errorf("poisoned caller %d: err = %v, want ErrInternal", i, errs[i])
		}
	}
	if errs[callers] != nil {
		t.Fatalf("healthy caller: %v", errs[callers])
	}
	wd, gd := want.Field.Data(), infs[callers].Field.Data()
	for k := range wd {
		if wd[k] != gd[k] {
			t.Fatalf("healthy caller: field[%d] = %v, want %v", k, gd[k], wd[k])
		}
	}
}
