package adarnet

// Integration tests across the public API: the full train → infer →
// correct pipeline against the AMR baseline on a miniature problem.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"adarnet/internal/grid"
	"adarnet/internal/tensor"
)

func trainTinyModel(t *testing.T) (*Model, []Sample) {
	t.Helper()
	samples, err := GenerateDatasetContext(context.Background(), 2, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(2, 2))
	tr := NewTrainer(m)
	tr.Opt.LR = 1e-3
	tr.FitNormalization(samples)
	for i := 0; i < 3; i++ {
		if _, _, _, err := tr.Step(samples); err != nil {
			t.Fatal(err)
		}
	}
	return m, samples
}

func TestEndToEndPipeline(t *testing.T) {
	m, _ := trainTinyModel(t)
	c := ChannelCase(2.5e3, 8, 32)
	e2e, err := RunE2EContext(context.Background(), m, c, DefaultSolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e2e.Flow == nil || !e2e.Flow.IsFinite() {
		t.Fatal("pipeline produced invalid flow")
	}
	if !e2e.PSResult.Converged {
		t.Fatalf("correction pass did not converge: %v", e2e.PSResult)
	}
	if e2e.Inference.CompositeCells > e2e.Inference.Levels.UniformCells() {
		t.Fatal("composite mesh larger than uniform")
	}
}

func TestADARNetBeatsAMRSolverOnWork(t *testing.T) {
	// The paper's Table 1 headline on a miniature case: the one-shot
	// pipeline costs less DOF-weighted work than the iterative AMR loop.
	m, _ := trainTinyModel(t)
	c := ChannelCase(2.5e3, 8, 32)
	maxLevel := m.Cfg.Bins - 1

	e2e, err := RunE2EContext(context.Background(), m, c, DefaultSolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultAMRConfig(2, 2)
	cfg.MaxLevel = maxLevel
	amrRes, err := RunAMRContext(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if amrRes.TotalWork <= e2e.TotalWork {
		t.Fatalf("AMR work %d not greater than ADARNet work %d", amrRes.TotalWork, e2e.TotalWork)
	}
	if amrRes.TotalIterations <= e2e.PSIterations {
		t.Fatalf("AMR ITC %d not greater than ADARNet ps ITC %d", amrRes.TotalIterations, e2e.PSIterations)
	}
}

func TestNonUniformBeatsUniformOnMemory(t *testing.T) {
	// The paper's Table 2 headline: non-uniform inference allocates less
	// than uniform SR at the same max factor whenever any patch stays coarse.
	m, samples := trainTinyModel(t)
	lr := samples[0].Meta
	aInf := m.Infer(lr)
	if aInf.Levels.MaxLevelUsed() == 0 {
		t.Skip("model refined nothing on this sample")
	}
	s := NewSURFNet(1<<uint(m.Cfg.Bins-1), 1)
	s.Norm = m.Norm
	sInf := s.Infer(lr)
	if sInf.MemoryBytes <= aInf.MemoryBytes {
		t.Fatalf("uniform %d bytes vs non-uniform %d bytes", sInf.MemoryBytes, aInf.MemoryBytes)
	}
}

func TestDatasetFacadeRoundTrip(t *testing.T) {
	samples, err := GenerateDatasetContext(context.Background(), 1, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	train, val := SplitDataset(samples, 0.3)
	if len(train)+len(val) != len(samples) {
		t.Fatal("split lost samples")
	}
	path := t.TempDir() + "/c.gob"
	if err := SaveDataset(path, samples); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(samples) {
		t.Fatal("dataset file round trip failed")
	}
}

func TestRunFig1Facade(t *testing.T) {
	var buf bytes.Buffer
	RunFig1(&buf)
	if buf.Len() == 0 {
		t.Fatal("no Fig 1 output")
	}
}

func TestModelCheckpointFacade(t *testing.T) {
	m, _ := trainTinyModel(t)
	path := t.TempDir() + "/m.gob"
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2 := New(DefaultConfig(2, 2))
	if err := m2.Load(path); err != nil {
		t.Fatal(err)
	}
	// Same weights → same inference on the same input.
	f := ChannelCase(2.5e3, 8, 32).Build()
	m2.Norm = m.Norm
	a := m.Infer(f)
	b := m2.Infer(f)
	if tensor.MSE(a.Field, b.Field) != 0 {
		t.Fatal("restored model predicts differently")
	}
	_ = grid.NumChannels

	// A damaged checkpoint surfaces the façade's integrity sentinel.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(DefaultConfig(2, 2)).Load(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("corrupt checkpoint: err = %v, want ErrCheckpointCorrupt", err)
	}
}

func TestSetupExperimentsUnknownScale(t *testing.T) {
	if _, err := SetupExperiments("quikc"); err == nil {
		t.Fatal("expected explicit error for unknown scale, got nil")
	}
}

func TestEngineThroughFacade(t *testing.T) {
	// The façade engine must serve predictions bit-identical to direct
	// model inference, and expose the sentinel errors for errors.Is.
	m, samples := trainTinyModel(t)
	e, err := NewEngine(m, WithMaxBatch(4), WithMaxDelay(5*time.Millisecond), WithWorkers(2), WithQueueDepth(16))
	if err != nil {
		t.Fatal(err)
	}
	lr := samples[0].Meta
	want := m.Infer(lr)
	got, err := e.PredictFlow(context.Background(), lr)
	if err != nil {
		t.Fatal(err)
	}
	wd, gd := want.Field.Data(), got.Field.Data()
	for k := range wd {
		if wd[k] != gd[k] {
			t.Fatalf("field[%d]: engine %v != direct %v", k, gd[k], wd[k])
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PredictFlow(context.Background(), lr); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("after Close: err = %v, want ErrEngineClosed", err)
	}
}

func TestContextEntryPoints(t *testing.T) {
	// Every ctx-first façade entry point must honor a pre-canceled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := ChannelCase(2.5e3, 8, 32)
	if _, err := SolveContext(ctx, c.Build(), DefaultSolverOptions()); !errors.Is(err, context.Canceled) {
		t.Errorf("SolveContext: err = %v, want context.Canceled", err)
	}
	if _, err := RunAMRContext(ctx, c, DefaultAMRConfig(2, 2)); !errors.Is(err, context.Canceled) {
		t.Errorf("RunAMRContext: err = %v, want context.Canceled", err)
	}
	m := New(DefaultConfig(2, 2))
	if _, err := RunE2EContext(ctx, m, c, DefaultSolverOptions()); !errors.Is(err, context.Canceled) {
		t.Errorf("RunE2EContext: err = %v, want context.Canceled", err)
	}
	if _, err := GenerateDatasetContext(ctx, 1, 8, 32); !errors.Is(err, context.Canceled) {
		t.Errorf("GenerateDatasetContext: err = %v, want context.Canceled", err)
	}
}
