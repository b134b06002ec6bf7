package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"

	"adarnet/internal/autodiff"
	"adarnet/internal/geometry"
	"adarnet/internal/grid"
	"adarnet/internal/patch"
	"adarnet/internal/solver"
	"adarnet/internal/tensor"
)

// tinyModel builds a small model for fast tests: 4×4 patches.
func tinyModel() *Model {
	return New(DefaultConfig(4, 4))
}

// tinySample synthesizes a physical-units LR sample with wall-like structure.
func tinySample(seed int64, h, w int) Sample {
	rng := rand.New(rand.NewSource(seed))
	c := geometry.ChannelCase(2.5e3, h, w)
	f := c.Build()
	// Shape the field like developed channel flow plus noise so the scorer
	// has structure to find.
	for y := 0; y < h; y++ {
		eta := (float64(y) + 0.5) / float64(h)
		prof := 6 * eta * (1 - eta) // parabolic, max 1.5
		for x := 0; x < w; x++ {
			f.U.Set(prof+0.01*rng.NormFloat64(), y, x)
			f.V.Set(0.005*rng.NormFloat64(), y, x)
			f.P.Set(0.3*(1-float64(x)/float64(w)), y, x)
			f.Nut.Set(3e-4*eta*(1-eta)*4, y, x)
		}
	}
	return Sample{Input: grid.ToTensor(f), Meta: f}
}

func TestNewModelDefaults(t *testing.T) {
	m := New(Config{PatchH: 4, PatchW: 4})
	if m.Cfg.Bins != 4 || m.Cfg.Lambda != 0.03 || m.Cfg.LR != 1e-4 {
		t.Fatalf("defaults not applied: %+v", m.Cfg)
	}
	if m.ParamCount() == 0 {
		t.Fatal("no parameters")
	}
}

func TestModelBinCap(t *testing.T) {
	m := New(Config{PatchH: 4, PatchW: 4, Bins: 10})
	if m.Cfg.Bins != patch.MaxLevel+1 {
		t.Fatalf("bins not capped: %d", m.Cfg.Bins)
	}
}

func TestNormalizationRoundTrip(t *testing.T) {
	s := tinySample(1, 8, 16)
	n := FitNorm([]*tensor.Tensor{s.Input})
	scaled := n.Apply(s.Input)
	if scaled.Min() < -1e-9 || scaled.Max() > 1+1e-9 {
		t.Fatalf("normalized range [%v, %v]", scaled.Min(), scaled.Max())
	}
	back := n.Invert(scaled)
	if tensor.MSE(back, s.Input) > 1e-20 {
		t.Fatal("normalization not invertible")
	}
}

func TestNormalizationDegenerateChannel(t *testing.T) {
	x := tensor.New(1, 4, 4, 4) // all-zero channels
	n := FitNorm([]*tensor.Tensor{x})
	y := n.Apply(x)
	if !y.IsFinite() {
		t.Fatal("degenerate channel produced non-finite normalization")
	}
}

func TestRankPartitionsAllPatches(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	scores := tensor.RandUniform(rng, 0, 1, 1, 4, 8, 1)
	m := Rank(scores, 4, 4, 4)
	if m.N() != 32 {
		t.Fatalf("N = %d", m.N())
	}
	groups := BinPatches(m, 4)
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != 32 {
		t.Fatalf("binning covered %d patches, want 32", total)
	}
	// Highest-scoring patch must land in the top bin, lowest in bin 0.
	d := scores.Data()
	hiIdx, loIdx := 0, 0
	for i, v := range d {
		if v > d[hiIdx] {
			hiIdx = i
		}
		if v < d[loIdx] {
			loIdx = i
		}
	}
	if m.Level[hiIdx] != 3 {
		t.Fatalf("max-score patch in bin %d", m.Level[hiIdx])
	}
	if m.Level[loIdx] != 0 {
		t.Fatalf("min-score patch in bin %d", m.Level[loIdx])
	}
}

func TestRankDegenerateScores(t *testing.T) {
	scores := tensor.Full(0.25, 1, 2, 2, 1)
	m := Rank(scores, 4, 4, 4)
	for _, l := range m.Level {
		if l != 0 {
			t.Fatal("equal scores must stay LR")
		}
	}
}

func TestForwardShapesAndCoverage(t *testing.T) {
	m := tinyModel()
	s := tinySample(3, 8, 16)
	tp := autodiff.NewTape()
	x := tp.Const(m.Norm.Apply(s.Input))
	res := m.Forward(tp, x)

	if res.Scores.Data.Dim(1) != 2 || res.Scores.Data.Dim(2) != 4 {
		t.Fatalf("score grid %v", res.Scores.Data.Shape())
	}
	if len(res.Patches) != 8 {
		t.Fatalf("%d patch predictions, want 8", len(res.Patches))
	}
	seen := map[[2]int]bool{}
	for _, p := range res.Patches {
		if seen[[2]int{p.PY, p.PX}] {
			t.Fatal("duplicate patch prediction")
		}
		seen[[2]int{p.PY, p.PX}] = true
		wantSide := 4 * (1 << uint(p.Level))
		if p.Value.Data.Dim(1) != wantSide || p.Value.Data.Dim(2) != wantSide {
			t.Fatalf("patch level %d has shape %v", p.Level, p.Value.Data.Shape())
		}
		if p.Value.Data.Dim(3) != 4 {
			t.Fatal("patch must have 4 output channels")
		}
	}
}

func TestForwardNonTilingPanics(t *testing.T) {
	m := tinyModel()
	tp := autodiff.NewTape()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Forward(tp, tp.Const(tensor.New(1, 10, 16, 4)))
}

func TestAssembleUniform(t *testing.T) {
	m := tinyModel()
	s := tinySample(4, 8, 16)
	tp := autodiff.NewTape()
	res := m.Forward(tp, tp.Const(m.Norm.Apply(s.Input)))
	out := AssembleUniform(res, m.Cfg)
	factor := 1 << uint(res.Levels.MaxLevelUsed())
	if out.Dim(1) != 8*factor || out.Dim(2) != 16*factor {
		t.Fatalf("assembled shape %v (max level %d)", out.Shape(), res.Levels.MaxLevelUsed())
	}
	if !out.IsFinite() {
		t.Fatal("assembled field not finite")
	}
}

func TestCoordChannels(t *testing.T) {
	c := coordChannels(1, 2, 4, 4, 8, 8, 8, 16)
	if c.Dim(1) != 8 || c.Dim(2) != 8 || c.Dim(3) != 2 {
		t.Fatalf("coord shape %v", c.Shape())
	}
	// All coordinates lie in (0, 1).
	for _, v := range c.Data() {
		if v <= 0 || v >= 1 {
			t.Fatalf("coordinate %v outside (0,1)", v)
		}
	}
	// x increases along the row, y constant.
	if c.At4(0, 0, 1, 0) <= c.At4(0, 0, 0, 0) {
		t.Fatal("x coordinate not increasing")
	}
	if c.At4(0, 0, 1, 1) != c.At4(0, 0, 0, 1) {
		t.Fatal("y coordinate varies along a row")
	}
}

func TestLossFiniteAndPositive(t *testing.T) {
	m := tinyModel()
	s := tinySample(5, 8, 16)
	tp := autodiff.NewTape()
	norm := m.Norm.Apply(s.Input)
	res := m.Forward(tp, tp.Const(norm))
	parts := m.Loss(tp, res, norm, s.Meta)
	for name, v := range map[string]*autodiff.Value{"total": parts.Total, "data": parts.Data, "pde": parts.PDE} {
		val := v.Data.Data()[0]
		if math.IsNaN(val) || math.IsInf(val, 0) || val < 0 {
			t.Fatalf("%s loss = %v", name, val)
		}
	}
	// λ composition: total = data + λ·pde.
	want := parts.Data.Data.Data()[0] + m.Cfg.Lambda*parts.PDE.Data.Data()[0]
	if math.Abs(parts.Total.Data.Data()[0]-want) > 1e-12 {
		t.Fatal("total loss is not data + λ·pde")
	}
}

func TestLossGradientsReachAllParams(t *testing.T) {
	m := tinyModel()
	s := tinySample(6, 8, 16)
	tp := autodiff.NewTape()
	norm := m.Norm.Apply(s.Input)
	x := tp.Const(norm)
	res := m.Forward(tp, x)
	parts := m.Loss(tp, res, norm, s.Meta)
	tp.Backward(parts.Total)
	for _, p := range m.Params() {
		g := p.Grad()
		if g == nil {
			t.Fatalf("param %s received no gradient", p.Name)
		}
		if g.Norm2() == 0 {
			t.Logf("param %s gradient is exactly zero", p.Name)
		}
	}
	// The scorer's first conv must receive gradient through the latent path.
	if g := m.Scorer.Conv1.W.Grad(); g == nil || g.Norm2() == 0 {
		t.Fatal("scorer receives no gradient through the latent channel")
	}
}

func TestTrainingStepReducesLoss(t *testing.T) {
	m := tinyModel()
	samples := []Sample{tinySample(7, 8, 16), tinySample(8, 8, 16)}
	tr := NewTrainer(m)
	tr.Opt.LR = 3e-3 // faster for the smoke test
	tr.FitNormalization(samples)
	first, _, _, err := tr.Step(samples)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 30; i++ {
		last, _, _, err = tr.Step(samples)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !(last < first) {
		t.Fatalf("loss did not decrease: first %v last %v", first, last)
	}
	if last > 0.7*first {
		t.Fatalf("loss barely moved: first %v last %v", first, last)
	}
}

func TestTrainerRunEpochs(t *testing.T) {
	m := tinyModel()
	samples := []Sample{tinySample(9, 8, 16), tinySample(10, 8, 16), tinySample(11, 8, 16)}
	tr := NewTrainer(m)
	tr.FitNormalization(samples)
	opts := DefaultTrainOptions()
	opts.Epochs = 2
	opts.BatchSize = 2
	stats, err := tr.Fit(context.Background(), samples, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("%d epoch stats", len(stats))
	}
}

func TestTrainerRejectsEmpty(t *testing.T) {
	tr := NewTrainer(tinyModel())
	if _, err := tr.Fit(context.Background(), nil, DefaultTrainOptions()); err == nil {
		t.Fatal("expected error for empty dataset")
	}
	if _, _, _, err := tr.Step(nil); err == nil {
		t.Fatal("expected error for empty batch")
	}
}

func TestInferProducesPhysicalField(t *testing.T) {
	m := tinyModel()
	s := tinySample(12, 8, 16)
	m.Norm = FitNorm([]*tensor.Tensor{s.Input})
	inf := m.Infer(s.Meta)
	if inf.Field == nil || !inf.Field.IsFinite() {
		t.Fatal("inference field invalid")
	}
	if inf.CompositeCells < 8*16 {
		t.Fatalf("composite cells %d below LR count", inf.CompositeCells)
	}
	if inf.MemoryBytes <= 0 {
		t.Fatal("no memory accounted")
	}
	if inf.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestInferenceToFlow(t *testing.T) {
	m := tinyModel()
	c := geometry.ChannelCase(2.5e3, 8, 16)
	lr := c.Build()
	m.Norm = FitNorm([]*tensor.Tensor{grid.ToTensor(lr)})
	inf := m.Infer(lr)
	fine := inf.ToFlow(lr, c.BuildAt)
	if fine.H != inf.Field.Dim(1) || fine.W != inf.Field.Dim(2) {
		t.Fatalf("flow resolution %dx%d vs field %v", fine.H, fine.W, inf.Field.Shape())
	}
	if fine.Nu != lr.Nu {
		t.Fatal("viscosity not carried")
	}
	// Interior ν̃ is clamped non-negative (the boundary ring may legitimately
	// hold negative wall-mirror ghosts after ApplyBC).
	for y := 1; y < fine.H-1; y++ {
		for x := 1; x < fine.W-1; x++ {
			if fine.Nut.At(y, x) < 0 {
				t.Fatal("negative interior ν̃ survived ToFlow")
			}
		}
	}
}

func TestSaveLoadModel(t *testing.T) {
	m1 := tinyModel()
	path := t.TempDir() + "/model.gob"
	if err := m1.Save(path); err != nil {
		t.Fatal(err)
	}
	m2 := New(Config{PatchH: 4, PatchW: 4, Seed: 99})
	if err := m2.Load(path); err != nil {
		t.Fatal(err)
	}
	a := m1.Scorer.Conv1.W.Data.Data()
	b := m2.Scorer.Conv1.W.Data.Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("weights not restored")
		}
	}
	if err := m2.Load(path + ".missing"); err == nil {
		t.Fatal("expected error for missing checkpoint")
	}
}

func TestLoadCorruptCheckpoint(t *testing.T) {
	m := tinyModel()
	path := t.TempDir() + "/model.gob"
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = New(Config{PatchH: 4, PatchW: 4, Seed: 99}).Load(path)
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("corrupt checkpoint: err = %v, want ErrCheckpointCorrupt", err)
	}
}

func TestPDEResidualLossOfUniformFieldIsZero(t *testing.T) {
	// A constant field has zero residual everywhere except pressure (also
	// constant), so the PDE loss must vanish.
	tp := autodiff.NewTape()
	v := tp.Const(tensor.Full(0.5, 1, 8, 8, 4))
	loss := pdeResidualLoss(v, 0.1, 0.1, 1e-4)
	if got := loss.Data.Data()[0]; got != 0 {
		t.Fatalf("uniform-field PDE loss = %v", got)
	}
}

func TestPDEResidualDetectsDivergence(t *testing.T) {
	// U = x (others zero) has continuity residual 1 in the interior.
	x := tensor.New(1, 8, 8, 4)
	for y := 0; y < 8; y++ {
		for xx := 0; xx < 8; xx++ {
			x.Set4(float64(xx)*0.1, 0, y, xx, 0)
		}
	}
	tp := autodiff.NewTape()
	loss := pdeResidualLoss(tp.Const(x), 0.1, 0.1, 1e-4)
	if loss.Data.Data()[0] <= 0 {
		t.Fatal("divergent field has zero PDE loss")
	}
}

func TestFitCancellation(t *testing.T) {
	m := tinyModel()
	samples := []Sample{tinySample(9, 8, 16), tinySample(10, 8, 16), tinySample(11, 8, 16)}
	tr := NewTrainer(m)
	tr.FitNormalization(samples)
	opts := DefaultTrainOptions()
	opts.Epochs = 50
	opts.BatchSize = 1
	ctx, cancel := context.WithCancel(context.Background())
	fired := false
	opts.Monitor = func(e int, total, data, pde float64) {
		if !fired {
			fired = true
			cancel()
		}
	}
	stats, err := tr.Fit(ctx, samples, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(stats) >= opts.Epochs {
		t.Fatalf("ran all %d epochs despite cancellation", len(stats))
	}
}

func TestRunE2EUntrained(t *testing.T) {
	c := geometry.ChannelCase(2.5e3, 8, 32)
	if _, err := RunE2E(context.Background(), nil, c, solver.DefaultOptions()); !errors.Is(err, ErrUntrained) {
		t.Fatalf("err = %v, want ErrUntrained", err)
	}
}

func TestForwardBatchMatchesForward(t *testing.T) {
	// One tape holding B stacked samples must reproduce B solo passes
	// bit-for-bit: same levels and same decoded patch values per sample.
	m := tinyModel()
	const b = 3
	samples := []Sample{tinySample(1, 8, 16), tinySample(2, 8, 16), tinySample(3, 8, 16)}
	tr := NewTrainer(m)
	tr.FitNormalization(samples)

	solo := make([]*ForwardResult, b)
	soloT := autodiff.NewInferTape()
	norms := make([]*tensor.Tensor, b)
	for i, s := range samples {
		norms[i] = m.Norm.Apply(s.Input)
		solo[i] = m.Forward(soloT, soloT.Const(norms[i]))
	}

	h, w := 8, 16
	stacked := tensor.NewPooled(b, h, w, 4)
	sd := stacked.Data()
	per := h * w * 4
	for i := range norms {
		copy(sd[i*per:(i+1)*per], norms[i].Data())
	}
	batchT := autodiff.NewInferTape()
	batched := m.ForwardBatch(batchT, batchT.Const(stacked))
	if len(batched) != b {
		t.Fatalf("%d results, want %d", len(batched), b)
	}
	for i := 0; i < b; i++ {
		for k, lvl := range solo[i].Levels.Level {
			if batched[i].Levels.Level[k] != lvl {
				t.Fatalf("sample %d: level[%d] = %d, want %d", i, k, batched[i].Levels.Level[k], lvl)
			}
		}
		if len(batched[i].Patches) != len(solo[i].Patches) {
			t.Fatalf("sample %d: %d patches, want %d", i, len(batched[i].Patches), len(solo[i].Patches))
		}
		for p := range solo[i].Patches {
			sp, bp := solo[i].Patches[p], batched[i].Patches[p]
			if sp.PY != bp.PY || sp.PX != bp.PX || sp.Level != bp.Level {
				t.Fatalf("sample %d patch %d: (%d,%d,L%d) vs (%d,%d,L%d)", i, p, bp.PY, bp.PX, bp.Level, sp.PY, sp.PX, sp.Level)
			}
			sv, bv := sp.Value.Data.Data(), bp.Value.Data.Data()
			for k := range sv {
				if sv[k] != bv[k] {
					t.Fatalf("sample %d patch %d elem %d: %v != %v", i, p, k, bv[k], sv[k])
				}
			}
		}
	}
}
