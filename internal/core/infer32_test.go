package core

import (
	"errors"
	"math"
	"testing"

	"adarnet/internal/geometry"
	"adarnet/internal/grid"
	"adarnet/internal/patch"
	"adarnet/internal/tensor"
)

// infer32Model builds a small fitted model and its frozen float32 snapshot.
func infer32Model(t *testing.T, nFlows, h, w int) (*Model, *Model32, []*grid.Flow) {
	t.Helper()
	m := tinyModel()
	flows := make([]*grid.Flow, nFlows)
	inputs := make([]*tensor.Tensor, nFlows)
	for i := range flows {
		s := tinySample(int64(100+i), h, w)
		flows[i] = s.Meta
		inputs[i] = s.Input
	}
	m.Norm = FitNorm(inputs)
	fm, err := NewModel32(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, fm, flows
}

func sameField64(t *testing.T, name string, a, b *tensor.Tensor) {
	t.Helper()
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		t.Fatalf("%s: field sizes %v vs %v", name, a.Shape(), b.Shape())
	}
	for i := range ad {
		if ad[i] != bd[i] {
			t.Fatalf("%s: fields diverge at %d: %v vs %v", name, i, ad[i], bd[i])
		}
	}
}

// TestModel32BatchedMatchesSingle pins the fast path's batching contract:
// a BeginBatch over K flows must be bit-identical to K solo InferFlow calls
// — levels, composite cells, and every float64 of the assembled field. Batch
// sizes cover 1, 3, 8, and 11 run as an 8+3 split (the non-divisible tail
// the serving engine produces when the queue exceeds its max batch).
func TestModel32BatchedMatchesSingle(t *testing.T) {
	_, fm, flows := infer32Model(t, 11, 8, 16)
	solo := make([]*Inference, len(flows))
	for i, f := range flows {
		solo[i] = fm.InferFlow(f)
	}
	check := func(name string, got []*Inference, want []*Inference) {
		t.Helper()
		for i := range got {
			if !got[i].Levels.Equal(want[i].Levels) {
				t.Fatalf("%s sample %d: levels differ\n%s\nvs\n%s", name, i, got[i].Levels.Render(), want[i].Levels.Render())
			}
			if got[i].CompositeCells != want[i].CompositeCells {
				t.Fatalf("%s sample %d: composite cells %d vs %d", name, i, got[i].CompositeCells, want[i].CompositeCells)
			}
			sameField64(t, name, got[i].Field, want[i].Field)
		}
	}
	for _, b := range []int{1, 3, 8} {
		got := fm.BeginBatch(flows[:b]).Finish(patch.MaxLevel)
		check("batch", got, solo[:b])
	}
	// 11 flows as 8 + a tail of 3.
	head := fm.BeginBatch(flows[:8]).Finish(patch.MaxLevel)
	tail := fm.BeginBatch(flows[8:]).Finish(patch.MaxLevel)
	check("head", head, solo[:8])
	check("tail", tail, solo[8:])
}

// TestModel32CheckpointRoundTrip freezes the same weights twice — once from
// the live model, once through a save/load cycle — and requires bit-identical
// fast-path inferences: gob float64 is exact and Freeze32 rounds each weight
// exactly once, so a deployed float32 replica must match the trainer's.
func TestModel32CheckpointRoundTrip(t *testing.T) {
	m, fm, flows := infer32Model(t, 1, 8, 16)
	path := t.TempDir() + "/model.gob"
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded := New(Config{PatchH: 4, PatchW: 4, Seed: 1234})
	if err := loaded.Load(path); err != nil {
		t.Fatal(err)
	}
	loaded.Norm = m.Norm
	fm2, err := NewModel32(loaded)
	if err != nil {
		t.Fatal(err)
	}
	a := fm.InferFlow(flows[0])
	b := fm2.InferFlow(flows[0])
	if !a.Levels.Equal(b.Levels) {
		t.Fatal("levels differ after checkpoint round trip")
	}
	sameField64(t, "roundtrip", a.Field, b.Field)
}

func TestNewModel32Untrained(t *testing.T) {
	if _, err := NewModel32(nil); !errors.Is(err, ErrUntrained) {
		t.Fatalf("err = %v, want ErrUntrained", err)
	}
}

// TestModel32MatchesFloat64 is the end-to-end accuracy gate: the float32
// fast path must choose the same refinement map as the float64 reference and
// reproduce its physical-units field within a per-channel range-relative
// tolerance (DESIGN.md §11). Level agreement is exact here because the
// scorer's softmax margins dwarf float32 rounding; the field tolerance
// budgets ~10 fused layers of 1e-4-relative error scaled by each channel's
// de-normalization span. The inputs are three fitted synthetic fields plus
// the paper's seven §5 test geometries at quick scale (16×64).
func TestModel32MatchesFloat64(t *testing.T) {
	m, fm, flows := infer32Model(t, 3, 16, 64)
	for _, c := range geometry.PaperTestCases(16, 64) {
		flows = append(flows, c.Build())
	}
	const relTol = 2e-3
	for i, f := range flows {
		ref := m.Infer(f)
		got := fm.InferFlow(f)
		if !got.Levels.Equal(ref.Levels) {
			t.Fatalf("flow %d: refinement maps differ\n%s\nvs\n%s", i, got.Levels.Render(), ref.Levels.Render())
		}
		if got.CompositeCells != ref.CompositeCells {
			t.Fatalf("flow %d: composite cells %d vs %d", i, got.CompositeCells, ref.CompositeCells)
		}
		rd, gd := ref.Field.Data(), got.Field.Data()
		if len(rd) != len(gd) {
			t.Fatalf("flow %d: field shapes %v vs %v", i, ref.Field.Shape(), got.Field.Shape())
		}
		for k := range rd {
			c := k % grid.NumChannels
			span := m.Norm.Max[c] - m.Norm.Min[c]
			tol := relTol * (span + math.Abs(rd[k]))
			if d := math.Abs(gd[k] - rd[k]); d > tol {
				t.Fatalf("flow %d elem %d (ch %d): |Δ|=%g > %g (got %v, ref %v)", i, k, c, d, tol, gd[k], rd[k])
			}
		}
		if got.MemoryBytes <= 0 {
			t.Fatalf("flow %d: fast path accounted no memory", i)
		}
	}
}

// TestModel32LevelCap mirrors the Fig. 11 truncated-inference sweep on the
// fast path: capping at n must clamp every level and shrink the field to the
// capped resolution, matching the float64 InferCap geometry.
func TestModel32LevelCap(t *testing.T) {
	m, fm, flows := infer32Model(t, 1, 8, 16)
	for cap := 0; cap <= patch.MaxLevel; cap++ {
		ref := m.InferCap(flows[0], cap)
		got := fm.InferFlowCap(flows[0], cap)
		if !got.Levels.Equal(ref.Levels) {
			t.Fatalf("cap %d: refinement maps differ", cap)
		}
		if got.Field.Dim(1) != ref.Field.Dim(1) || got.Field.Dim(2) != ref.Field.Dim(2) {
			t.Fatalf("cap %d: field %v vs reference %v", cap, got.Field.Shape(), ref.Field.Shape())
		}
	}
}
