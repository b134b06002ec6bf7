// Package adarnet is the public façade of this repository: a from-scratch Go
// reproduction of "ADARNet: Deep Learning Predicts Adaptive Mesh Refinement"
// (Obiols-Sales, Vishnu, Malaya, Chandramowlishwaran — ICPP 2023).
//
// ADARNet performs non-uniform super-resolution of RANS flow fields: a
// scorer network rates each patch of a low-resolution field, a ranker bins
// patches into target resolutions, and a shared decoder reconstructs every
// patch at its own resolution. Coupled with the physics solver, the one-shot
// inference replaces the iterative refine–solve loop of a traditional AMR
// solver while keeping the same convergence guarantees.
//
// The façade re-exports the user-facing pieces of the internal packages:
//
//   - model construction, training, inference: Model, New, Trainer
//   - batched serving: Predictor, Engine, NewEngine and its functional
//     options
//   - the physics substrate: Case constructors, Solve
//   - the baselines: AMRRun (feature-based AMR), SURFNet (uniform SR)
//   - the evaluation harness: experiment runners for every paper figure/table
//
// API conventions (DESIGN.md §8): long-running entry points take ctx as the
// first argument (RunE2EContext, SolveContext, RunAMRContext,
// GenerateDatasetContext, Trainer.Fit). Failure modes
// callers branch on are typed sentinels — ErrDiverged, ErrQueueFull,
// ErrEngineClosed, ErrUntrained, ErrInternal, ErrCheckpointCorrupt —
// wrapped with %w, matched via errors.Is.
//
// Fault containment (DESIGN.md §9): a panic is a programmer error at package
// boundaries, recovered only at the serve/CLI boundary. An engine worker
// converts a panicking forward pass into ErrInternal for the poisoned
// request while its batch-mates are retried and still succeed; checkpoints
// are written atomically (temp + fsync + rename) with an integrity header,
// so a crash mid-save never destroys the previous good file and damaged
// files fail loudly with ErrCheckpointCorrupt.
//
// Observability (DESIGN.md §10): every engine records per-stage latency
// histograms (queue wait, forward, assemble, end-to-end) and batch
// occupancy; EngineStats reports means and p50/p95/p99 tails derived from
// those histograms. WithMetrics attaches the serving instruments to a
// MetricsRegistry — DefaultMetrics is the process-wide registry exposed by
// the cmd binaries on /metrics in Prometheus text format — and WithLogger
// routes contained-panic reports to a structured *slog.Logger with the
// request IDs of the affected calls.
//
// Scale-out (DESIGN.md §13): run one engine per process and size it with
// WithWorkers and WithCache; the engine's solve gate already admits one LR
// solve per CPU.
//
// Caching (DESIGN.md §12): WithCache layers a content-addressed prediction
// cache over the engine — a sharded, byte-budgeted LRU keyed by the exact
// input field bytes plus the refinement parameters, with full-field equality
// on every hit, so repeated inputs across time are answered from memory
// bit-identically to recomputing them. Diverged solves are negative-cached
// with a short TTL (WithNegativeTTL); hit/miss/evicted/bytes appear in both
// EngineStats and the adarnet_serve_cache_* metrics.
//
// See examples/ for runnable end-to-end programs and DESIGN.md for the
// system inventory.
package adarnet

import (
	"context"
	"io"

	"adarnet/internal/amr"
	"adarnet/internal/bench"
	"adarnet/internal/core"
	"adarnet/internal/dataset"
	"adarnet/internal/geometry"
	"adarnet/internal/grid"
	"adarnet/internal/obs"
	"adarnet/internal/serve"
	"adarnet/internal/solver"
	"adarnet/internal/surfnet"
)

// Model is a trainable/trained ADARNet instance (scorer + ranker + decoder).
type Model = core.Model

// Config collects ADARNet's architecture and training hyperparameters.
type Config = core.Config

// Sample is one LR training example (field tensor + grid metadata).
type Sample = core.Sample

// Trainer optimizes a Model with Adam on the hybrid data+PDE loss.
type Trainer = core.Trainer

// Inference is a one-shot non-uniform super-resolution result.
type Inference = core.Inference

// E2EResult is a full LR-solve → inference → correction pipeline run.
type E2EResult = core.E2EResult

// Case is a fully specified flow problem (family, Re, domain, body).
type Case = geometry.Case

// Flow is the four-variable (U, V, p, ν̃) flow state on a uniform grid.
type Flow = grid.Flow

// SolverOptions configures the steady RANS-SA solver.
type SolverOptions = solver.Options

// SolverResult summarizes a steady solve.
type SolverResult = solver.Result

// AMRResult is a completed feature-based AMR baseline run.
type AMRResult = amr.Result

// AMRConfig tunes the feature-based AMR baseline.
type AMRConfig = amr.Config

// SURFNet is the uniform-super-resolution baseline model.
type SURFNet = surfnet.Model

// Engine is the batched, concurrent inference server (internal/serve): it
// micro-batches predictions across in-flight requests and demultiplexes the
// results to each caller.
type Engine = serve.Engine

// Health is a point-in-time engine readiness report (the /healthz JSON
// body); Ready is false once the engine is closed.
type Health = serve.Health

// Option configures an Engine at construction.
type Option = serve.Option

// EngineStats is a point-in-time snapshot of an engine's counters and
// latency distributions.
type EngineStats = serve.EngineStats

// Tail summarizes a latency distribution at the quantiles operators watch
// (p50/p95/p99); EngineStats carries one per pipeline stage.
type Tail = serve.Tail

// Precision selects an engine's numeric path: Float64 (default,
// bit-identical to direct Model inference) or Float32 (the frozen fused
// fast path; tolerance-bounded agreement, see DESIGN.md §11).
type Precision = serve.Precision

// Engine numeric paths for WithPrecision.
const (
	Float64 = serve.Float64
	Float32 = serve.Float32
)

// Model32 is a frozen float32 snapshot of a trained Model — the tape-free
// fused-kernel fast path behind WithPrecision(Float32), also usable
// directly for single-request inference.
type Model32 = core.Model32

// NewModel32 freezes a trained model into the float32 fast path; returns
// ErrUntrained for a nil or parameterless model.
func NewModel32(m *Model) (*Model32, error) { return core.NewModel32(m) }

// MetricsRegistry holds named metrics and renders them in Prometheus text
// exposition format (internal/obs).
type MetricsRegistry = obs.Registry

// DefaultMetrics is the process-wide metrics registry; the cmd binaries
// serve it on /metrics, and WithMetrics(DefaultMetrics) adds an
// engine's counters and stage histograms to it.
var DefaultMetrics = obs.Default

// Tracer assembles per-request span timelines with tail-based retention:
// every error and slow trace is kept, plus a deterministic sample of the
// rest (internal/obs, DESIGN.md §15). The serve engine, prediction cache,
// and async job service all emit spans into whatever trace rides the
// request context, so a retained timeline names every stage a request
// crossed — including a job's resumed runs in a later process.
type Tracer = obs.Tracer

// TracerConfig tunes a Tracer's sampling and retention; the zero value
// gets production defaults (keep 1-in-16, slow threshold 250ms, retain
// 256 traces).
type TracerConfig = obs.TracerConfig

// Span is one timed operation in a trace. A nil *Span is a valid no-op,
// so instrumented code paths never nil-check.
type Span = obs.Span

// NewTracer builds a span tracer. Start a root with Tracer.StartRequest
// and pass the returned context into Predict/PredictFlow; the pipeline
// emits its stage spans into that trace. adarnet-serve wires one behind
// its -trace-sample flag and serves the timelines on /debug/traces.
func NewTracer(cfg TracerConfig) *Tracer { return obs.NewTracer(cfg) }

// Predictor is the inference contract shared by the direct path (*Model,
// one request per forward pass) and the batched path (*Engine, requests
// micro-batched across callers). Both produce bit-identical results.
type Predictor interface {
	// Predict solves the case's LR field and infers the HR prediction.
	Predict(ctx context.Context, c *Case) (*Inference, error)
	// PredictFlow infers from an already-solved LR flow field.
	PredictFlow(ctx context.Context, lr *Flow) (*Inference, error)
}

// Both implementations are checked at compile time.
var (
	_ Predictor = (*Model)(nil)
	_ Predictor = (*Engine)(nil)
)

// Typed sentinel errors; matched with errors.Is against wrapped returns.
var (
	// ErrDiverged: the physics solver blew up (NaN/Inf).
	ErrDiverged = solver.ErrDiverged
	// ErrUntrained: an inference entry point got a nil/parameterless model.
	ErrUntrained = core.ErrUntrained
	// ErrQueueFull: the engine's bounded submission queue shed the request.
	ErrQueueFull = serve.ErrQueueFull
	// ErrEngineClosed: submission after Engine.Close.
	ErrEngineClosed = serve.ErrEngineClosed
	// ErrInternal: the request's forward pass panicked inside an engine
	// worker. The panic is contained (batch-mates are retried and still
	// succeed; the engine keeps serving); only the poisoned request fails.
	ErrInternal = serve.ErrInternal
	// ErrCheckpointCorrupt: a checkpoint failed integrity checks
	// (truncation, bit flips, undecodable payload) on Model.Load.
	ErrCheckpointCorrupt = core.ErrCheckpointCorrupt
)

// PanicError is the concrete error behind ErrInternal; errors.As exposes the
// recovered panic value and a truncated stack for logging.
type PanicError = serve.PanicError

// NewEngine starts a batched inference engine for a trained model.
func NewEngine(m *Model, opts ...Option) (*Engine, error) {
	return serve.New(m, opts...)
}

// Engine construction options.
var (
	// WithMaxBatch sets the batch flush size (default 8).
	WithMaxBatch = serve.WithMaxBatch
	// WithMaxDelay sets the partial-batch flush deadline (default 2ms).
	WithMaxDelay = serve.WithMaxDelay
	// WithWorkers sets the forward-pass worker count (default 2).
	WithWorkers = serve.WithWorkers
	// WithQueueDepth bounds the submission queue (default 64).
	WithQueueDepth = serve.WithQueueDepth
	// WithSolverOptions sets the LR-solve options Engine.Predict uses.
	WithSolverOptions = serve.WithSolverOptions
	// WithLevelCap clamps inferred refinement levels.
	WithLevelCap = serve.WithLevelCap
	// WithPrecision selects the engine's numeric path (default Float64).
	WithPrecision = serve.WithPrecision
	// WithCache enables the content-addressed prediction cache with a byte
	// budget: identical inputs recurring over time are answered from memory,
	// bypassing the LR solve, the queue and the forward pass, bit-identical
	// on both precision paths (default disabled; see DESIGN.md §12).
	WithCache = serve.WithCache
	// WithNegativeTTL sets the lifetime of negative cache entries — inputs
	// whose LR solve diverged are answered with the cached ErrDiverged for
	// this long instead of re-solving (default 10s; 0 disables).
	WithNegativeTTL = serve.WithNegativeTTL
	// WithMetrics attaches the serving counters and stage histograms to a
	// metrics registry (adarnet_serve_* on /metrics).
	WithMetrics = serve.WithMetrics
	// WithLogger routes contained-panic reports to a structured logger.
	WithLogger = serve.WithLogger
)

// DefaultConfig returns the paper's model configuration for a patch size.
func DefaultConfig(patchH, patchW int) Config { return core.DefaultConfig(patchH, patchW) }

// New builds an untrained ADARNet with Glorot-initialized weights.
func New(cfg Config) *Model { return core.New(cfg) }

// NewTrainer builds a trainer for the model.
func NewTrainer(m *Model) *Trainer { return core.NewTrainer(m) }

// RunE2EContext executes LR solve → one-shot inference → physics-solver
// correction, canceling between stages and inside each solve via ctx.
func RunE2EContext(ctx context.Context, m *Model, c *Case, opt SolverOptions) (*E2EResult, error) {
	return core.RunE2E(ctx, m, c, opt)
}

// SolveContext drives a flow to steady state with the RANS-SA solver,
// polling ctx between pseudo-time steps.
func SolveContext(ctx context.Context, f *Flow, opt SolverOptions) (SolverResult, error) {
	return solver.Solve(ctx, f, opt)
}

// DefaultSolverOptions returns robust solver settings.
func DefaultSolverOptions() SolverOptions { return solver.DefaultOptions() }

// RunAMRContext executes the iterative feature-based AMR baseline for a
// case, canceling between cycles and inside each solve via ctx.
func RunAMRContext(ctx context.Context, c *Case, cfg AMRConfig) (*AMRResult, error) {
	return amr.Run(ctx, c, cfg)
}

// DefaultAMRConfig mirrors the paper's AMR baseline setup.
func DefaultAMRConfig(patchH, patchW int) AMRConfig { return amr.DefaultConfig(patchH, patchW) }

// NewSURFNet builds the uniform-SR baseline at a per-side factor.
func NewSURFNet(factor int, seed int64) *SURFNet { return surfnet.New(factor, seed) }

// Case constructors for the paper's canonical flows (§4.1).
var (
	ChannelCase    = geometry.ChannelCase
	FlatPlateCase  = geometry.FlatPlateCase
	CylinderCase   = geometry.CylinderCase
	AirfoilCase    = geometry.AirfoilCase
	EllipseCase    = geometry.EllipseCase
	PaperTestCases = geometry.PaperTestCases
)

// GenerateDatasetContext runs the solver over the paper's training sweeps,
// aborting the sweep when ctx is canceled.
func GenerateDatasetContext(ctx context.Context, perFamily, h, w int) ([]Sample, error) {
	return dataset.Generate(ctx, dataset.DefaultOptions(perFamily, h, w))
}

// SplitDataset partitions samples into train/validation sets.
func SplitDataset(samples []Sample, valFrac float64) (train, val []Sample) {
	return dataset.Split(samples, valFrac)
}

// SaveDataset / LoadDataset persist corpora.
var (
	SaveDataset = dataset.SaveFile
	LoadDataset = dataset.LoadFile
)

// Experiment harness: regenerate the paper's figures and tables. scale is
// "tiny", "quick", or "full" (see internal/bench for their meanings).
type ExperimentEnv = bench.Env

// SetupExperiments prepares (and memoizes) the experiment environment. An
// unknown scale name is an explicit error — it no longer falls back to
// "quick" silently.
func SetupExperiments(scale string) (*ExperimentEnv, error) {
	s, err := bench.ScaleByName(scale)
	if err != nil {
		return nil, err
	}
	return bench.Setup(s), nil
}

// Experiment runners; each prints the figure/table rows to w.
func RunFig1(w io.Writer)                           { bench.Fig1(w) }
func RunFig9(e *ExperimentEnv, w io.Writer) error   { _, err := bench.Fig9(e, w); return err }
func RunFig10(e *ExperimentEnv, w io.Writer) error  { _, err := bench.Fig10(e, w); return err }
func RunFig11(e *ExperimentEnv, w io.Writer) error  { _, err := bench.Fig11(e, w); return err }
func RunTable1(e *ExperimentEnv, w io.Writer) error { _, err := bench.Table1(e, w); return err }
func RunTable2(e *ExperimentEnv, w io.Writer) error { _, err := bench.Table2(e, w); return err }
