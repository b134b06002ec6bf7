// Package solver drives the RANS-SA system to steady state. It is this
// repository's substitute for OpenFOAM's pimpleFoam (see DESIGN.md §2): both
// ADARNet's correction pass and the AMR baseline run through this same
// solver, so their relative costs (cells × iterations) are commensurable.
//
// Discretization: staggered (MAC) grid — u on vertical faces, v on
// horizontal faces, p and ν̃ at cell centers — which eliminates pressure
// checkerboarding by construction. Time integration is Chorin projection:
// an explicit upwind/central advection–diffusion predictor, a pressure
// Poisson solve by red-black SOR, and a divergence-free correction, marched
// in pseudo-time to steady state. Outflow carries a global mass correction
// so the all-Neumann Poisson problem stays compatible.
//
// Parallelism: sweeps are written strip-decomposed over rows
// (tensor.ParallelFor, the paper's MPI layout in miniature), and the
// red-black ordering would make parallel SOR sweeps race-free — but
// ParallelFor runs a sweep serially while h·32 < 65536, i.e. for any grid
// below 2048 rows, which is every grid in this tree. A solve is one
// goroutine's work. Forcing the fan-out on at 64×256 measured slower (238 →
// 260 ns per cell-iteration): a goroutine dispatch per sweep costs more than
// the rows it splits.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"

	"adarnet/internal/grid"
	"adarnet/internal/physics"
	"adarnet/internal/tensor"
)

// Options configures a steady solve.
type Options struct {
	// RTol is the convergence tolerance on the update norm relative to the
	// largest update norm seen (default 1e-3).
	RTol float64
	// ATol is an absolute update-norm floor that also counts as converged.
	ATol float64
	// Scale is the physical residual scale (units of U²/L). The run also
	// converges when res < RTol·Scale, which makes warm starts near the
	// solution terminate immediately instead of chasing a relative drop
	// from an already-tiny residual. Zero selects UIn²/domainLength.
	Scale float64
	// MaxIter caps pseudo-time steps.
	MaxIter int
	// CFL scales the time step (default 0.5).
	CFL float64
	// PoissonSweeps is the number of red-black SOR sweeps per step.
	PoissonSweeps int
	// CheckEvery controls how often convergence is evaluated.
	CheckEvery int
	// StallChecks is the number of consecutive checks without residual
	// improvement after which the run is declared a limit cycle and fields
	// are time-averaged (0 disables stall detection).
	StallChecks int
	// AvgWindow is the number of steps to average over once a limit cycle
	// is detected (default 10 × CheckEvery).
	AvgWindow int
	// Monitor, when non-nil, receives (iter, residual) at every check.
	Monitor func(iter int, res float64)
	// CheckpointEvery is the iteration cadence of resumable snapshots
	// (0 disables). Snapshots are taken at convergence-check boundaries, so
	// the effective cadence is CheckpointEvery rounded up to a multiple of
	// CheckEvery.
	CheckpointEvery int
	// CheckpointSink, when non-nil, receives each periodic snapshot. The
	// snapshot owns its arrays (deep copies), so the sink may retain or
	// serialize it without racing the solve.
	CheckpointSink func(ck *Checkpoint)
	// Resume, when non-nil, continues a previous solve of the same problem
	// from the snapshot instead of initializing from f. The flow must be
	// built from the same case at the same resolution (mask, BCs, and
	// viscosity are taken from f; field state comes from the snapshot). A
	// resumed solve is bit-identical to the uninterrupted one: the snapshot
	// carries the staggered state, the warm-started pressure correction,
	// and every loop counter the remaining iterations read.
	Resume *Checkpoint
}

// Checkpoint is a lossless mid-solve snapshot: the staggered-grid state
// (face velocities, cell pressure and ν̃, the warm-started pressure
// correction φ) plus the convergence-loop counters. Unlike the collocated
// grid.Flow written back by Solve — whose face→cell averaging does not
// round-trip — resuming from a Checkpoint reproduces the remaining
// iterations bit-for-bit.
type Checkpoint struct {
	H, W      int
	Iteration int

	// Convergence-loop counters as of Iteration.
	Res, Res0, Best float64
	Stalled         int
	InletFlux       float64

	// Staggered state: u is (H)×(W+1) x-face velocities, v is (H+1)×(W)
	// y-face velocities, P/Nut/Phi are H×W cell fields.
	U, V, P, Nut, Phi []float64
}

// snapshot deep-copies the live state into a Checkpoint.
func (s *state) snapshot(iter int, res, res0, best float64, stalled int) *Checkpoint {
	return &Checkpoint{
		H: s.h, W: s.w, Iteration: iter,
		Res: res, Res0: res0, Best: best, Stalled: stalled,
		InletFlux: s.inletFlux,
		U:         append([]float64(nil), s.u...),
		V:         append([]float64(nil), s.v...),
		P:         append([]float64(nil), s.p...),
		Nut:       append([]float64(nil), s.nut...),
		Phi:       append([]float64(nil), s.phi...),
	}
}

// restore overlays a Checkpoint onto freshly initialized state. The
// geometry-derived members (mask, stencil, wall distance) keep the values
// newState computed from the flow; only the evolving fields and counters
// come from the snapshot.
func (s *state) restore(ck *Checkpoint) error {
	if ck.H != s.h || ck.W != s.w {
		return fmt.Errorf("solver: resume snapshot is %dx%d, flow is %dx%d", ck.H, ck.W, s.h, s.w)
	}
	for _, a := range []struct {
		dst, src []float64
		name     string
	}{
		{s.u, ck.U, "u"}, {s.v, ck.V, "v"},
		{s.p, ck.P, "p"}, {s.nut, ck.Nut, "nut"}, {s.phi, ck.Phi, "phi"},
	} {
		if len(a.src) != len(a.dst) {
			return fmt.Errorf("solver: resume snapshot %s has %d values, want %d", a.name, len(a.src), len(a.dst))
		}
		copy(a.dst, a.src)
	}
	s.inletFlux = ck.InletFlux
	return nil
}

// DefaultOptions returns robust settings for the canonical cases.
func DefaultOptions() Options {
	return Options{RTol: 1e-3, ATol: 1e-9, MaxIter: 30000, CFL: 0.5, PoissonSweeps: 30, CheckEvery: 25, StallChecks: 40}
}

// Result summarizes a steady solve.
type Result struct {
	Iterations int     // pseudo-time steps executed
	Residual   float64 // final steady-state residual (update RMS per unit time)
	Residual0  float64 // normalization residual
	Converged  bool
	// LimitCycle reports that the case reached a statistically steady limit
	// cycle (e.g. bluff-body vortex shedding) rather than a fixed point, and
	// the returned fields are the time average over the cycle window.
	LimitCycle bool
	Cells      int // fluid cells advanced per iteration
	Work       int // Iterations × Cells: the cost unit for TTC comparisons
}

// String renders a result for logs.
func (r Result) String() string {
	return fmt.Sprintf("iters=%d res=%.3e (res0=%.3e) converged=%v work=%d",
		r.Iterations, r.Residual, r.Residual0, r.Converged, r.Work)
}

// ErrDiverged is returned when the solution blows up (NaN/Inf detected).
var ErrDiverged = errors.New("solver: solution diverged")

// state holds the staggered-grid working arrays for an H×W cell domain.
type state struct {
	h, w   int
	dx, dy float64

	u   []float64 // x-face velocities, (h)×(w+1), index i*(w+1)+j
	v   []float64 // y-face velocities, (h+1)×(w), index i*w+j
	p   []float64 // cell pressure, h×w
	nut []float64 // cell SA variable, h×w
	phi []float64 // pressure correction, h×w

	us, vs    []float64 // predictor buffers
	nutNew    []float64
	uc, vc    []float64 // cell-centered velocities (derived)
	rhs       []float64 // Poisson right-hand side
	solid     []bool    // cell solidity (immersed mask), h×w
	dist      []float64 // wall distance at cells
	fluid     int       // fluid cell count
	bc        grid.Boundaries
	uin, nu   float64
	nutIn     float64
	uSolid    []bool // x-face blocked (adjacent solid), h×(w+1)
	vSolid    []bool // y-face blocked, (h+1)×w
	inletFlux float64

	// Precomputed Poisson stencil (constant: mask and BCs are fixed).
	coefE, coefW, coefN, coefS []float64 // neighbor couplings
	invAP                      []float64 // 1/aP, or 0 for decoupled cells
	rowMax                     []float64 // per-row SOR convergence scratch
}

// Solve advances f to steady state in place. The flow must have BCs, UIn,
// Nu, and NutIn configured; wall distance is computed on demand.
//
// The loop polls ctx between pseudo-time steps: on cancellation the partial
// solution is written back to f and the wrapped context error is returned
// (match with errors.Is(err, context.Canceled) / context.DeadlineExceeded).
// A nil ctx behaves as context.Background().
func Solve(ctx context.Context, f *grid.Flow, opt Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 30000
	}
	if opt.CFL <= 0 {
		opt.CFL = 0.5
	}
	if opt.PoissonSweeps <= 0 {
		opt.PoissonSweeps = 30
	}
	if opt.CheckEvery <= 0 {
		opt.CheckEvery = 25
	}
	if opt.RTol <= 0 {
		opt.RTol = 1e-3
	}
	if opt.ATol <= 0 {
		opt.ATol = 1e-9
	}
	if f.Dist == nil {
		grid.ComputeWallDistance(f)
	}

	s := newState(f)
	scale := opt.Scale
	if scale <= 0 {
		length := float64(f.W) * f.Dx
		if length <= 0 {
			length = 1
		}
		scale = math.Max(f.UIn*f.UIn, 1e-12) / length
	}
	absTol := opt.RTol * scale
	res0 := 0.0
	res := math.Inf(1)
	best := math.Inf(1)
	stalled := 0
	iter := 0
	if opt.Resume != nil {
		if err := s.restore(opt.Resume); err != nil {
			return Result{Cells: s.fluid}, err
		}
		iter = opt.Resume.Iteration
		res, res0 = opt.Resume.Res, opt.Resume.Res0
		best, stalled = opt.Resume.Best, opt.Resume.Stalled
	}
	// Snapshots land on convergence-check boundaries so the loop counters
	// they carry are exactly what the uninterrupted run would hold there.
	ckptEvery := 0
	if opt.CheckpointEvery > 0 && opt.CheckpointSink != nil {
		ckptEvery = (opt.CheckpointEvery + opt.CheckEvery - 1) / opt.CheckEvery * opt.CheckEvery
	}
	limitCycle := false
	for ; iter < opt.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			s.writeBack(f)
			return Result{Iterations: iter, Residual: res, Residual0: res0, Cells: s.fluid, Work: iter * s.fluid},
				fmt.Errorf("solver: canceled after %d iterations: %w", iter, err)
		}
		dt := s.timeStep(opt.CFL)
		upd := s.step(dt, opt.PoissonSweeps)

		if (iter+1)%opt.CheckEvery == 0 {
			res = upd
			if math.IsNaN(res) || math.IsInf(res, 0) {
				s.writeBack(f)
				return Result{Iterations: iter + 1, Residual: math.Inf(1), Residual0: res0, Cells: s.fluid, Work: (iter + 1) * s.fluid},
					fmt.Errorf("solver: NaN/Inf update at iteration %d: %w", iter+1, ErrDiverged)
			}
			if res > res0 {
				res0 = res
			}
			if opt.Monitor != nil {
				opt.Monitor(iter+1, res)
			}
			if res < opt.ATol || res < absTol || (res0 > 0 && res/res0 < opt.RTol) {
				iter++
				break
			}
			// Stall / limit-cycle detection: a physically unsteady case
			// (bluff-body shedding) plateaus instead of converging. Detect
			// the plateau and time-average the fields over a cycle window —
			// the statistically steady mean is what RANS reports.
			if opt.StallChecks > 0 {
				if res < 0.98*best {
					best = res
					stalled = 0
				} else if stalled++; stalled >= opt.StallChecks {
					limitCycle = true
					iter++
					break
				}
			}
			if ckptEvery > 0 && (iter+1)%ckptEvery == 0 {
				opt.CheckpointSink(s.snapshot(iter+1, res, res0, best, stalled))
			}
		}
	}
	if limitCycle {
		window := opt.AvgWindow
		if window <= 0 {
			window = 10 * opt.CheckEvery
		}
		s.averageOver(window, opt.CFL, opt.PoissonSweeps)
		iter += window
	}
	s.writeBack(f)
	if !f.IsFinite() {
		return Result{Iterations: iter, Residual: math.Inf(1), Residual0: res0, Cells: s.fluid, Work: iter * s.fluid},
			fmt.Errorf("solver: non-finite fields after %d iterations: %w", iter, ErrDiverged)
	}
	return Result{
		Iterations: iter,
		Residual:   res,
		Residual0:  res0,
		Converged:  limitCycle || res < opt.ATol || res < absTol || (res0 > 0 && res/res0 < opt.RTol),
		LimitCycle: limitCycle,
		Cells:      s.fluid,
		Work:       iter * s.fluid,
	}, nil
}

// averageOver marches window more steps, accumulating the running mean of
// every variable, and leaves the mean in the state arrays.
func (s *state) averageOver(window int, cfl float64, sweeps int) {
	sumU := make([]float64, len(s.u))
	sumV := make([]float64, len(s.v))
	sumP := make([]float64, len(s.p))
	sumN := make([]float64, len(s.nut))
	for k := 0; k < window; k++ {
		dt := s.timeStep(cfl)
		s.step(dt, sweeps)
		for i, val := range s.u {
			sumU[i] += val
		}
		for i, val := range s.v {
			sumV[i] += val
		}
		for i, val := range s.p {
			sumP[i] += val
		}
		for i, val := range s.nut {
			sumN[i] += val
		}
	}
	inv := 1 / float64(window)
	for i := range s.u {
		s.u[i] = sumU[i] * inv
	}
	for i := range s.v {
		s.v[i] = sumV[i] * inv
	}
	for i := range s.p {
		s.p[i] = sumP[i] * inv
	}
	for i := range s.nut {
		s.nut[i] = sumN[i] * inv
	}
	s.applyFaceBC(s.u, s.v)
	s.updateCellVelocitiesFrom(s.u, s.v)
}

// newState builds staggered arrays from the collocated flow (warm start).
func newState(f *grid.Flow) *state {
	h, w := f.H, f.W
	s := &state{
		h: h, w: w, dx: f.Dx, dy: f.Dy,
		u: make([]float64, h*(w+1)), v: make([]float64, (h+1)*w),
		p: make([]float64, h*w), nut: make([]float64, h*w), phi: make([]float64, h*w),
		us: make([]float64, h*(w+1)), vs: make([]float64, (h+1)*w),
		nutNew: make([]float64, h*w),
		uc:     make([]float64, h*w), vc: make([]float64, h*w),
		rhs:   make([]float64, h*w),
		solid: make([]bool, h*w), dist: make([]float64, h*w),
		bc: f.BC, uin: f.UIn, nu: f.Nu, nutIn: f.NutIn,
		uSolid: make([]bool, h*(w+1)), vSolid: make([]bool, (h+1)*w),
	}
	for i := 0; i < h*w; i++ {
		if f.Mask != nil && f.Mask[i] {
			s.solid[i] = true
		} else {
			s.fluid++
		}
		s.p[i] = f.P.Data[i]
		s.nut[i] = math.Max(f.Nut.Data[i], 0)
		s.dist[i] = f.Dist.Data[i]
	}
	// Face velocities from cell averages.
	for i := 0; i < h; i++ {
		for j := 0; j <= w; j++ {
			var val float64
			switch {
			case j == 0:
				val = f.U.Data[i*w]
			case j == w:
				val = f.U.Data[i*w+w-1]
			default:
				val = 0.5 * (f.U.Data[i*w+j-1] + f.U.Data[i*w+j])
			}
			s.u[i*(w+1)+j] = val
		}
	}
	for i := 0; i <= h; i++ {
		for j := 0; j < w; j++ {
			var val float64
			switch {
			case i == 0:
				val = f.V.Data[j]
			case i == h:
				val = f.V.Data[(h-1)*w+j]
			default:
				val = 0.5 * (f.V.Data[(i-1)*w+j] + f.V.Data[i*w+j])
			}
			s.v[i*w+j] = val
		}
	}
	// Mark solid-adjacent faces.
	for i := 0; i < h; i++ {
		for j := 0; j <= w; j++ {
			left := j > 0 && s.solid[i*w+j-1]
			right := j < w && s.solid[i*w+j]
			s.uSolid[i*(w+1)+j] = left || right
		}
	}
	for i := 0; i <= h; i++ {
		for j := 0; j < w; j++ {
			below := i > 0 && s.solid[(i-1)*w+j]
			above := i < h && s.solid[i*w+j]
			s.vSolid[i*w+j] = below || above
		}
	}
	s.applyFaceBC(s.u, s.v)
	s.inletFlux = s.flux(s.u, 0)
	s.buildPoissonStencil()
	return s
}

// buildPoissonStencil precomputes the constant Poisson coefficients: faces
// whose velocity is fixed (domain boundary or solid) carry no φ-gradient.
func (s *state) buildPoissonStencil() {
	h, w := s.h, s.w
	idx2, idy2 := 1/(s.dx*s.dx), 1/(s.dy*s.dy)
	n := h * w
	s.coefE = make([]float64, n)
	s.coefW = make([]float64, n)
	s.coefN = make([]float64, n)
	s.coefS = make([]float64, n)
	s.invAP = make([]float64, n)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			k := i*w + j
			if s.solid[k] {
				continue
			}
			var aP float64
			if j+1 < w && !s.solid[k+1] && !s.uSolid[i*(w+1)+j+1] {
				s.coefE[k] = idx2
				aP += idx2
			}
			if j > 0 && !s.solid[k-1] && !s.uSolid[i*(w+1)+j] {
				s.coefW[k] = idx2
				aP += idx2
			}
			if i+1 < h && !s.solid[k+w] && !s.vSolid[(i+1)*w+j] {
				s.coefN[k] = idy2
				aP += idy2
			}
			if i > 0 && !s.solid[k-w] && !s.vSolid[i*w+j] {
				s.coefS[k] = idy2
				aP += idy2
			}
			if aP > 0 {
				s.invAP[k] = 1 / aP
			}
		}
	}
}

// flux integrates u over face column j.
func (s *state) flux(u []float64, j int) float64 {
	total := 0.0
	for i := 0; i < s.h; i++ {
		if !s.uSolid[i*(s.w+1)+j] {
			total += u[i*(s.w+1)+j] * s.dy
		}
	}
	return total
}

// applyFaceBC enforces boundary and solid-face conditions on a velocity pair.
func (s *state) applyFaceBC(u, v []float64) {
	h, w := s.h, s.w
	// Left boundary (x-faces, column 0).
	for i := 0; i < h; i++ {
		switch s.bc.Left {
		case grid.Inlet, grid.FarField:
			u[i*(w+1)] = s.uin
		case grid.Outlet:
			u[i*(w+1)] = u[i*(w+1)+1]
		case grid.Wall, grid.Symmetry:
			u[i*(w+1)] = 0
		}
	}
	// Right boundary (x-faces, column w): zero-gradient then mass-corrected.
	outFlux := 0.0
	openOut := 0.0
	for i := 0; i < h; i++ {
		switch s.bc.Right {
		case grid.Outlet:
			u[i*(w+1)+w] = u[i*(w+1)+w-1]
			if !s.uSolid[i*(w+1)+w] {
				outFlux += u[i*(w+1)+w] * s.dy
				openOut += s.dy
			}
		case grid.Inlet, grid.FarField:
			u[i*(w+1)+w] = s.uin
		case grid.Wall, grid.Symmetry:
			u[i*(w+1)+w] = 0
		}
	}
	if s.bc.Right == grid.Outlet && openOut > 0 {
		// Global mass correction: shift outlet flux to match inlet flux so
		// the all-Neumann Poisson problem is compatible.
		in := s.inletFlux
		if in == 0 {
			in = s.flux(u, 0)
		}
		shift := (in - outFlux) / openOut
		for i := 0; i < h; i++ {
			if !s.uSolid[i*(w+1)+w] {
				u[i*(w+1)+w] += shift
			}
		}
	}
	// Bottom boundary (y-faces, row 0) and top (row h).
	for j := 0; j < w; j++ {
		switch s.bc.Bottom {
		case grid.Wall, grid.Symmetry, grid.FarField:
			v[j] = 0
		case grid.Inlet:
			v[j] = 0
		case grid.Outlet:
			v[j] = v[w+j]
		}
		switch s.bc.Top {
		case grid.Wall, grid.Symmetry, grid.FarField:
			v[h*w+j] = 0
		case grid.Inlet:
			v[h*w+j] = 0
		case grid.Outlet:
			v[h*w+j] = v[(h-1)*w+j]
		}
	}
	// Solid faces.
	for i, b := range s.uSolid {
		if b {
			u[i] = 0
		}
	}
	for i, b := range s.vSolid {
		if b {
			v[i] = 0
		}
	}
}

// ghost coefficients for tangential velocities along horizontal boundaries:
// returns g such that u_ghost = g*u_inner + c.
func tangentialGhost(bc grid.BCType, uin float64) (g, c float64) {
	switch bc {
	case grid.Wall:
		return -1, 0 // no-slip
	case grid.Symmetry, grid.Outlet:
		return 1, 0 // zero gradient
	case grid.FarField, grid.Inlet:
		return -1, 2 * uin // Dirichlet u = uin at the boundary
	default:
		return 1, 0
	}
}

// timeStep returns a stable global dt for the current state.
func (s *state) timeStep(cfl float64) float64 {
	maxU, maxV := 1e-12, 1e-12
	for _, val := range s.u {
		if a := math.Abs(val); a > maxU {
			maxU = a
		}
	}
	for _, val := range s.v {
		if a := math.Abs(val); a > maxV {
			maxV = a
		}
	}
	maxNut := 0.0
	for _, n := range s.nut {
		if n > maxNut {
			maxNut = n
		}
	}
	nuEff := s.nu + physics.EddyViscosity(maxNut, s.nu)
	adv := maxU/s.dx + maxV/s.dy
	diff := 2 * nuEff * (1/(s.dx*s.dx) + 1/(s.dy*s.dy))
	return cfl / (adv + diff)
}

// step advances one projection step and returns the update RMS per unit time.
func (s *state) step(dt float64, sweeps int) float64 {
	s.predict(dt)
	s.applyFaceBC(s.us, s.vs)
	s.project(dt, sweeps)
	s.applyFaceBC(s.us, s.vs)
	s.updateCellVelocities()
	s.saStep(dt)

	// Update norm: RMS((u_new - u_old)/dt).
	sum := 0.0
	n := 0
	for i := range s.u {
		d := s.us[i] - s.u[i]
		sum += d * d
		n++
	}
	for i := range s.v {
		d := s.vs[i] - s.v[i]
		sum += d * d
		n++
	}
	s.u, s.us = s.us, s.u
	s.v, s.vs = s.vs, s.v
	s.nut, s.nutNew = s.nutNew, s.nut
	return math.Sqrt(sum/float64(n)) / dt
}

// predict computes the advection–diffusion predictor u*, v*.
func (s *state) predict(dt float64) {
	h, w := s.h, s.w
	u, v := s.u, s.v
	us, vs := s.us, s.vs
	dx, dy := s.dx, s.dy
	gB, cB := tangentialGhost(s.bc.Bottom, s.uin)
	gT, cT := tangentialGhost(s.bc.Top, s.uin)

	// u faces: interior columns j=1..w-1 over all rows.
	tensor.ParallelFor(h, func(rs, re int) {
		for i := rs; i < re; i++ {
			row := i * (w + 1)
			for j := 1; j < w; j++ {
				k := row + j
				if s.uSolid[k] {
					us[k] = 0
					continue
				}
				uk := u[k]
				// v interpolated to the u-face.
				vf := 0.25 * (v[i*w+j-1] + v[i*w+j] + v[(i+1)*w+j-1] + v[(i+1)*w+j])

				// Upwind ∂u/∂x.
				var dudx float64
				if uk >= 0 {
					dudx = (uk - u[k-1]) / dx
				} else {
					dudx = (u[k+1] - uk) / dx
				}
				// Neighbors in y with boundary ghosts.
				var uS, uN float64
				if i > 0 {
					uS = u[k-(w+1)]
				} else {
					uS = gB*uk + cB
				}
				if i < h-1 {
					uN = u[k+(w+1)]
				} else {
					uN = gT*uk + cT
				}
				var dudy float64
				if vf >= 0 {
					dudy = (uk - uS) / dy
				} else {
					dudy = (uN - uk) / dy
				}

				// Effective viscosity at the face (average of flanking cells).
				nuEff := s.nu + 0.5*(physics.EddyViscosity(s.nut[i*w+j-1], s.nu)+physics.EddyViscosity(s.nut[i*w+j], s.nu))
				lap := (u[k+1]-2*uk+u[k-1])/(dx*dx) + (uN-2*uk+uS)/(dy*dy)

				us[k] = uk + dt*(-uk*dudx-vf*dudy+nuEff*lap)
			}
		}
	})

	// v faces: interior rows i=1..h-1 over all columns.
	tensor.ParallelFor(h-1, func(rs, re int) {
		for ii := rs; ii < re; ii++ {
			i := ii + 1
			for j := 0; j < w; j++ {
				k := i*w + j
				if s.vSolid[k] {
					vs[k] = 0
					continue
				}
				vk := v[k]
				// u interpolated to the v-face.
				uf := 0.25 * (u[(i-1)*(w+1)+j] + u[(i-1)*(w+1)+j+1] + u[i*(w+1)+j] + u[i*(w+1)+j+1])

				// Neighbors in x with boundary ghosts: left inlet/farfield has
				// v=0 (Dirichlet), outlet zero-gradient.
				var vW, vE float64
				if j > 0 {
					vW = v[k-1]
				} else {
					switch s.bc.Left {
					case grid.Outlet:
						vW = vk
					default:
						vW = -vk // v=0 on the boundary
					}
				}
				if j < w-1 {
					vE = v[k+1]
				} else {
					switch s.bc.Right {
					case grid.Outlet:
						vE = vk
					default:
						vE = -vk
					}
				}
				var dvdx float64
				if uf >= 0 {
					dvdx = (vk - vW) / dx
				} else {
					dvdx = (vE - vk) / dx
				}
				var dvdy float64
				if vk >= 0 {
					dvdy = (vk - v[k-w]) / dy
				} else {
					dvdy = (v[k+w] - vk) / dy
				}

				nuEff := s.nu + 0.5*(physics.EddyViscosity(s.nut[(i-1)*w+j], s.nu)+physics.EddyViscosity(s.nut[i*w+j], s.nu))
				lap := (vE-2*vk+vW)/(dx*dx) + (v[k+w]-2*vk+v[k-w])/(dy*dy)

				vs[k] = vk + dt*(-uf*dvdx-vk*dvdy+nuEff*lap)
			}
		}
	})
	// Boundary faces are set by applyFaceBC after predict.
	for i := 0; i < h; i++ {
		us[i*(w+1)] = u[i*(w+1)]
		us[i*(w+1)+w] = u[i*(w+1)+w]
	}
	copy(vs[:w], v[:w])
	copy(vs[h*w:], v[h*w:])
}

// project solves ∇²φ = div(u*)/dt with red-black SOR and corrects u*, v*.
func (s *state) project(dt float64, sweeps int) {
	h, w := s.h, s.w
	us, vs := s.us, s.vs
	dx, dy := s.dx, s.dy

	// RHS and compatibility.
	mean := 0.0
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			k := i*w + j
			if s.solid[k] {
				s.rhs[k] = 0
				continue
			}
			div := (us[i*(w+1)+j+1]-us[i*(w+1)+j])/dx + (vs[(i+1)*w+j]-vs[i*w+j])/dy
			s.rhs[k] = div / dt
			mean += s.rhs[k]
		}
	}
	if s.fluid > 0 {
		mean /= float64(s.fluid)
		for k := range s.rhs {
			if !s.solid[k] {
				s.rhs[k] -= mean
			}
		}
	}

	// Red-black SOR over the precomputed stencil, with early exit once the
	// sweep update is negligible against the velocity scale (warm-started
	// steady flows need only a few sweeps per step).
	const omega = 1.7
	phi := s.phi
	if s.rowMax == nil {
		s.rowMax = make([]float64, h)
	}
	sweepTol := 1e-8 + 1e-6*s.uin*s.uin
	for sweep := 0; sweep < sweeps; sweep++ {
		for i := range s.rowMax {
			s.rowMax[i] = 0
		}
		for color := 0; color < 2; color++ {
			tensor.ParallelFor(h, func(rs, re int) {
				for i := rs; i < re; i++ {
					jstart := (i + color) % 2
					row := i * w
					rm := s.rowMax[i]
					for j := jstart; j < w; j += 2 {
						k := row + j
						inv := s.invAP[k]
						if inv == 0 {
							continue
						}
						var sum float64
						if c := s.coefE[k]; c != 0 {
							sum += c * phi[k+1]
						}
						if c := s.coefW[k]; c != 0 {
							sum += c * phi[k-1]
						}
						if c := s.coefN[k]; c != 0 {
							sum += c * phi[k+w]
						}
						if c := s.coefS[k]; c != 0 {
							sum += c * phi[k-w]
						}
						delta := omega * ((sum-s.rhs[k])*inv - phi[k])
						phi[k] += delta
						if delta < 0 {
							delta = -delta
						}
						if delta > rm {
							rm = delta
						}
					}
					s.rowMax[i] = rm
				}
			})
		}
		maxChange := 0.0
		for _, v := range s.rowMax {
			if v > maxChange {
				maxChange = v
			}
		}
		if maxChange < sweepTol {
			break
		}
	}
	// Pin the mean so φ stays bounded across steps.
	pm := 0.0
	for k, v := range phi {
		if !s.solid[k] {
			pm += v
		}
	}
	if s.fluid > 0 {
		pm /= float64(s.fluid)
		for k := range phi {
			if !s.solid[k] {
				phi[k] -= pm
			}
		}
	}

	// Correct interior fluid-fluid faces and accumulate pressure.
	tensor.ParallelFor(h, func(rs, re int) {
		for i := rs; i < re; i++ {
			for j := 1; j < w; j++ {
				k := i*(w+1) + j
				if s.uSolid[k] || s.solid[i*w+j] || s.solid[i*w+j-1] {
					continue
				}
				us[k] -= dt * (phi[i*w+j] - phi[i*w+j-1]) / dx
			}
		}
	})
	tensor.ParallelFor(h-1, func(rs, re int) {
		for ii := rs; ii < re; ii++ {
			i := ii + 1
			for j := 0; j < w; j++ {
				k := i*w + j
				if s.vSolid[k] || s.solid[i*w+j] || s.solid[(i-1)*w+j] {
					continue
				}
				vs[k] -= dt * (phi[i*w+j] - phi[(i-1)*w+j]) / dy
			}
		}
	})
	// Non-incremental Chorin: at steady state u* = u + dt·A(u) with
	// div(u) = 0, so ∇²φ = div(A(u)) and φ IS the steady kinematic
	// pressure. Assigning (not accumulating) keeps p bounded under the
	// truncated SOR solve.
	for k := range s.p {
		if !s.solid[k] {
			s.p[k] = phi[k]
		}
	}
}

// updateCellVelocities refreshes the cell-centered velocity caches from the
// corrected face velocities (the SA step and writeBack consume them).
func (s *state) updateCellVelocities() {
	s.updateCellVelocitiesFrom(s.us, s.vs)
}

// updateCellVelocitiesFrom averages explicit face arrays to cell centers.
func (s *state) updateCellVelocitiesFrom(u, v []float64) {
	h, w := s.h, s.w
	tensor.ParallelFor(h, func(rs, re int) {
		for i := rs; i < re; i++ {
			for j := 0; j < w; j++ {
				k := i*w + j
				s.uc[k] = 0.5 * (u[i*(w+1)+j] + u[i*(w+1)+j+1])
				s.vc[k] = 0.5 * (v[i*w+j] + v[(i+1)*w+j])
			}
		}
	})
}

// saStep advances the SA transport equation at cell centers.
func (s *state) saStep(dt float64) {
	h, w := s.h, s.w
	nut, out := s.nut, s.nutNew
	dx, dy := s.dx, s.dy
	tensor.ParallelFor(h, func(rs, re int) {
		for i := rs; i < re; i++ {
			for j := 0; j < w; j++ {
				k := i*w + j
				if s.solid[k] {
					out[k] = 0
					continue
				}
				nk := nut[k]
				// Neighbor values with BC ghosts.
				nE := s.nutNeighbor(i, j+1, k)
				nW := s.nutNeighbor(i, j-1, k)
				nN := s.nutNeighbor(i+1, j, k)
				nS := s.nutNeighbor(i-1, j, k)

				uc, vc := s.uc[k], s.vc[k]
				var dndx, dndy float64
				if uc >= 0 {
					dndx = (nk - nW) / dx
				} else {
					dndx = (nE - nk) / dx
				}
				if vc >= 0 {
					dndy = (nk - nS) / dy
				} else {
					dndy = (nN - nk) / dy
				}

				lap := (nE-2*nk+nW)/(dx*dx) + (nN-2*nk+nS)/(dy*dy)
				// Central gradient for the cb2 quadratic term.
				gx := (nE - nW) / (2 * dx)
				gy := (nN - nS) / (2 * dy)

				vort := s.vorticity(i, j)
				src := saSource(nk, s.nu, s.dist[k], vort)

				nNew := nk + dt*(-uc*dndx-vc*dndy+
					(s.nu+nk)/physics.SASigma*lap+
					physics.SACb2/physics.SASigma*(gx*gx+gy*gy)+
					src)
				if nNew < 0 {
					nNew = 0
				}
				out[k] = nNew
			}
		}
	})
}

// nutNeighbor returns ν̃ at cell (i,j) honoring boundaries: walls mirror to
// zero, inlet/farfield fix the freestream level, outlet/symmetry copy.
func (s *state) nutNeighbor(i, j, kSelf int) float64 {
	h, w := s.h, s.w
	if i >= 0 && i < h && j >= 0 && j < w {
		k := i*w + j
		if s.solid[k] {
			return -s.nut[kSelf] // wall: ν̃ = 0 at the solid face
		}
		return s.nut[k]
	}
	var bc grid.BCType
	switch {
	case j < 0:
		bc = s.bc.Left
	case j >= w:
		bc = s.bc.Right
	case i < 0:
		bc = s.bc.Bottom
	default:
		bc = s.bc.Top
	}
	switch bc {
	case grid.Wall:
		return -s.nut[kSelf]
	case grid.Inlet, grid.FarField:
		return s.nutIn
	default: // Outlet, Symmetry
		return s.nut[kSelf]
	}
}

// vorticity returns |∂v/∂x − ∂u/∂y| at cell (i,j) from face velocities.
func (s *state) vorticity(i, j int) float64 {
	h, w := s.h, s.w
	// ∂u/∂y from cell-centered u of vertical neighbors (ghosted).
	var uN, uS float64
	if i+1 < h {
		uN = s.uc[(i+1)*w+j]
	} else {
		g, c := tangentialGhost(s.bc.Top, s.uin)
		uN = g*s.uc[i*w+j] + c
	}
	if i > 0 {
		uS = s.uc[(i-1)*w+j]
	} else {
		g, c := tangentialGhost(s.bc.Bottom, s.uin)
		uS = g*s.uc[i*w+j] + c
	}
	dudy := (uN - uS) / (2 * s.dy)
	var vE, vW float64
	if j+1 < w {
		vE = s.vc[i*w+j+1]
	} else {
		vE = s.vc[i*w+j]
	}
	if j > 0 {
		vW = s.vc[i*w+j-1]
	} else {
		vW = 0
	}
	dvdx := (vE - vW) / (2 * s.dx)
	return math.Abs(dvdx - dudy)
}

// saSource is the SA production − destruction at one cell.
func saSource(nut, nu, d, vort float64) float64 {
	if nut < 0 {
		nut = 0
	}
	chi := nut / nu
	fv2 := physics.Fv2(chi)
	kd2 := physics.SAKappa * physics.SAKappa * d * d
	sTilde := vort + nut/kd2*fv2
	if sTilde < 0.3*vort {
		sTilde = 0.3 * vort
	}
	prod := physics.SACb1 * sTilde * nut

	rr := 10.0
	if sTilde > 1e-12 {
		rr = nut / (sTilde * kd2)
		if rr > 10 {
			rr = 10
		}
	}
	g := rr + physics.SACw2*(pow6(rr)-rr)
	g6 := pow6(g)
	const cw36 = 64.0 // SACw3⁶ with cw3 = 2
	// x^(1/6) = cbrt(sqrt(x)): avoids math.Pow in the per-cell hot path.
	fw := g * math.Cbrt(math.Sqrt((1+cw36)/(g6+cw36)))
	destr := physics.SACw1 * fw * (nut / d) * (nut / d)
	return prod - destr
}

// pow6 computes x⁶ with three multiplies.
func pow6(x float64) float64 {
	x2 := x * x
	return x2 * x2 * x2
}

// writeBack copies the staggered solution into the collocated flow.
func (s *state) writeBack(f *grid.Flow) {
	h, w := s.h, s.w
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			k := i*w + j
			f.U.Data[k] = 0.5 * (s.u[i*(w+1)+j] + s.u[i*(w+1)+j+1])
			f.V.Data[k] = 0.5 * (s.v[i*w+j] + s.v[(i+1)*w+j])
			f.P.Data[k] = s.p[k]
			f.Nut.Data[k] = s.nut[k]
		}
	}
	grid.ApplyMask(f)
}
