// Accelerated iterative reconstruction: conjugate gradient on the normal
// equations (CGNR), using only optical forward/adjoint passes.
//
// Gradient descent on ‖Φx − y‖² (Landweber) takes a fixed step and a
// fixed iteration count: 2·iters optical passes per sample no matter how
// fast the residual dies. CGNR chooses the step α from the measured
// quantities themselves (α = ‖Φᵀr‖²/‖Φp‖²) and keeps conjugate search
// directions, so the rank-1 per-window CA system converges in ONE exact
// iteration — and a convergence-based stopping rule replaces the fixed
// count: the loop exits as soon as the
// measurement residual |r| falls under tol·|y|, or strictly stops making
// progress (which also makes the committed residual trace monotone by
// construction: a non-improving iterate is never committed).
//
// Physical constraints are preserved — every streamed activation stays
// in [0, 1]:
//
//   - The search direction p may go negative and exceed 1 once
//     quantization perturbs the residual, so the forward pass Φp is
//     sign-split: p⁺/pmax and p⁻/pmax stream as two non-negative drives
//     (the negative pass is skipped entirely when p is non-negative —
//     the common case for the all-positive CA row) and the readouts are
//     recombined digitally as q = (q⁺ − q⁻)·wmax·pmax.
//   - The adjoint pass Φᵀr streams |r| clamped to 1, with the sign and
//     any excess magnitude restored digitally on the readout.
//
// Pass p of sample j draws its noise from DeriveSeed(DeriveSeed(seed, j),
// pass), so the output is bit-identical for any worker count even though
// different samples run different pass counts.
package kernels

import (
	"fmt"
	"math"
	"sync/atomic"

	"lightator/internal/oc"
	"lightator/internal/sensor"
	"lightator/internal/trace"
)

// SolverStats is implemented by iterative kernels that meter their
// optical work: PassTotals reports how many optical passes all Apply
// calls so far have executed and over how many compressed samples, so
// adaptive stopping is observable (passes/samples is the realized
// average pass count — the end-to-end bench reports it as
// kernels.reconstruct-cg.passes_per_sample).
// Reference never counts: it runs no optical passes.
type SolverStats interface {
	PassTotals() (passes, samples uint64)
}

// passFn executes one programmed-matrix pass into dst: optical on the
// Apply path, exact on the Reference path.
type passFn func(pm *oc.ProgrammedMatrix, dst, in []float64, seed int64) error

// DefaultCGMaxIters caps the CGNR loop. The rank-1 CA system converges
// in one exact iteration; the cap only bounds the quantized path, which
// the no-progress rule almost always stops first.
const DefaultCGMaxIters = 6

// DefaultCGTol is the default relative stopping tolerance: the loop
// exits once |r| <= tol·|y|.
const DefaultCGTol = 0.01

// CGOp is the CGNR reconstruction kernel: per compressed sample it runs
// conjugate-gradient iterations on the normal equations using optical
// forward (Φ, a 1 x n² row) and adjoint (Φᵀ, an n² x 1 column) passes,
// stopping on residual convergence instead of a fixed iteration count.
type CGOp struct {
	name     string
	desc     string
	n        int     // pooling factor == output block side
	maxIters int     // iteration cap; the stopping rule usually exits earlier
	tol      float64 // relative residual tolerance: stop at |r| <= tol·|y|
	w        []float64
	gram     float64
	wmax     float64
	fwd      *oc.ProgrammedMatrix // 1 x n²: the CA row w
	adj      *oc.ProgrammedMatrix // n² x 1: the CA column wᵀ
	// passes and samples accumulate lock-free from concurrent Apply
	// shards (SolverStats).
	passes, samples atomic.Uint64
}

// NewReconstructCG builds the CGNR reconstruction kernel. maxIters <= 0
// takes DefaultCGMaxIters; tol <= 0 takes DefaultCGTol. The programmed
// matrices carry w/wmax (full-scale normalisation, like LinOp) with the
// factor restored digitally.
func NewReconstructCG(core *oc.Core, poolN, maxIters int, tol float64) (*CGOp, error) {
	if maxIters <= 0 {
		maxIters = DefaultCGMaxIters
	}
	if tol <= 0 {
		tol = DefaultCGTol
	}
	w, gram, wmax, err := caGeometry(poolN)
	if err != nil {
		return nil, err
	}
	norm := make([]float64, len(w))
	adjRows := make([][]float64, len(w))
	for i, v := range w {
		norm[i] = v / wmax
		adjRows[i] = []float64{v / wmax}
	}
	fwd, err := core.Program([][]float64{norm})
	if err != nil {
		return nil, err
	}
	adj, err := core.Program(adjRows)
	if err != nil {
		return nil, err
	}
	// Separate health components per pass, so a fault plan (and the
	// recovery ladder) can address each pass independently.
	fwd.SetLabel("kernel:reconstruct-cg/fwd")
	adj.SetLabel("kernel:reconstruct-cg/adj")
	return &CGOp{
		name: "reconstruct-cg",
		desc: fmt.Sprintf("conjugate-gradient (CGNR) least-squares reconstruction: adaptive optical forward/adjoint passes per %dx%d block, residual stopping at %g relative (cap %d iterations)", poolN, poolN, tol, maxIters),
		n:    poolN, maxIters: maxIters, tol: tol,
		w: w, gram: gram, wmax: wmax,
		fwd: fwd, adj: adj,
	}, nil
}

// PassTotals implements SolverStats: realized optical pass counts across
// all Apply calls, which is how the adaptive stopping rule is observed
// (the static Ops accounting is a worst-case bound).
func (o *CGOp) PassTotals() (passes, samples uint64) {
	return o.passes.Load(), o.samples.Load()
}

// Name implements Kernel.
func (o *CGOp) Name() string { return o.name }

// Description implements Kernel.
func (o *CGOp) Description() string { return o.desc }

// Degraded reports whether either programmed bank is serving degraded
// output (retired rows or unrecovered ABFT detections).
func (o *CGOp) Degraded() bool { return o.fwd.Degraded() || o.adj.Degraded() }

// OutDims implements Kernel.
func (o *CGOp) OutDims(h, w int) (int, int, error) {
	if h < 1 || w < 1 {
		return 0, 0, fmt.Errorf("kernels: %s: empty plane %dx%d", o.name, h, w)
	}
	return h * o.n, w * o.n, nil
}

// Ops implements Kernel. Op counts are static (derived from programmed
// geometry at trace time, never measured), so the adaptive loop is
// accounted at its worst case: one initial adjoint pass plus maxIters
// iterations of two sign-split forward passes and one adjoint pass per
// sample. Realized pass counts — usually far lower — are observable via
// PassTotals.
func (o *CGOp) Ops(h, w int) (trace.OpCounts, error) {
	if _, _, err := o.OutDims(h, w); err != nil {
		return trace.OpCounts{}, err
	}
	samples := int64(h) * int64(w)
	n2 := int64(o.n) * int64(o.n)
	adjPasses := samples * int64(1+o.maxIters)
	fwdPasses := samples * int64(2*o.maxIters)
	return trace.OpCounts{
		MVMRows:        adjPasses*n2 + fwdPasses,
		DACSettles:     (adjPasses + fwdPasses) * n2,
		ADCConversions: adjPasses*n2 + fwdPasses,
		MRCoeffHolds:   (adjPasses + fwdPasses) * n2,
		ABFTChecks:     o.fwd.ABFTChecksPer(fwdPasses) + o.adj.ABFTChecksPer(adjPasses),
	}, nil
}

// cgScratch is one shard's worth of pooled CGNR state: the n² iterate x,
// search direction p, adjoint readout s, forward drive buffer, and the
// 1-element forward readout and adjoint input. All from the shared oc
// scratch arena — the steady-state loop allocates nothing.
type cgScratch struct {
	x, p, s, drv  *[]float64
	fwdOut, adjIn *[]float64
}

func (o *CGOp) getScratch() cgScratch {
	n2 := o.n * o.n
	return cgScratch{
		x:      oc.GetScratch(n2),
		p:      oc.GetScratch(n2),
		s:      oc.GetScratch(n2),
		drv:    oc.GetScratch(n2),
		fwdOut: oc.GetScratch(1),
		adjIn:  oc.GetScratch(1),
	}
}

func (s cgScratch) release() {
	oc.PutScratch(s.x)
	oc.PutScratch(s.p)
	oc.PutScratch(s.s)
	oc.PutScratch(s.drv)
	oc.PutScratch(s.fwdOut)
	oc.PutScratch(s.adjIn)
}

// solve runs the CGNR loop for one compressed sample y, filling the n²
// iterate sc.x, and returns the number of optical passes executed. Pass
// p of the sample uses seed DeriveSeed(seed, p). resTrace, when non-nil,
// receives |r| after the initial residual and after every committed
// iteration — committed residuals decrease strictly monotonically
// because a non-improving iterate is never committed.
func (o *CGOp) solve(y float64, sc cgScratch, seed int64, apply passFn, resTrace *[]float64) (int, error) {
	x, p, s, drv := *sc.x, *sc.p, *sc.s, *sc.drv
	for i := range x {
		x[i] = 0
	}
	pass := 0

	// adjoint computes dst = Φᵀ·r: |r| streams clamped to [0,1], the sign
	// and any excess restored digitally (factor r/drive), and the
	// programmed w/wmax normalisation undone by wmax.
	adjoint := func(r float64, dst []float64) error {
		amp := math.Abs(r)
		if amp == 0 {
			for i := range dst {
				dst[i] = 0
			}
			return nil
		}
		drive := amp
		if drive > 1 {
			drive = 1
		}
		(*sc.adjIn)[0] = drive
		if err := apply(o.adj, dst, *sc.adjIn, oc.DeriveSeed(seed, pass)); err != nil {
			return err
		}
		pass++
		factor := o.wmax * r / drive
		for i := range dst {
			dst[i] *= factor
		}
		return nil
	}

	// forward computes q = Φ·p via sign-split non-negative drives: p⁺/pmax
	// and p⁻/pmax each stream in [0,1]; the negative pass is skipped when
	// p has no negative entries (the exact-arithmetic CA case).
	forward := func() (float64, error) {
		pmax := 0.0
		hasNeg := false
		for _, v := range p {
			if v < 0 {
				hasNeg = true
				if -v > pmax {
					pmax = -v
				}
			} else if v > pmax {
				pmax = v
			}
		}
		if pmax == 0 {
			return 0, nil
		}
		q := 0.0
		hasPos := false
		for i, v := range p {
			if v > 0 {
				drv[i] = v / pmax
				hasPos = true
			} else {
				drv[i] = 0
			}
		}
		if hasPos {
			if err := apply(o.fwd, *sc.fwdOut, drv, oc.DeriveSeed(seed, pass)); err != nil {
				return 0, err
			}
			pass++
			q += (*sc.fwdOut)[0] * o.wmax * pmax
		}
		if hasNeg {
			for i, v := range p {
				if v < 0 {
					drv[i] = -v / pmax
				} else {
					drv[i] = 0
				}
			}
			if err := apply(o.fwd, *sc.fwdOut, drv, oc.DeriveSeed(seed, pass)); err != nil {
				return 0, err
			}
			pass++
			q -= (*sc.fwdOut)[0] * o.wmax * pmax
		}
		return q, nil
	}

	r := y
	absY := math.Abs(y)
	if resTrace != nil {
		*resTrace = append(*resTrace, math.Abs(r))
	}
	if err := adjoint(r, s); err != nil {
		return pass, err
	}
	gamma := 0.0
	for i, v := range s {
		p[i] = v
		gamma += v * v
	}
	for t := 0; t < o.maxIters && gamma > 0; t++ {
		q, err := forward()
		if err != nil {
			return pass, err
		}
		if q == 0 {
			// The direction quantized to nothing measurable; a step would
			// divide by zero.
			break
		}
		alpha := gamma / (q * q)
		rNew := r - alpha*q
		// Strict no-progress stop: commit only improving iterates (this is
		// what keeps the committed residual trace monotone, and it also
		// rejects NaN steps).
		if !(math.Abs(rNew) < math.Abs(r)) {
			break
		}
		for i := range x {
			x[i] += alpha * p[i]
		}
		r = rNew
		if resTrace != nil {
			*resTrace = append(*resTrace, math.Abs(r))
		}
		if math.Abs(r) <= o.tol*absY {
			break
		}
		if err := adjoint(r, s); err != nil {
			return pass, err
		}
		gammaNew := 0.0
		for _, v := range s {
			gammaNew += v * v
		}
		if gammaNew == 0 {
			break
		}
		beta := gammaNew / gamma
		for i := range p {
			p[i] = s[i] + beta*p[i]
		}
		gamma = gammaNew
	}
	return pass, nil
}

// run shards the plane's samples across workers, each sample seeded with
// DeriveSeed(seed, j) — the same per-window scheme as LinOp.
// countPasses is true only on the optical path: Reference runs no
// optical passes and must not perturb the SolverStats totals.
func (o *CGOp) run(plane *sensor.Image, seed int64, workers int, countPasses bool, newApply func() (passFn, func())) (*sensor.Image, error) {
	if err := checkPlane(o.name, plane); err != nil {
		return nil, err
	}
	if _, _, err := o.OutDims(plane.H, plane.W); err != nil {
		return nil, err
	}
	out := sensor.NewImage(plane.H*o.n, plane.W*o.n, 1)
	err := oc.ShardRange(plane.H*plane.W, workers, func(lo, hi int) error {
		apply, release := newApply()
		defer release()
		sc := o.getScratch()
		defer sc.release()
		shardPasses := uint64(0)
		for j := lo; j < hi; j++ {
			passes, err := o.solve(plane.Pix[j], sc, oc.DeriveSeed(seed, j), apply, nil)
			if err != nil {
				return fmt.Errorf("kernels: %s: sample %d: %w", o.name, j, err)
			}
			shardPasses += uint64(passes)
			x := *sc.x
			wy, wx := j/plane.W, j%plane.W
			for by := 0; by < o.n; by++ {
				for bx := 0; bx < o.n; bx++ {
					out.Pix[(wy*o.n+by)*out.W+wx*o.n+bx] = x[by*o.n+bx]
				}
			}
		}
		if countPasses {
			o.passes.Add(shardPasses)
			o.samples.Add(uint64(hi - lo))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Apply implements Kernel: every pass runs through the optical core.
func (o *CGOp) Apply(plane *sensor.Image, seed int64, workers int) (*sensor.Image, error) {
	return o.run(plane, seed, workers, true, func() (passFn, func()) {
		fwd, adj := o.fwd.NewApplier(), o.adj.NewApplier()
		apply := func(pm *oc.ProgrammedMatrix, dst, in []float64, seed int64) error {
			if pm == o.fwd {
				return fwd.ApplySeededInto(dst, in, seed)
			}
			return adj.ApplySeededInto(dst, in, seed)
		}
		return apply, func() {
			fwd.Release()
			adj.Release()
		}
	})
}

// exactPass is the exact-arithmetic pass executor Reference (and the
// white-box convergence tests) use: the real-valued CA row at the
// programmed matrices' w/wmax normalisation.
func (o *CGOp) exactPass(pm *oc.ProgrammedMatrix, dst, in []float64, _ int64) error {
	if pm == o.fwd {
		sum := 0.0
		for i, v := range o.w {
			sum += v / o.wmax * in[i]
		}
		dst[0] = sum
		return nil
	}
	for i, v := range o.w {
		dst[i] = v / o.wmax * in[0]
	}
	return nil
}

// Reference implements Kernel: the same CGNR loop in exact float
// arithmetic against the real-valued CA weights. The rank-1 CA system
// converges in one exact iteration to the least-squares solution
// w·y/‖w‖².
func (o *CGOp) Reference(plane *sensor.Image) (*sensor.Image, error) {
	return o.run(plane, 0, 1, false, func() (passFn, func()) {
		return o.exactPass, func() {}
	})
}
