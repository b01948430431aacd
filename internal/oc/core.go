// Package oc implements Lightator's Optical Core (paper §3, Fig. 3): the
// All-in-One Convolver built from MR weight banks — 96 banks of 6 arms of
// 9 MRs — plus the Compressive Acquisitor banks that fuse RGB-to-grayscale
// conversion and average pooling into a single optical pass (Eq. 1).
//
// The core's job is matrix-vector multiplication: weights are quantized
// and mapped onto MR detunings (one arm per 9-tap segment), activations
// arrive as WDM light intensities from the DMVA, each arm's balanced
// photodetector produces one signed partial MAC, and the summation tree
// combines partial sums for kernels larger than one arm.
//
// Every MVM runs through one seeded apply body, Applier.ApplySeededInto
// (ProgrammedMatrix.ApplySeededInto is its one-shot form). The hot path
// is allocation-free in steady state: programmed coefficients live in one
// contiguous row-major array (applyRow is a linear scan), quantization
// scratch comes from a shared sync.Pool (GetScratch/PutScratch), per-row
// noise sources are pooled and re-seeded in place, and results land in
// caller-owned destinations. See docs/PERF.md for the hot-path inventory
// and the determinism-preserving optimization rules.
package oc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"lightator/internal/fault"
	"lightator/internal/mapping"
	"lightator/internal/photonics"
)

// Fidelity selects how faithfully the optical analog path is simulated.
type Fidelity int

const (
	// Ideal computes exact quantized arithmetic: weights and activations
	// are quantized but the MVM itself is error-free. This isolates
	// quantization effects from analog effects.
	Ideal Fidelity = iota
	// Physical adds WDM inter-channel crosstalk derived from the MR
	// Lorentzian tails (photonics.BankModel).
	Physical
	// PhysicalNoisy additionally injects balanced-photodetector shot and
	// thermal noise into every arm readout.
	PhysicalNoisy
)

// String implements fmt.Stringer.
func (f Fidelity) String() string {
	switch f {
	case Ideal:
		return "ideal"
	case Physical:
		return "physical"
	case PhysicalNoisy:
		return "physical+noise"
	default:
		return fmt.Sprintf("Fidelity(%d)", int(f))
	}
}

// Core is a configured optical core: a weight precision, an activation
// precision, and a simulation fidelity. It is safe to create one Core per
// layer precision and reuse it across layers.
type Core struct {
	// WBits is the weight precision mapped onto MR detunings (paper
	// configurations: 4, 3 or 2).
	WBits int
	// ABits is the activation precision of the DMVA drive (paper: 4).
	ABits int
	// Fidelity of the analog simulation.
	Fidelity Fidelity
	// NoABFT disables checksum-row derivation for matrices programmed
	// after it is set (benchmarks isolating the ABFT overhead, and tests
	// pinning the unprotected path). The default — ABFT on — is the
	// serving configuration.
	NoABFT bool

	bank *photonics.BankModel
	// faultPlan is the active fault-injection plan; matrices compile it
	// at SetLabel time. Nil (the default) injects nothing.
	faultPlan *fault.Plan
	// health is the per-component fault-tolerance registry, created
	// lazily on first use.
	health     *fault.Registry
	healthOnce sync.Once
	// noiseSigma is the output-referred RMS noise of one arm readout in
	// normalised MAC units, derived from the BPD device models.
	noiseSigma float64
	// actGrid[k] is the ABits activation code k's value, k/(2^ABits-1) —
	// the exact division QuantizeActivation's definition performs,
	// precomputed so the hot quantization loop is one multiply, one
	// round and one table load per element.
	actGrid []float64
	// gridW[l] is bank level l's grid weight, LevelToWeight(l): the exact
	// coefficient a tuned MR realises in Ideal fidelity. Indexed by the
	// byte-wide programmed level (WBits <= 8), so reading a level back as
	// a weight is one load with no bounds check and no division.
	gridW [256]float64
}

// NewCore builds a core for the given [W:A] precision configuration.
func NewCore(wBits, aBits int, fid Fidelity) (*Core, error) {
	if aBits < 1 || aBits > 8 {
		return nil, fmt.Errorf("oc: activation bits %d outside [1,8]", aBits)
	}
	bm, err := photonics.NewBankModel(mapping.MRsPerArm, wBits)
	if err != nil {
		return nil, err
	}
	c := &Core{
		WBits:    wBits,
		ABits:    aBits,
		Fidelity: fid,
		bank:     bm,
	}
	for l := 0; l < bm.Levels(); l++ {
		c.gridW[l] = bm.LevelToWeight(l)
	}
	levels := (int(1) << uint(aBits)) - 1
	c.actGrid = make([]float64, levels+1)
	for k := range c.actGrid {
		c.actGrid[k] = float64(k) / float64(levels)
	}
	c.noiseSigma = deriveArmNoiseSigma()
	return c, nil
}

// deriveArmNoiseSigma computes the BPD noise floor of one arm readout,
// referred to normalised MAC units where one channel at full activation
// and weight +1 contributes 1.0. Full scale is therefore 9 channels times
// the per-channel photocurrent.
func deriveArmNoiseSigma() float64 {
	v := photonics.DefaultVCSEL(photonics.CBandCenter)
	bpd := photonics.DefaultBalancedDetector()
	// Per-channel optical power at the detector: VCSEL max output minus
	// ~3 dB of link insertion loss.
	perChannel := v.MaxOpticalPower() * photonics.DB2Linear(-3)
	fullScale := bpd.Plus.Current(perChannel) - bpd.Plus.DarkCurrent
	if fullScale <= 0 {
		return 0
	}
	// Worst-case rails: all channels on one rail.
	sigmaAmps := bpd.NoisySigma(perChannel*float64(mapping.MRsPerArm), 0)
	return sigmaAmps / fullScale
}

// ArmNoiseSigma exposes the derived per-arm noise in normalised MAC units
// (ablation benches report it).
func (c *Core) ArmNoiseSigma() float64 { return c.noiseSigma }

// SetFaultPlan activates a fault-injection plan on this core. Matrices
// compile the plan when they are labelled (SetLabel), so the plan must be
// set before the accelerator programs its matrices — the facade does this
// at construction. A nil plan (the default) injects nothing and costs
// nothing on the hot path.
func (c *Core) SetFaultPlan(p *fault.Plan) { c.faultPlan = p }

// FaultPlan returns the active fault plan (nil when none).
func (c *Core) FaultPlan() *fault.Plan { return c.faultPlan }

// Health returns the core's per-component fault-tolerance registry.
func (c *Core) Health() *fault.Registry {
	c.healthOnce.Do(func() { c.health = fault.NewRegistry() })
	return c.health
}

// QuantizeActivation maps x in [0,1] to its ABits code's value,
// Round(x·n)/n for n = 2^ABits-1. Values are clipped, matching the
// saturating CRC/driver chain; NaN propagates, as the direct expression
// would. The division is served from the precomputed grid table
// (Round(x·n) is integer-valued for finite clipped x, and actGrid holds
// exactly k/n), so the result is bit-identical to the direct
// expression.
func (c *Core) QuantizeActivation(x float64) float64 {
	if x < 0 {
		x = 0
	} else if x > 1 {
		x = 1
	} else if x != x {
		return x
	}
	return c.actGrid[int(math.Round(x*float64(len(c.actGrid)-1)))]
}

// ProgrammedMatrix is a weight matrix mapped onto the optical core: each
// row is split into 9-tap segments, each segment programmed onto one arm.
// Programming is the expensive step (MR tuning); ApplySeededInto streams
// activation vectors through at modulation rate.
//
// The programmed state is a CSR-style flat layout: one contiguous
// row-major coefficient array plus the shared per-row segment boundary
// index (every row tiles its columns into the same arm-sized spans), so
// applyRow is a single linear scan with one noise draw per boundary —
// cache-friendly and allocation-free. It replaced a slice-of-slices
// segment table that cost two pointer hops per arm.
type ProgrammedMatrix struct {
	core *Core
	rows int
	cols int
	// coeffs holds the effective transfer coefficients for the configured
	// fidelity, rows*cols row-major: row r spans coeffs[r*cols:(r+1)*cols].
	coeffs []float64
	// levels holds the quantized MR levels in the same layout, one byte
	// each (WBits <= 8). They are the matrix's one copy of its weight grid:
	// GridApplyInto, HeaterPower and the ABFT checksum row read them.
	levels []uint8
	// armBounds are the column offsets of the segment boundaries shared by
	// every row: 0, 9, 18, ..., cols. Segment s of row r covers columns
	// [armBounds[s], armBounds[s+1]).
	armBounds []int
	// rowDefect is the per-row defect calibration constant κ_r: the mean,
	// over the row's columns, of (ideal grid weight − effective analog
	// coefficient). The analog transfer loses a small, systematically
	// negative amount per coefficient to the Lorentzian tails of the
	// neighbouring rings (insertion loss + parasitic drops), so a row's
	// accumulated error grows linearly with its programmed width while the
	// signal only grows like √width — exactly why wide dense layers are
	// analog-hostile. κ_r is exactly the rank-1 compensation a one-time
	// per-row hardware calibration would measure (program the row, drive
	// all channels at full scale, compare the readout to the expected
	// value); matrices programmed with ProgramCalibrated restore it
	// digitally on every apply as κ_r·Σ_j x_j — one shared activation sum
	// plus one MAC per row. In Ideal fidelity the effective coefficients
	// are the grid weights and every κ_r is exactly 0.
	rowDefect []float64
	// calibrated is fixed at Program time: whether every apply restores
	// rowDefect (ProgramCalibrated) or serves the raw analog readout.
	calibrated bool

	// Fault-tolerance state (abft.go). abft is the checksum-row state
	// derived at Program time (nil when Core.NoABFT); label/health name
	// the matrix as a component; inj is the compiled fault injector (nil
	// — the zero-cost default — unless a plan targets this label); ov is
	// the copy-on-write recovery overlay (retired rows, recalibrated
	// adjustments) behind an atomic pointer, written under mu.
	abft   *abftState
	label  string
	health *fault.Health
	inj    *injector
	ov     atomic.Pointer[overlay]
	mu     sync.Mutex
}

// Program quantizes and maps a weight matrix with entries in [-1, 1].
// Rows are output neurons / filters; columns are inputs.
func (c *Core) Program(w [][]float64) (*ProgrammedMatrix, error) {
	if len(w) == 0 || len(w[0]) == 0 {
		return nil, fmt.Errorf("oc: empty weight matrix")
	}
	rows, cols := len(w), len(w[0])
	pm := &ProgrammedMatrix{
		core:      c,
		rows:      rows,
		cols:      cols,
		coeffs:    make([]float64, rows*cols),
		levels:    make([]uint8, rows*cols),
		armBounds: armBounds(cols),
		rowDefect: make([]float64, rows),
	}
	for r, row := range w {
		if len(row) != cols {
			return nil, fmt.Errorf("oc: ragged weight matrix at row %d", r)
		}
		for i, v := range row {
			if v < -1 || v > 1 {
				return nil, fmt.Errorf("oc: weight %g at (%d,%d) outside [-1,1]", v, r, i)
			}
		}
		k, err := c.mapRow(pm.coeffs[r*cols:(r+1)*cols], pm.levels[r*cols:(r+1)*cols], row, 1, pm.armBounds)
		if err != nil {
			return nil, err
		}
		pm.rowDefect[r] = k
	}
	if !c.NoABFT {
		if err := pm.initABFT(); err != nil {
			return nil, err
		}
	}
	return pm, nil
}

// ProgramCalibrated is Program for a matrix served with its per-row
// defect calibration restored digitally: every apply returns
// y = W*x + κ·Σxq (see DefectCalibration). This is the fidelity-true
// path for wide programmed matrices — the systematic crosstalk loss,
// which accumulates linearly with row width, is compensated by one
// shared activation sum and one extra MAC per row. Noise and the
// zero-mean crosstalk residual remain, so the optical-vs-reference gap
// still isolates genuine analog error.
func (c *Core) ProgramCalibrated(w [][]float64) (*ProgrammedMatrix, error) {
	pm, err := c.Program(w)
	if err != nil {
		return nil, err
	}
	pm.calibrated = true
	return pm, nil
}

// armBounds returns the segment boundaries of a cols-wide row: 0, 9, 18,
// ..., cols — one arm per 9-tap span, the last one possibly partial.
func armBounds(cols int) []int {
	b := []int{0}
	for start := mapping.MRsPerArm; start < cols; start += mapping.MRsPerArm {
		b = append(b, start)
	}
	return append(b, cols)
}

// armCoefficients writes the effective transfer coefficients of one arm
// programmed at the given levels into dst (len == len(levels)): the exact
// grid weights in Ideal fidelity, the crosstalk-true bank transfer
// otherwise.
func (c *Core) armCoefficients(dst []float64, levels []int) error {
	if c.Fidelity == Ideal {
		return c.bank.IdealCoefficients(dst, levels)
	}
	return c.bank.Coefficients(dst, levels)
}

// widen copies one arm's byte-wide levels into the caller's stack array,
// returning the filled prefix the bank model reads.
func widen(arm *[mapping.MRsPerArm]int, levels []uint8) []int {
	a := arm[:len(levels)]
	for i, l := range levels {
		a[i] = int(l)
	}
	return a
}

// mapRow is the weight-mapping walk behind Program and
// AnalogWeightsInto. It snaps one row of weights w/scale onto the bank
// level grid into levels, writes every arm segment's effective
// coefficients (segments bounded by bounds) into coeffs, and returns the
// row's defect constant κ_r (see the rowDefect field).
func (c *Core) mapRow(coeffs []float64, levels []uint8, w []float64, scale float64, bounds []int) (float64, error) {
	for i, v := range w {
		levels[i] = uint8(c.bank.WeightToLevel(v / scale))
	}
	var arm [mapping.MRsPerArm]int
	for s := 0; s+1 < len(bounds); s++ {
		lo, hi := bounds[s], bounds[s+1]
		if err := c.armCoefficients(coeffs[lo:hi], widen(&arm, levels[lo:hi])); err != nil {
			return 0, err
		}
	}
	sum := 0.0
	for i, l := range levels {
		sum += c.gridW[l] - coeffs[i]
	}
	return sum / float64(len(w)), nil
}

// DefectCalibration returns the per-row defect calibration constants κ_r
// (mean ideal-minus-effective coefficient per row; see the rowDefect
// field). The slice is a copy; all zeros in Ideal fidelity.
func (pm *ProgrammedMatrix) DefectCalibration() []float64 {
	return append([]float64(nil), pm.rowDefect...)
}

// Rows returns the number of output rows.
func (pm *ProgrammedMatrix) Rows() int { return pm.rows }

// Cols returns the input width.
func (pm *ProgrammedMatrix) Cols() int { return pm.cols }

// ArmCount returns the number of arms the matrix occupies — the unit the
// scheduler tiles over.
func (pm *ProgrammedMatrix) ArmCount() int {
	return pm.rows * (len(pm.armBounds) - 1)
}

// quantizeInto writes the ABits-quantized copy of an activation vector
// into dst (len == pm.cols). The quantization grid is the same as
// Core.QuantizeActivation, inlined with the precomputed grid table so
// the hot loop is clip, multiply, round, load — no division. NaN inputs
// propagate (they escape both clips), exactly as Round(NaN·n)/n would —
// a table lookup on int(NaN) would panic instead.
func (pm *ProgrammedMatrix) quantizeInto(dst, x []float64) error {
	if len(x) != pm.cols {
		return fmt.Errorf("oc: input length %d, want %d", len(x), pm.cols)
	}
	grid := pm.core.actGrid
	n := float64(len(grid) - 1)
	for i, v := range x {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		} else if v != v {
			dst[i] = v
			continue
		}
		dst[i] = grid[int(math.Round(v*n))]
	}
	return nil
}

// applyRow computes one output row from quantized activations: a linear
// scan over the row's contiguous coefficient span. ns, when non-nil,
// supplies per-arm BPD noise; each arm draws exactly one sample in segment
// order, so a given noise source yields a reproducible row.
func (pm *ProgrammedMatrix) applyRow(xq []float64, r int, ns *photonics.NoiseSource) float64 {
	base := r * pm.cols
	if len(pm.armBounds) == 2 {
		// Single-arm rows (<= 9 taps — every CA bank and most kernel
		// operators): skip the segment walk entirely.
		partial := 0.0
		for i, cf := range pm.coeffs[base : base+pm.cols] {
			partial += cf * xq[i]
		}
		if ns != nil {
			partial += ns.Gaussian(0, pm.core.noiseSigma)
		}
		return partial
	}
	sum := 0.0
	for s := 0; s+1 < len(pm.armBounds); s++ {
		lo, hi := pm.armBounds[s], pm.armBounds[s+1]
		partial := 0.0
		coeffs := pm.coeffs[base+lo : base+hi]
		seg := xq[lo:hi:hi]
		for i, cf := range coeffs {
			partial += cf * seg[i]
		}
		if ns != nil {
			partial += ns.Gaussian(0, pm.core.noiseSigma)
		}
		sum += partial
	}
	return sum
}

// DeriveSeed maps a base seed and an index to a decorrelated child seed
// (SplitMix64 finalizer). The batched paths use it to give every frame —
// and every output row within a frame — its own deterministic noise
// stream, so results do not depend on goroutine scheduling.
func DeriveSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(i)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// applyRows fills y with every output row against a caller-owned noise
// source (ignored outside PhysicalNoisy fidelity, required inside it).
// Row r's stream is DeriveSeed(seed, r), the source re-seeded in place —
// bit-identical to a freshly constructed per-row source.
func (pm *ProgrammedMatrix) applyRows(xq, y []float64, seed int64, ns *photonics.NoiseSource) {
	if pm.core.Fidelity != PhysicalNoisy {
		for r := 0; r < pm.rows; r++ {
			y[r] = pm.applyRow(xq, r, nil)
		}
	} else {
		for r := 0; r < pm.rows; r++ {
			ns.Reseed(DeriveSeed(seed, r))
			y[r] = pm.applyRow(xq, r, ns)
		}
	}
	// Fault-injection tail (abft.go): both branches are the zero-cost
	// no-op default — inj is nil without an active plan, the overlay
	// pointer is nil until the recovery ladder retires or recalibrates a
	// row.
	if inj := pm.inj; inj != nil {
		inj.perturb(pm, y, xq, seed)
	}
	if ov := pm.ov.Load(); ov != nil {
		ov.fix(pm, y, xq)
	}
}

// addDefect applies the rank-1 defect compensation to a computed output:
// dst[r] += κ_r·S for S = Σ_j xq_j over the quantized activations — the
// digital restore of the systematic per-row analog loss (see rowDefect).
// In Ideal fidelity every κ_r is exactly 0 and dst is left bit-identical.
func (pm *ProgrammedMatrix) addDefect(dst, xq []float64) {
	s := 0.0
	for _, v := range xq {
		s += v
	}
	for r, k := range pm.rowDefect {
		dst[r] += k * s
	}
}

// Applier is reusable per-goroutine scratch for repeated seeded applies
// against one programmed matrix: the quantization buffer and (in
// PhysicalNoisy fidelity) the per-row noise source are checked out of
// the shared pools once and reused across calls, so tight apply loops —
// the kernel window walk, the infer im2col stream, Landweber passes —
// pay no pool traffic per call. Release returns the scratch when the
// loop is done. Not safe for concurrent use: create one Applier per
// goroutine; the underlying matrix may be shared freely.
type Applier struct {
	pm *ProgrammedMatrix
	xq *[]float64
	ns *photonics.NoiseSource
}

// NewApplier builds an Applier bound to the matrix, drawing its scratch
// from the shared pools.
func (pm *ProgrammedMatrix) NewApplier() *Applier {
	ap := pm.applier()
	return &ap
}

// applier checks an Applier's scratch out of the shared pools by value,
// so one-shot callers keep it on the stack.
func (pm *ProgrammedMatrix) applier() Applier {
	ap := Applier{pm: pm, xq: GetScratch(pm.cols)}
	if pm.core.Fidelity == PhysicalNoisy {
		ap.ns = getNoise()
	}
	return ap
}

// Release returns the applier's scratch to the shared pools. The
// applier must not be used afterwards. Optional — an unreleased
// applier's scratch is simply garbage-collected — but tight per-shard
// loops should release so the buffers recirculate.
func (ap *Applier) Release() {
	PutScratch(ap.xq)
	ap.xq = nil
	if ap.ns != nil {
		putNoise(ap.ns)
		ap.ns = nil
	}
}

// ApplySeededInto computes y = W*x through the optical path into dst
// (len == Rows) — the one apply body of the optical core. Activations
// are clipped to [0,1] and quantized to the core's ABits. The result is
// in normalised units: exact quantized W*x in Ideal fidelity, perturbed
// by crosstalk and, in PhysicalNoisy fidelity, by noise drawn for output
// row r from an independent stream seeded with DeriveSeed(seed, r). Two
// calls with the same inputs and seed are bit-identical regardless of
// what ran in between — the reproducibility contract every batched path
// is built on. Active fault injection and the recovery overlay apply to
// the rows, ABFT verifies them (abft.go), and a matrix programmed with
// ProgramCalibrated finally gets its defect calibration restored.
func (ap *Applier) ApplySeededInto(dst, x []float64, seed int64) error {
	pm := ap.pm
	if len(dst) != pm.rows {
		return fmt.Errorf("oc: destination length %d, want %d rows", len(dst), pm.rows)
	}
	xq := *ap.xq
	if err := pm.quantizeInto(xq, x); err != nil {
		return err
	}
	pm.applyRows(xq, dst, seed, ap.ns)
	pm.abftVerify(xq, dst, seed, ap.ns)
	if pm.calibrated {
		pm.addDefect(dst, xq)
	}
	return nil
}

// ApplySeededInto is the one-shot form of Applier.ApplySeededInto: it
// checks the scratch out of the shared pools for this call only, so the
// steady state still allocates nothing. Safe for concurrent use on a
// shared ProgrammedMatrix as long as destinations are disjoint.
func (pm *ProgrammedMatrix) ApplySeededInto(dst, x []float64, seed int64) error {
	ap := pm.applier()
	err := ap.ApplySeededInto(dst, x, seed)
	ap.Release()
	return err
}

// ShardRange runs fn over [0, n) split into up to `workers` contiguous
// chunks on separate goroutines, returning one of the chunk errors (if
// any). fn must only touch disjoint state per index — the pattern every
// seeded batch path (Core.MatVecBatch, the kernel layer's per-window
// loops, the infer patch stream) uses, where index i owns its own output
// slot and noise stream. workers <= 1 runs inline.
func ShardRange(n, workers int, fn func(lo, hi int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return fn(0, n)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			if err := fn(lo, hi); err != nil {
				mu.Lock()
				if ferr == nil {
					ferr = err
				}
				mu.Unlock()
			}
		}(lo, hi)
	}
	wg.Wait()
	return ferr
}

// HeaterPower returns the total MR tuning power to hold this matrix, in
// watts.
func (pm *ProgrammedMatrix) HeaterPower() float64 {
	total := 0.0
	var arm [mapping.MRsPerArm]int
	for r := 0; r < pm.rows; r++ {
		base := r * pm.cols
		for s := 0; s+1 < len(pm.armBounds); s++ {
			total += pm.core.bank.HeaterPower(widen(&arm, pm.levels[base+pm.armBounds[s]:base+pm.armBounds[s+1]]))
		}
	}
	return total
}

// GridApplyInto computes the exact grid MVM into dst (len == Rows): every
// programmed level read back as its grid weight (the coefficient the
// tuned MR realises in Ideal fidelity) times x, in plain float
// arithmetic, rows in order and each row summed over its columns in
// order. Nothing of the optical path applies — no activation
// quantization, crosstalk, noise, defect calibration, fault or ABFT — so
// digital references (package infer) pass activations already on the
// ABits grid. Safe for concurrent use.
func (pm *ProgrammedMatrix) GridApplyInto(dst, x []float64) error {
	if len(dst) != pm.rows {
		return fmt.Errorf("oc: destination length %d, want %d rows", len(dst), pm.rows)
	}
	if len(x) != pm.cols {
		return fmt.Errorf("oc: input length %d, want %d", len(x), pm.cols)
	}
	grid, cols := &pm.core.gridW, pm.cols
	for r := range dst {
		row := pm.levels[r*cols : (r+1)*cols]
		x := x[:len(row)]
		sum := 0.0
		for c, l := range row {
			sum += grid[l] * x[c]
		}
		dst[r] = sum
	}
	return nil
}

// MeanHeaterPowerPerMR exposes the average per-MR tuning power of the
// core's bank model for the energy model.
func (c *Core) MeanHeaterPowerPerMR() float64 {
	return c.bank.MeanHeaterPowerPerRing()
}

// AnalogWeightsInto writes the fidelity-true effective weight matrix for
// a float weight matrix w (row-major, rows x cols, any scale) into out
// (same layout): exactly the noiseless transfer the served optical path
// realises per coefficient, including the full-scale normalisation split
// (w is scaled so its largest magnitude sits at ±1, programmed on the
// bank level grid, and the factor restored), the per-fidelity crosstalk
// of the 9-ring arm segments, and the rank-1 per-row defect calibration
// κ_r that ProgramCalibrated matrices restore digitally.
//
// This is the forward operator for crosstalk-in-the-loop QAT: training a
// network against out instead of the plain quantization grid (package
// nn's analog fake-quantization routes Dense/Conv2D through it with a
// straight-through estimator) makes the learned weights absorb the
// residual analog error that survives calibration. In Ideal fidelity out
// is the plain symmetric weight grid. All-zero weights produce all
// zeros.
func (c *Core) AnalogWeightsInto(out, w []float64, rows, cols int) error {
	if rows < 1 || cols < 1 || rows*cols != len(w) {
		return fmt.Errorf("oc: analog weights shape %dx%d does not match %d values", rows, cols, len(w))
	}
	if len(out) != len(w) {
		return fmt.Errorf("oc: analog weights destination length %d, want %d", len(out), len(w))
	}
	sw := 0.0
	for _, v := range w {
		if v > sw {
			sw = v
		} else if -v > sw {
			sw = -v
		}
	}
	if sw == 0 {
		for i := range out {
			out[i] = 0
		}
		return nil
	}
	bounds, levels := armBounds(cols), make([]uint8, cols)
	for r := 0; r < rows; r++ {
		row := out[r*cols : (r+1)*cols]
		k, err := c.mapRow(row, levels, w[r*cols:(r+1)*cols], sw, bounds)
		if err != nil {
			return err
		}
		for i := range row {
			row[i] = (row[i] + k) * sw
		}
	}
	return nil
}

// MatVecBatch programs w once and streams a batch of activation vectors
// through it, sharding the vectors across up to `workers` goroutines
// with one Applier per shard (the MR banks are programmed once; each
// shard models an independent stream of frames through them). Frame i's
// noise is seeded with DeriveSeed(seed, i), so the batch result is
// bit-identical for any worker count and reproducible across runs.
func (c *Core) MatVecBatch(w [][]float64, xs [][]float64, workers int, seed int64) ([][]float64, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("oc: empty activation batch")
	}
	pm, err := c.Program(w)
	if err != nil {
		return nil, err
	}
	// Runtime-driven matrices share the "mvm" health component: fault
	// plans target them as one population, and their ABFT counters
	// aggregate under that label.
	pm.SetLabel("mvm")
	ys := make([][]float64, len(xs))
	err = ShardRange(len(xs), workers, func(lo, hi int) error {
		ap := pm.NewApplier()
		defer ap.Release()
		for i := lo; i < hi; i++ {
			ys[i] = make([]float64, pm.rows)
			if err := ap.ApplySeededInto(ys[i], xs[i], DeriveSeed(seed, i)); err != nil {
				return fmt.Errorf("oc: batch frame %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ys, nil
}
