package oc

import (
	"math"

	"lightator/internal/fault"
	"lightator/internal/mapping"
	"lightator/internal/photonics"
)

// Algorithm-based fault tolerance (ABFT) for the optical MVM, plus the
// deterministic fault injector and the tiered recovery ladder. See
// docs/FAULTS.md for the math and the taxonomy.
//
// Program derives one extra checksum row per matrix — the snap-to-grid
// mean of the data rows, programmed through the same bank transfer as any
// row — together with the exact residual δ_j = s_j − R·c̃_j between the
// column sums s_j of the effective data coefficients and R times the
// effective checksum coefficients c̃_j. Every checked seeded apply then
// verifies Σ-consistency:
//
//	| Σ_r y_r − ( R·y_chk + δ·xq + A(xq) ) | ≤ tol
//
// where y_chk is the checksum row's readout (its noise stream is
// DeriveSeed(seed, R) — an index no data row uses, so enabling ABFT
// changes no served bytes) and A(xq) is the expected adjustment of rows
// the ladder has recalibrated. Because δ is computed from the known
// effective coefficients, the residual is FP-tight in Ideal/Physical
// fidelity and noise-bounded in PhysicalNoisy; any coefficient stuck or
// drifted beyond the tolerance trips the check within one verified apply.
//
// On detection the ladder runs: bounded retry under a fresh derived seed
// (clears transients) → per-row localization against the digital
// reference → row probe via the injector's persistent faults (the
// simulation stand-in for a hardware test-vector probe) → absorb small
// drift by recalibration (the PR 6 defect-calibration idea, extended to
// per-row gain and sparse coefficient deltas) or retire the row to the
// digital fallback path. All ladder writes go through a copy-on-write
// overlay behind an atomic pointer, so the hot path pays one atomic load.

const (
	// abftStrideTarget sizes the sampled-verification stride: a matrix is
	// checked roughly once per this many programmed row-reads, so the
	// checksum overhead stays a few percent even for rank-1 matrices (the
	// CA, windowed kernel operators) where one check doubles the apply.
	// Persistent faults are still caught within one frame — every frame
	// funnels hundreds to thousands of applies through each matrix.
	abftStrideTarget = 32
	// abftNoiseK is the detection threshold in per-check noise sigmas.
	// At 8σ the false-trip probability per check is ~1e-15; a trip that
	// does occur is absorbed by the retry tier.
	abftNoiseK = 8.0
	// abftMaxRetries bounds the transient-recovery tier.
	abftMaxRetries = 2
	// abftRetrySalt offsets the derived retry seeds away from any
	// data-row or frame index in live use.
	abftRetrySalt = 0x5eed0_0000
	// recalMaxCoeffDelta is the largest per-coefficient deviation the
	// recalibration tier absorbs; beyond it the ring is considered stuck,
	// not drifted, and the row is retired.
	recalMaxCoeffDelta = 0.15
	// recalMaxDroop is the largest fractional laser droop recalibration
	// absorbs as a per-row gain.
	recalMaxDroop = 0.15
)

// abftState is the per-matrix checksum state derived at Program time.
type abftState struct {
	// chk holds the checksum row's effective coefficients (len cols),
	// segmented by the same armBounds as every data row.
	chk []float64
	// delta is the per-column residual δ; nil when exactly zero (R == 1:
	// the checksum row re-quantizes to the data row itself, so the check
	// degenerates to exact duplicate-row redundancy).
	delta []float64
	// tol is the Σ-consistency detection threshold.
	tol float64
	// rowTol is the per-row localization threshold.
	rowTol float64
	// stride samples verification: an apply is checked iff its seed
	// hashes into 1/stride. Always ≥ 1.
	stride uint64
	// chkSeedIndex is the DeriveSeed index of the checksum row's noise
	// stream (== rows, one past the data rows).
	chkSeedIndex int
}

// compiledFault is one plan fault bound to a row of this matrix.
type compiledFault struct {
	f fault.Fault
	// delta pre-resolves coefficient faults to an additive offset on the
	// row output per unit activation: stuck_coeff → Value − c_rj,
	// drift_coeff → Value. Unused for droop/bit-flip.
	delta float64
}

// injector is a plan compiled against one labelled matrix.
type injector struct {
	byRow [][]compiledFault
}

// overlay is the copy-on-write ladder state: retired rows and
// recalibrated per-row adjustments. Readers load it atomically; writers
// rebuild and swap under pm.mu.
type overlay struct {
	retired      []bool
	retiredCount int
	adj          []rowAdj
}

// rowAdj is one recalibrated row: a gain (laser droop absorbed into the
// known transfer) and sparse per-column coefficient deltas (drift
// absorbed the way the PR 6 rowDefect calibration absorbs systematic
// loss).
type rowAdj struct {
	row    int
	gain   float64
	cols   []int
	deltas []float64
}

// initABFT derives the checksum row and tolerances for a freshly
// programmed matrix.
func (pm *ProgrammedMatrix) initABFT() error {
	c := pm.core
	rows, cols := pm.rows, pm.cols
	// Checksum weights: the grid-snap of the mean data row. Working from
	// the programmed levels (not the caller's floats) keeps the checksum
	// consistent with what the hardware actually holds.
	mean := make([]float64, cols)
	for r := 0; r < rows; r++ {
		for j, l := range pm.levels[r*cols : (r+1)*cols] {
			mean[j] += c.gridW[l]
		}
	}
	inv := 1 / float64(rows)
	chk := make([]float64, cols)
	var arm [mapping.MRsPerArm]int
	for s := 0; s+1 < len(pm.armBounds); s++ {
		lo, hi := pm.armBounds[s], pm.armBounds[s+1]
		chkLevels := arm[:hi-lo]
		for k := range chkLevels {
			chkLevels[k] = c.bank.WeightToLevel(mean[lo+k] * inv)
		}
		if err := c.armCoefficients(chk[lo:hi], chkLevels); err != nil {
			return err
		}
	}
	// δ_j = s_j − R·c̃_j from the known effective coefficients — exact,
	// so quantization of the checksum row costs no detection margin.
	delta := make([]float64, cols)
	allZero := true
	for j := 0; j < cols; j++ {
		s := 0.0
		for r := 0; r < rows; r++ {
			s += pm.coeffs[r*cols+j]
		}
		delta[j] = s - float64(rows)*chk[j]
		if delta[j] != 0 {
			allZero = false
		}
	}
	if allZero {
		delta = nil
	}
	arms := float64(len(pm.armBounds) - 1)
	fr := float64(rows)
	tol := 1e-11*fr*float64(cols) + 1e-12
	rowTol := 1e-11*float64(cols) + 1e-12
	if c.Fidelity == PhysicalNoisy {
		// Var(residual) = R²·Var(y_chk) + Σ_r Var(y_r) = (R²+R)·A·σ².
		tol += abftNoiseK * c.noiseSigma * math.Sqrt((fr*fr+fr)*arms)
		rowTol += abftNoiseK * c.noiseSigma * math.Sqrt(arms)
	}
	stride := uint64(1)
	if rows < abftStrideTarget {
		stride = uint64((abftStrideTarget + rows - 1) / rows)
	}
	pm.abft = &abftState{
		chk: chk, delta: delta, tol: tol, rowTol: rowTol,
		stride: stride, chkSeedIndex: rows,
	}
	return nil
}

// SetLabel names the matrix as a health component (e.g. "ca",
// "kernel:edge", "model:lenet/0", "mvm"), registering it in the core's
// health registry and compiling the core's active fault plan against it.
// Call once, before the matrix serves traffic; unlabelled matrices are
// never fault-injected and report health nowhere.
func (pm *ProgrammedMatrix) SetLabel(label string) {
	pm.label = label
	pm.health = pm.core.Health().Component(label)
	pm.compileFaults(pm.core.faultPlan)
}

// Label returns the matrix's component label ("" when unlabelled).
func (pm *ProgrammedMatrix) Label() string { return pm.label }

// compileFaults binds the matching plan faults to this matrix's rows.
func (pm *ProgrammedMatrix) compileFaults(plan *fault.Plan) {
	faults := plan.ForLabel(pm.label)
	if len(faults) == 0 {
		pm.inj = nil
		return
	}
	byRow := make([][]compiledFault, pm.rows)
	any := false
	for _, f := range faults {
		switch f.Kind {
		case fault.StuckCoeff, fault.DriftCoeff:
			if f.Row >= pm.rows || f.Col >= pm.cols {
				continue // plan row/col outside this matrix's shape
			}
			cf := compiledFault{f: f, delta: f.Value}
			if f.Kind == fault.StuckCoeff {
				cf.delta = f.Value - pm.coeffs[f.Row*pm.cols+f.Col]
			}
			byRow[f.Row] = append(byRow[f.Row], cf)
			any = true
		case fault.LaserDroop, fault.BitFlip:
			last := f.LastRow()
			if last >= pm.rows {
				last = pm.rows - 1
			}
			for r := f.Row; r <= last && r < pm.rows; r++ {
				byRow[r] = append(byRow[r], compiledFault{f: f})
				any = true
			}
		}
	}
	if !any {
		pm.inj = nil
		return
	}
	pm.inj = &injector{byRow: byRow}
}

// perturb applies the active faults to every row of a computed output —
// the output-side formulation of coefficient, droop and readout faults
// (Δc on coefficient (r,j) shifts y_r by exactly Δc·xq_j). Retired rows
// are perturbed too; the overlay fix overwrites them right after,
// modelling the retired hardware row being ignored.
func (inj *injector) perturb(pm *ProgrammedMatrix, y, xq []float64, seed int64) {
	for r := 0; r < pm.rows; r++ {
		// Additive faults first, droop gains last: droop scales the whole
		// optical readout, so a drifted coefficient on a drooping branch
		// droops too — the same composition the recalibration model
		// (rowAdj: gain over digital+deltas) assumes.
		gain := 1.0
		for _, cf := range inj.byRow[r] {
			if !cf.f.Window.Active(seed) {
				continue
			}
			switch cf.f.Kind {
			case fault.StuckCoeff, fault.DriftCoeff:
				y[r] += cf.delta * xq[cf.f.Col]
			case fault.LaserDroop:
				gain *= 1 - cf.f.Value
			case fault.BitFlip:
				y[r] += fault.Spike(cf.f.Value, seed, cf.f.Window.Salt)
			}
		}
		if gain != 1 {
			y[r] *= gain
		}
	}
}

// digitalRow is the digital reference readout of one row: the exact
// noiseless dot product of the known effective coefficients — what a
// retired row is served from.
func (pm *ProgrammedMatrix) digitalRow(r int, xq []float64) float64 {
	base := r * pm.cols
	sum := 0.0
	for j, cf := range pm.coeffs[base : base+pm.cols] {
		sum += cf * xq[j]
	}
	return sum
}

// fix overwrites retired rows with their digital reference values.
func (ov *overlay) fix(pm *ProgrammedMatrix, y, xq []float64) {
	if ov.retiredCount == 0 {
		return
	}
	for r := 0; r < pm.rows; r++ {
		if ov.retired[r] {
			y[r] = pm.digitalRow(r, xq)
		}
	}
}

// adjust returns A(xq): the expected output shift of every recalibrated
// row, derived from the absorbed gains and coefficient deltas.
func (ov *overlay) adjust(pm *ProgrammedMatrix, xq []float64) float64 {
	a := 0.0
	for i := range ov.adj {
		ra := &ov.adj[i]
		rowShift := 0.0
		for k, col := range ra.cols {
			rowShift += ra.deltas[k] * xq[col]
		}
		if ra.gain != 1 {
			rowShift = (pm.digitalRow(ra.row, xq)+rowShift)*ra.gain - pm.digitalRow(ra.row, xq)
		}
		a += rowShift
	}
	return a
}

// expectedRow is the ladder's model of row r's noiseless output under
// the current overlay (digital value, recal gain and deltas applied).
func (pm *ProgrammedMatrix) expectedRow(ov *overlay, r int, xq []float64) float64 {
	v := pm.digitalRow(r, xq)
	if ov == nil {
		return v
	}
	if ov.retired[r] {
		return v
	}
	for i := range ov.adj {
		ra := &ov.adj[i]
		if ra.row != r {
			continue
		}
		for k, col := range ra.cols {
			v += ra.deltas[k] * xq[col]
		}
		v *= ra.gain
	}
	return v
}

// checkOnce runs one Σ-consistency verification of y (pre-defect values)
// against the checksum row under the given apply seed. ns must be the
// caller's noise source in PhysicalNoisy fidelity.
func (pm *ProgrammedMatrix) checkOnce(xq, y []float64, seed int64, ns *photonics.NoiseSource) bool {
	ab := pm.abft
	sum := 0.0
	for _, v := range y[:pm.rows] {
		sum += v
	}
	// Checksum row readout: same segmented walk and per-arm noise as any
	// data row, on a stream (index rows) no data row uses.
	chk := 0.0
	if ns != nil {
		ns.Reseed(DeriveSeed(seed, ab.chkSeedIndex))
	}
	for s := 0; s+1 < len(pm.armBounds); s++ {
		lo, hi := pm.armBounds[s], pm.armBounds[s+1]
		partial := 0.0
		for j, cf := range ab.chk[lo:hi] {
			partial += cf * xq[lo+j]
		}
		if ns != nil {
			partial += ns.Gaussian(0, pm.core.noiseSigma)
		}
		chk += partial
	}
	exp := float64(pm.rows) * chk
	if ab.delta != nil {
		d := 0.0
		for j, v := range ab.delta {
			d += v * xq[j]
		}
		exp += d
	}
	if ov := pm.ov.Load(); ov != nil {
		exp += ov.adjust(pm, xq)
	}
	return math.Abs(sum-exp) <= ab.tol
}

// abftVerify is the verification + recovery entry point, called by every
// seeded apply after the output rows (post-injection, pre-defect) are in
// y, with the apply's own noise source (required in PhysicalNoisy
// fidelity). The no-fault path costs one stride hash and, on checked
// applies, one extra row readout. On a failed check the ladder may
// recompute y in place under fresh derived seeds and mutate the recovery
// overlay.
func (pm *ProgrammedMatrix) abftVerify(xq, y []float64, seed int64, ns *photonics.NoiseSource) {
	ab := pm.abft
	if ab == nil {
		return
	}
	if ab.stride > 1 && splitmix(uint64(seed))%ab.stride != 0 {
		return
	}
	pm.statAdd(statChecks, 1)
	if pm.checkOnce(xq, y, seed, ns) {
		return
	}
	pm.statAdd(statDetections, 1)
	// Tier 1 — bounded retry: re-run the whole apply under a fresh
	// derived seed. Transient windows (and noisy-fidelity false trips)
	// hash closed under the new seed and the check passes.
	for attempt := 1; attempt <= abftMaxRetries; attempt++ {
		rs := DeriveSeed(seed, abftRetrySalt+attempt)
		pm.applyRows(xq, y, rs, ns)
		if pm.checkOnce(xq, y, rs, ns) {
			pm.statAdd(statRetrySuccesses, 1)
			return
		}
	}
	// Tiers 2/3 — localize and repair under the writer lock, then serve
	// from the repaired state.
	pm.recoverPersistent(xq, y, seed, ns)
	fs := DeriveSeed(seed, abftRetrySalt+abftMaxRetries+1)
	pm.applyRows(xq, y, fs, ns)
	if !pm.checkOnce(xq, y, fs, ns) {
		pm.statAdd(statUnrecovered, 1)
	}
}

// recoverPersistent localizes out-of-tolerance rows against the digital
// reference and, per row, probes the persistent fault signature: small
// drift/droop is absorbed by recalibration; anything larger (or a
// persistently corrupted readout) retires the row to the digital
// fallback. y holds the latest failed readout.
func (pm *ProgrammedMatrix) recoverPersistent(xq, y []float64, seed int64, ns *photonics.NoiseSource) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	old := pm.ov.Load()
	var next *overlay
	ensure := func() *overlay {
		if next == nil {
			next = &overlay{retired: make([]bool, pm.rows)}
			if old != nil {
				copy(next.retired, old.retired)
				next.retiredCount = old.retiredCount
				next.adj = append([]rowAdj(nil), old.adj...)
			}
		}
		return next
	}
	for r := 0; r < pm.rows; r++ {
		if old != nil && old.retired[r] {
			continue
		}
		if math.Abs(y[r]-pm.expectedRow(old, r, xq)) <= pm.abft.rowTol {
			continue
		}
		gain, cols, deltas, probe := pm.probeRow(r)
		if !probe {
			// The row probe shows no persistent deviation: a transient
			// that outlived the retries. Nothing to repair — the final
			// recheck decides whether the result leaves unrecovered.
			continue
		}
		within := gain >= 1-recalMaxDroop
		for _, d := range deltas {
			if math.Abs(d) > recalMaxCoeffDelta {
				within = false
			}
		}
		ov := ensure()
		// Replace any previous adjustment for this row.
		for i := 0; i < len(ov.adj); i++ {
			if ov.adj[i].row == r {
				ov.adj = append(ov.adj[:i], ov.adj[i+1:]...)
				i--
			}
		}
		if within && (gain != 1 || len(cols) > 0) {
			ov.adj = append(ov.adj, rowAdj{row: r, gain: gain, cols: cols, deltas: deltas})
			pm.statAdd(statRecalibrations, 1)
		} else {
			ov.retired[r] = true
			ov.retiredCount++
			pm.statAdd(statRetiredRows, 1)
		}
	}
	if next != nil {
		pm.ov.Store(next)
	}
}

// probeRow is the hardware row probe: it measures row r's persistent
// fault signature — the gain and sparse coefficient deltas a test-vector
// sweep would observe. In simulation that is exactly the injector's
// persistent faults for the row. found is false when the persistent
// transfer matches the programmed one (recalibratable == false implies a
// persistently corrupted readout, e.g. a zero-window bit-flip, which is
// never absorbable).
func (pm *ProgrammedMatrix) probeRow(r int) (gain float64, cols []int, deltas []float64, found bool) {
	gain = 1
	if pm.inj == nil {
		return 1, nil, nil, false
	}
	for _, cf := range pm.inj.byRow[r] {
		if !cf.f.Window.Persistent() {
			continue
		}
		switch cf.f.Kind {
		case fault.StuckCoeff, fault.DriftCoeff:
			cols = append(cols, cf.f.Col)
			deltas = append(deltas, cf.delta)
			found = true
		case fault.LaserDroop:
			gain *= 1 - cf.f.Value
			found = true
		case fault.BitFlip:
			// A persistent readout spike has no coefficient-space
			// explanation; force retirement by reporting an absorbable
			// signature outside every tolerance.
			cols = append(cols, 0)
			deltas = append(deltas, math.Inf(1))
			found = true
		}
	}
	return gain, cols, deltas, found
}

// Degraded reports whether the matrix serves degraded output: at least
// one row retired to the digital fallback, or an unrecovered detection
// on its health component.
func (pm *ProgrammedMatrix) Degraded() bool {
	if ov := pm.ov.Load(); ov != nil && ov.retiredCount > 0 {
		return true
	}
	return pm.health != nil && pm.health.Degraded()
}

// ABFTChecksPer models how many checksum verifications n applies of
// this matrix trigger: n divided by the sampling stride. Zero when ABFT
// is disabled (Core.NoABFT). Used by the observability layer's static
// op-count profiles (trace.OpCounts.ABFTChecks), never on the hot path.
func (pm *ProgrammedMatrix) ABFTChecksPer(applies int64) int64 {
	if pm.abft == nil || pm.abft.stride <= 0 {
		return 0
	}
	return applies / int64(pm.abft.stride)
}

// RetiredRows returns how many rows are retired to the digital fallback.
func (pm *ProgrammedMatrix) RetiredRows() int {
	if ov := pm.ov.Load(); ov != nil {
		return ov.retiredCount
	}
	return 0
}

// statAdd bumps one ladder counter on the matrix's health component (a
// no-op for unlabelled matrices).
type statSel int

const (
	statChecks statSel = iota
	statDetections
	statRetrySuccesses
	statRecalibrations
	statRetiredRows
	statUnrecovered
)

func (pm *ProgrammedMatrix) statAdd(sel statSel, n int64) {
	h := pm.health
	if h == nil {
		return
	}
	switch sel {
	case statChecks:
		h.Checks.Add(n)
	case statDetections:
		h.Detections.Add(n)
	case statRetrySuccesses:
		h.RetrySuccesses.Add(n)
	case statRecalibrations:
		h.Recalibrations.Add(n)
	case statRetiredRows:
		h.RetiredRows.Add(n)
	case statUnrecovered:
		h.Unrecovered.Add(n)
	}
}

// splitmix is the SplitMix64 finalizer used for the stride sampling
// hash (the same mixer DeriveSeed uses).
func splitmix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
