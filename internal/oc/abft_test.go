package oc

import (
	"math"
	"testing"

	"lightator/internal/fault"
	"lightator/internal/sensor"
)

// abftTestMatrix programs a deterministic full-rank test matrix (rows >=
// abftStrideTarget so every apply is checked) on a fresh core.
func abftTestMatrix(t *testing.T, fid Fidelity, plan *fault.Plan, label string) (*Core, *ProgrammedMatrix) {
	t.Helper()
	c, err := NewCore(4, 4, fid)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaultPlan(plan)
	rows, cols := 32, 18
	w := make([][]float64, rows)
	for r := range w {
		w[r] = make([]float64, cols)
		for j := range w[r] {
			w[r][j] = math.Sin(float64(r*cols+j+1)) * 0.9
		}
	}
	pm, err := c.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	if label != "" {
		pm.SetLabel(label)
	}
	return c, pm
}

func abftTestInput(cols int) []float64 {
	x := make([]float64, cols)
	for j := range x {
		x[j] = 0.25 + 0.5*float64(j%3)/3
	}
	return x
}

// TestABFTNoFaultByteIdentity pins the load-bearing contract: enabling
// ABFT changes no output bytes on the no-fault path, in every fidelity —
// the checksum row reads a noise stream (index R) no data row uses.
func TestABFTNoFaultByteIdentity(t *testing.T) {
	for _, fid := range []Fidelity{Ideal, Physical, PhysicalNoisy} {
		_, on := abftTestMatrix(t, fid, nil, "")
		coff, err := NewCore(4, 4, fid)
		if err != nil {
			t.Fatal(err)
		}
		coff.NoABFT = true
		rows, cols := on.Rows(), on.Cols()
		w := make([][]float64, rows)
		for r := range w {
			w[r] = make([]float64, cols)
			for j := range w[r] {
				w[r][j] = math.Sin(float64(r*cols+j+1)) * 0.9
			}
		}
		off, err := coff.Program(w)
		if err != nil {
			t.Fatal(err)
		}
		if off.abft != nil {
			t.Fatal("NoABFT core still derived a checksum row")
		}
		x := abftTestInput(cols)
		for seed := int64(1); seed <= 16; seed++ {
			a := applySeeded(t, on, x, seed)
			b := applySeeded(t, off, x, seed)
			for r := range a {
				if a[r] != b[r] {
					t.Fatalf("%v seed %d row %d: ABFT changed bytes: %g != %g", fid, seed, r, a[r], b[r])
				}
			}
		}
	}
}

// TestABFTStuckCoeffRetires drives a hard-stuck coefficient (far beyond
// the recalibration budget) and expects: detection on the first checked
// apply, retirement of exactly the faulty row, the digital fallback
// serving that row, and a degraded matrix.
func TestABFTStuckCoeffRetires(t *testing.T) {
	plan := &fault.Plan{Name: "stuck", Faults: []fault.Fault{
		{Kind: fault.StuckCoeff, Target: "m", Row: 5, Col: 2, Value: 0.95},
	}}
	c, pm := abftTestMatrix(t, Ideal, plan, "m")
	x := abftTestInput(pm.Cols())
	y := applySeeded(t, pm, x, 7)
	h := c.Health().Component("m")
	if h.Detections.Load() == 0 {
		t.Fatal("stuck coefficient not detected")
	}
	if h.RetiredRows.Load() != 1 || pm.RetiredRows() != 1 {
		t.Fatalf("retired rows = %d (pm %d), want 1", h.RetiredRows.Load(), pm.RetiredRows())
	}
	if !pm.Degraded() {
		t.Fatal("matrix with a retired row must report degraded")
	}
	// The retired row is served from the digital reference; in Ideal
	// fidelity that is bit-exact W_eff·xq.
	xq := make([]float64, pm.Cols())
	if err := pm.quantizeInto(xq, x); err != nil {
		t.Fatal(err)
	}
	if want := pm.digitalRow(5, xq); y[5] != want {
		t.Fatalf("retired row served %g, want digital %g", y[5], want)
	}
	if h.Unrecovered.Load() != 0 {
		t.Fatalf("ladder left %d unrecovered", h.Unrecovered.Load())
	}
	// Steady state: later applies pass their checks against the repaired
	// state without new detections.
	before := h.Detections.Load()
	applySeeded(t, pm, x, 8)
	if h.Detections.Load() != before {
		t.Fatal("repaired matrix re-detected the same fault")
	}
}

// TestABFTDriftRecalibrates drives a small persistent drift — within the
// recalibration budget — and expects the defect-calibration tier to
// absorb it: no retirement, no degradation, checks passing against the
// recalibrated transfer.
func TestABFTDriftRecalibrates(t *testing.T) {
	plan := &fault.Plan{Name: "drift", Faults: []fault.Fault{
		{Kind: fault.DriftCoeff, Target: "m", Row: 3, Col: 1, Value: 0.05},
	}}
	c, pm := abftTestMatrix(t, Ideal, plan, "m")
	x := abftTestInput(pm.Cols())
	y := applySeeded(t, pm, x, 11)
	h := c.Health().Component("m")
	if h.Detections.Load() == 0 {
		t.Fatal("drift not detected")
	}
	if h.Recalibrations.Load() != 1 {
		t.Fatalf("recalibrations = %d, want 1", h.Recalibrations.Load())
	}
	if h.RetiredRows.Load() != 0 || pm.Degraded() {
		t.Fatal("absorbable drift must not retire or degrade")
	}
	// The recalibrated row serves the drifted (known) transfer.
	xq := make([]float64, pm.Cols())
	if err := pm.quantizeInto(xq, x); err != nil {
		t.Fatal(err)
	}
	want := pm.digitalRow(3, xq) + 0.05*xq[1]
	if math.Abs(y[3]-want) > 1e-12 {
		t.Fatalf("recalibrated row = %g, want %g", y[3], want)
	}
	if h.Unrecovered.Load() != 0 {
		t.Fatalf("ladder left %d unrecovered", h.Unrecovered.Load())
	}
}

// TestABFTLaserDroop checks both droop outcomes: a small branch droop is
// absorbed as a per-row gain, a deep droop retires the affected rows.
func TestABFTLaserDroop(t *testing.T) {
	small := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.LaserDroop, Target: "m", Row: 2, RowEnd: 4, Value: 0.05},
	}}
	c, pm := abftTestMatrix(t, Ideal, small, "m")
	x := abftTestInput(pm.Cols())
	applySeeded(t, pm, x, 3)
	h := c.Health().Component("m")
	if h.Recalibrations.Load() != 3 || h.RetiredRows.Load() != 0 {
		t.Fatalf("small droop: recal %d retired %d, want 3/0", h.Recalibrations.Load(), h.RetiredRows.Load())
	}
	deep := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.LaserDroop, Target: "m", Row: 2, RowEnd: 4, Value: 0.5},
	}}
	c2, pm2 := abftTestMatrix(t, Ideal, deep, "m")
	applySeeded(t, pm2, x, 3)
	h2 := c2.Health().Component("m")
	if h2.RetiredRows.Load() != 3 || !pm2.Degraded() {
		t.Fatalf("deep droop: retired %d degraded %v, want 3/true", h2.RetiredRows.Load(), pm2.Degraded())
	}
}

// TestABFTTransientBitFlipRetries windows a readout spike and expects
// every detection to clear in the bounded-retry tier — no retirement, no
// degradation.
func TestABFTTransientBitFlipRetries(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.BitFlip, Target: "m", Row: 9, Value: 0.5,
			Window: fault.Window{Period: 16, Duty: 1, Salt: 2}},
	}}
	c, pm := abftTestMatrix(t, Ideal, plan, "m")
	x := abftTestInput(pm.Cols())
	for seed := int64(0); seed < 64; seed++ {
		applySeeded(t, pm, x, seed)
	}
	h := c.Health().Component("m")
	if h.Detections.Load() == 0 {
		t.Fatal("transient spike never landed in 64 applies")
	}
	if h.RetrySuccesses.Load() != h.Detections.Load() {
		t.Fatalf("retries cleared %d of %d detections", h.RetrySuccesses.Load(), h.Detections.Load())
	}
	if h.RetiredRows.Load() != 0 || pm.Degraded() {
		t.Fatal("transient fault must not retire or degrade")
	}
}

// TestABFTNoisyFidelityNoFalseTrips runs many checked applies in
// PhysicalNoisy fidelity with no plan: at 8σ the check must never trip.
func TestABFTNoisyFidelityNoFalseTrips(t *testing.T) {
	c, pm := abftTestMatrix(t, PhysicalNoisy, nil, "m")
	x := abftTestInput(pm.Cols())
	for seed := int64(0); seed < 256; seed++ {
		applySeeded(t, pm, x, seed)
	}
	h := c.Health().Component("m")
	if h.Checks.Load() == 0 {
		t.Fatal("no checks ran")
	}
	if h.Detections.Load() != 0 {
		t.Fatalf("%d false trips in %d checks", h.Detections.Load(), h.Checks.Load())
	}
}

// TestABFTNoisyDetectsStuck verifies detection still works through the
// noise floor: a hard-stuck coefficient in PhysicalNoisy fidelity is
// detected and retired, and later applies hold byte-for-byte
// reproducibility per seed. The matrix is short (4 rows) so the fault
// magnitude clears the noise-scaled tolerance — docs/FAULTS.md derives
// the R-dependent detectability floor this respects.
func TestABFTNoisyDetectsStuck(t *testing.T) {
	// Row 1, col 0 programs ≈ +0.89 (0.9·cos 19); sticking it at −0.95 at
	// full activation shifts the row by ≈ 1.8 — well past the ≈0.49
	// noise-scaled tolerance of a 4-row matrix.
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.StuckCoeff, Target: "m", Row: 1, Col: 0, Value: -0.95},
	}}
	c, err := NewCore(4, 4, PhysicalNoisy)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaultPlan(plan)
	w := make([][]float64, 4)
	for r := range w {
		w[r] = make([]float64, 18)
		for j := range w[r] {
			w[r][j] = 0.9 * math.Cos(float64(r*18+j+1))
		}
	}
	pm, err := c.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	pm.SetLabel("m")
	x := abftTestInput(pm.Cols())
	x[0] = 1.0
	h := c.Health().Component("m")
	// Short matrices sample verification (stride > 1): drive applies
	// until a check lands.
	for seed := int64(0); seed < 256 && h.Checks.Load() == 0; seed++ {
		applySeeded(t, pm, x, seed)
	}
	if h.Checks.Load() == 0 {
		t.Fatal("no check sampled in 256 applies")
	}
	if h.Detections.Load() == 0 || h.RetiredRows.Load() != 1 {
		t.Fatalf("noisy stuck: detections %d retired %d", h.Detections.Load(), h.RetiredRows.Load())
	}
	// Steady state is seeded-reproducible.
	a := applySeeded(t, pm, x, 33)
	b := applySeeded(t, pm, x, 33)
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("row %d not reproducible after repair: %g vs %g", r, a[r], b[r])
		}
	}
}

// TestABFTWorkerInvariantInjection pins the determinism contract of the
// injector itself: whether and how a fault perturbs an apply is a pure
// function of the apply's derived seed, so a faulted batch is
// byte-identical at any worker count. ABFT is disabled here to isolate
// injection — the recovery ladder's repairs depend on which apply
// observes the fault first (request order, like real hardware), which
// is exactly why the chaos e2e suite asserts properties, not bytes,
// through transitions.
func TestABFTWorkerInvariantInjection(t *testing.T) {
	w := make([][]float64, 32)
	for r := range w {
		w[r] = make([]float64, 18)
		for j := range w[r] {
			w[r][j] = math.Sin(float64(r*18+j+1)) * 0.9
		}
	}
	xs := make([][]float64, 24)
	for i := range xs {
		xs[i] = abftTestInput(18)
		xs[i][i%18] = 0.9
	}
	// MatVecBatch labels its matrix "mvm"; each worker count gets a fresh
	// core so no state carries over.
	batch := func(workers int) [][]float64 {
		plan := &fault.Plan{Faults: []fault.Fault{
			{Kind: fault.StuckCoeff, Target: "mvm", Row: 5, Col: 2, Value: 0.95},
			{Kind: fault.BitFlip, Target: "mvm", Row: 9, Value: 0.5,
				Window: fault.Window{Period: 4, Duty: 1, Salt: 2}},
		}}
		c, err := NewCore(4, 4, PhysicalNoisy)
		if err != nil {
			t.Fatal(err)
		}
		c.NoABFT = true
		c.SetFaultPlan(plan)
		ys, err := c.MatVecBatch(w, xs, workers, 99)
		if err != nil {
			t.Fatal(err)
		}
		return ys
	}
	ys1, ys4 := batch(1), batch(4)
	for i := range ys1 {
		for r := range ys1[i] {
			if ys1[i][r] != ys4[i][r] {
				t.Fatalf("vector %d row %d differs across worker counts", i, r)
			}
		}
	}
}

// TestABFTCADetectsWithinOneFrame programs a CA under a stuck-coefficient
// plan and expects detection and repair inside a single CompressSeeded
// frame, with the result deterministic per seed afterwards.
func TestABFTCADetectsWithinOneFrame(t *testing.T) {
	c, err := NewCore(4, 4, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.StuckCoeff, Target: "ca", Row: 0, Col: 0, Value: -0.9},
	}}
	c.SetFaultPlan(plan)
	a, err := NewAcquisitor(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := &sensor.Frame{Rows: 64, Cols: 64, Codes: make([]uint8, 64*64)}
	for i := range f.Codes {
		f.Codes[i] = uint8((i*7 + 3) % 16)
	}
	if _, err := a.CompressSeeded(f, 5); err != nil {
		t.Fatal(err)
	}
	h := c.Health().Component("ca")
	if h.Detections.Load() == 0 {
		t.Fatal("CA fault not detected within one frame")
	}
	if h.RetiredRows.Load() != 1 || !a.Degraded() {
		t.Fatalf("CA fault not retired: retired %d degraded %v", h.RetiredRows.Load(), a.Degraded())
	}
	// Post-repair frames are reproducible.
	im1, err := a.CompressSeeded(f, 6)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := a.CompressSeeded(f, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range im1.Pix {
		if im1.Pix[i] != im2.Pix[i] {
			t.Fatalf("repaired CA output not reproducible at %d", i)
		}
	}
}
