package oc

import (
	"math"
	"math/rand"
	"testing"
)

func randWeightRows(rows, cols int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([][]float64, rows)
	for r := range w {
		w[r] = make([]float64, cols)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	return w
}

func randActivations(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

// TestDefectCalibrationIdealZero: in Ideal fidelity the effective
// coefficients ARE the programmed grid weights, so every per-row defect
// constant is exactly zero and a calibrated matrix applies bit-identically
// to a plain one.
func TestDefectCalibrationIdealZero(t *testing.T) {
	core, err := NewCore(4, 4, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := core.Program(randWeightRows(4, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	cpm, err := core.ProgramCalibrated(randWeightRows(4, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	for r, k := range pm.DefectCalibration() {
		if k != 0 {
			t.Fatalf("ideal fidelity row %d has nonzero defect %g", r, k)
		}
	}
	x := randActivations(20, 5)
	plain := applySeeded(t, pm, x, 9)
	calib := applySeeded(t, cpm, x, 9)
	for r := range plain {
		if plain[r] != calib[r] {
			t.Fatalf("row %d: calibrated %v != plain %v in Ideal fidelity", r, calib[r], plain[r])
		}
	}
}

// TestCalibratedApplyRestoresDefect: in Physical fidelity a calibrated
// matrix's output is exactly the plain matrix's output plus κ_r·Σxq, with
// κ from DefectCalibration and the sum over the quantized activations.
func TestCalibratedApplyRestoresDefect(t *testing.T) {
	core, err := NewCore(4, 4, Physical)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := core.Program(randWeightRows(6, 30, 7))
	if err != nil {
		t.Fatal(err)
	}
	cpm, err := core.ProgramCalibrated(randWeightRows(6, 30, 7))
	if err != nil {
		t.Fatal(err)
	}
	kappa := cpm.DefectCalibration()
	nonzero := false
	for _, k := range kappa {
		if k != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("Physical fidelity produced an all-zero defect calibration")
	}

	x := randActivations(30, 11)
	xq := make([]float64, 30)
	if err := pm.quantizeInto(xq, x); err != nil {
		t.Fatal(err)
	}
	s := 0.0
	for _, v := range xq {
		s += v
	}

	plain := applySeeded(t, pm, x, 13)
	calib := applySeeded(t, cpm, x, 13)
	for r := range plain {
		want := plain[r] + kappa[r]*s
		if calib[r] != want {
			t.Fatalf("row %d: calibrated output %v, want plain+κ·Σxq = %v", r, calib[r], want)
		}
	}
}

// TestCalibrationReducesWideRowError: the systematic crosstalk loss
// accumulates linearly with programmed row width, so on a wide matrix the
// calibrated output must sit far closer to the exact-grid (Ideal) result
// than the uncalibrated one. This is the bug calibrated matrices fix —
// wide dense rows drifting by Σ-many insertion-loss quanta.
func TestCalibrationReducesWideRowError(t *testing.T) {
	const rows, cols = 4, 180
	w := randWeightRows(rows, cols, 17)
	x := randActivations(cols, 19)

	ideal, err := NewCore(4, 4, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	ipm, err := ideal.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	ref := applySeeded(t, ipm, x, 0)

	phys, err := NewCore(4, 4, Physical)
	if err != nil {
		t.Fatal(err)
	}
	ppm, err := phys.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	cpm, err := phys.ProgramCalibrated(w)
	if err != nil {
		t.Fatal(err)
	}
	plain := applySeeded(t, ppm, x, 0)
	calib := applySeeded(t, cpm, x, 0)

	errPlain, errCalib := 0.0, 0.0
	for r := range ref {
		errPlain += math.Abs(plain[r] - ref[r])
		errCalib += math.Abs(calib[r] - ref[r])
	}
	if errCalib >= errPlain/2 {
		t.Fatalf("calibration did not help on wide rows: plain error %g, calibrated %g", errPlain, errCalib)
	}
}

// TestAnalogWeightsIntoMatchesCalibratedApply: the QAT forward operator
// (effective weight matrix) must realise the same linear map as a
// ProgramCalibrated matrix's apply — a dot product against the analog weights
// equals the calibrated optical output up to summation order.
func TestAnalogWeightsIntoMatchesCalibratedApply(t *testing.T) {
	const rows, cols = 5, 21
	core, err := NewCore(4, 4, Physical)
	if err != nil {
		t.Fatal(err)
	}
	w := randWeightRows(rows, cols, 23)
	w[0][0] = 1.0 // pin the full scale at exactly 1 so Program and AnalogWeightsInto agree
	flat := make([]float64, 0, rows*cols)
	for _, row := range w {
		flat = append(flat, row...)
	}
	pm, err := core.ProgramCalibrated(w)
	if err != nil {
		t.Fatal(err)
	}

	aw := make([]float64, rows*cols)
	if err := core.AnalogWeightsInto(aw, flat, rows, cols); err != nil {
		t.Fatal(err)
	}

	// Activations already on the 4-bit drive grid, so quantization is the
	// identity and both paths see the same inputs.
	rng := rand.New(rand.NewSource(29))
	x := make([]float64, cols)
	for i := range x {
		x[i] = float64(rng.Intn(16)) / 15
	}
	want := applySeeded(t, pm, x, 0)
	for r := 0; r < rows; r++ {
		got := 0.0
		for i, xi := range x {
			got += aw[r*cols+i] * xi
		}
		if math.Abs(got-want[r]) > 1e-9 {
			t.Fatalf("row %d: analog-weight dot product %v, calibrated apply %v", r, got, want[r])
		}
	}
}

// TestAnalogWeightsIntoIdealIsGrid: in Ideal fidelity the analog weights
// are the plain symmetric level grid, scaled back to the input range.
func TestAnalogWeightsIntoIdealIsGrid(t *testing.T) {
	core, err := NewCore(4, 4, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.4, -0.8, 0.1, -0.05, 0.8, 0.33}
	out := make([]float64, len(w))
	if err := core.AnalogWeightsInto(out, w, 2, 3); err != nil {
		t.Fatal(err)
	}
	for i, v := range w {
		want := core.bank.LevelToWeight(core.bank.WeightToLevel(v/0.8)) * 0.8
		if math.Abs(out[i]-want) > 1e-15 {
			t.Fatalf("ideal analog weight %d: got %v, want grid value %v", i, out[i], want)
		}
	}
}

// TestAnalogWeightsIntoEdges: all-zero weights produce all zeros; shape
// mismatches are rejected.
func TestAnalogWeightsIntoEdges(t *testing.T) {
	core, err := NewCore(4, 4, Physical)
	if err != nil {
		t.Fatal(err)
	}
	out := []float64{1, 2, 3, 4}
	if err := core.AnalogWeightsInto(out, make([]float64, 4), 2, 2); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("zero weights produced nonzero analog weight %d: %v", i, v)
		}
	}
	if err := core.AnalogWeightsInto(out, make([]float64, 4), 3, 2); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if err := core.AnalogWeightsInto(out[:2], make([]float64, 4), 2, 2); err == nil {
		t.Fatal("short destination accepted")
	}
}
