package oc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lightator/internal/sensor"
)

func refMatVec(w [][]float64, x []float64) []float64 {
	y := make([]float64, len(w))
	for r, row := range w {
		for i, v := range row {
			y[r] += v * x[i]
		}
	}
	return y
}

func TestCoreValidation(t *testing.T) {
	if _, err := NewCore(0, 4, Ideal); err == nil {
		t.Error("0 weight bits accepted")
	}
	if _, err := NewCore(4, 0, Ideal); err == nil {
		t.Error("0 activation bits accepted")
	}
	c, err := NewCore(4, 4, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Program(nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := c.Program([][]float64{{0.5}, {0.1, 0.2}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := c.Program([][]float64{{1.5}}); err == nil {
		t.Error("out-of-range weight accepted")
	}
	if pm, _ := c.Program([][]float64{{0.5, 0.5}}); pm != nil {
		if err := pm.ApplySeededInto(make([]float64, 1), []float64{1}, 0); err == nil {
			t.Error("length-mismatched input accepted")
		}
	}
}

func TestQuantizeActivation(t *testing.T) {
	c, _ := NewCore(4, 4, Ideal)
	if got := c.QuantizeActivation(1); got != 1 {
		t.Errorf("q(1) = %g", got)
	}
	if got := c.QuantizeActivation(0); got != 0 {
		t.Errorf("q(0) = %g", got)
	}
	if got := c.QuantizeActivation(2); got != 1 {
		t.Errorf("q(2) = %g, want clip to 1", got)
	}
	if got := c.QuantizeActivation(-1); got != 0 {
		t.Errorf("q(-1) = %g, want clip to 0", got)
	}
	// Mid value lands on the 15-step grid.
	got := c.QuantizeActivation(0.5)
	if math.Abs(got-round15(0.5)) > 1e-12 {
		t.Errorf("q(0.5) = %g, want on-grid %g", got, round15(0.5))
	}
}

func round15(x float64) float64 { return math.Round(x*15) / 15 }

func TestIdealMatVecExactQuantizedArithmetic(t *testing.T) {
	c, _ := NewCore(4, 4, Ideal)
	w := [][]float64{
		{1, -1, 1.0 / 3, -1.0 / 3},
		{0.2, 0.4, -0.6, 0.8},
	}
	x := []float64{1, 0.5, 0.25, 0.75}
	got := matVec(t, c, w, x)
	// Expected: quantize weights to 16 levels over [-1,1], activations to
	// 16 levels over [0,1], then exact arithmetic.
	qw := func(v float64) float64 { return -1 + 2*math.Round((v+1)/2*15)/15 }
	want := make([]float64, 2)
	for r := range w {
		for i := range x {
			want[r] += qw(w[r][i]) * round15(x[i])
		}
	}
	for r := range got {
		if math.Abs(got[r]-want[r]) > 1e-12 {
			t.Errorf("row %d: got %g, want %g", r, got[r], want[r])
		}
	}
}

func TestPhysicalTracksIdeal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := make([][]float64, 8)
	for r := range w {
		w[r] = make([]float64, 27)
		for i := range w[r] {
			w[r][i] = rng.Float64()*2 - 1
		}
	}
	x := make([]float64, 27)
	for i := range x {
		x[i] = rng.Float64()
	}
	ci, _ := NewCore(4, 4, Ideal)
	cp, _ := NewCore(4, 4, Physical)
	yi := matVec(t, ci, w, x)
	yp := matVec(t, cp, w, x)
	for r := range yi {
		// 27 taps -> full scale ~27; crosstalk should stay within a few
		// percent of full scale.
		if math.Abs(yi[r]-yp[r]) > 0.08*27 {
			t.Errorf("row %d: ideal %g physical %g", r, yi[r], yp[r])
		}
	}
}

func TestNoisyFidelityPerturbsButTracks(t *testing.T) {
	w := [][]float64{{0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 1, -1, 0.125}}
	x := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}
	cn, _ := NewCore(4, 4, PhysicalNoisy)
	cp, _ := NewCore(4, 4, Physical)
	pn, err := cn.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := cp.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	base := applySeeded(t, pp, x, 0)
	varied := false
	for k := 0; k < 32; k++ {
		y := applySeeded(t, pn, x, int64(k))
		if math.Abs(y[0]-base[0]) > 0.5 {
			t.Fatalf("noise sample %d too large: %g vs %g", k, y[0], base[0])
		}
		if y[0] != base[0] {
			varied = true
		}
	}
	if !varied {
		t.Error("PhysicalNoisy produced identical outputs across 32 runs")
	}
	if cn.ArmNoiseSigma() <= 0 {
		t.Error("derived noise sigma not positive")
	}
	// BPD noise must be far below one 4-bit activation step (the paper's
	// design point would not close otherwise).
	if cn.ArmNoiseSigma() > 1.0/15 {
		t.Errorf("noise sigma %g exceeds one LSB %g", cn.ArmNoiseSigma(), 1.0/15)
	}
}

func TestProgrammedMatrixGeometry(t *testing.T) {
	c, _ := NewCore(4, 4, Ideal)
	w := make([][]float64, 3)
	for r := range w {
		w[r] = make([]float64, 25) // 5x5 kernel -> 3 arms per row
	}
	pm, err := c.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Rows() != 3 || pm.Cols() != 25 {
		t.Errorf("geometry %dx%d", pm.Rows(), pm.Cols())
	}
	if pm.ArmCount() != 9 {
		t.Errorf("arm count %d, want 9 (3 rows x 3 arms)", pm.ArmCount())
	}
}

func TestHeaterPowerScalesWithSize(t *testing.T) {
	c, _ := NewCore(4, 4, Physical)
	small, _ := c.Program([][]float64{{0.5, -0.5, 0.25}})
	big, _ := c.Program([][]float64{
		{0.5, -0.5, 0.25, 0.1, 0.2, 0.3, -0.1, -0.2, -0.3},
		{0.5, -0.5, 0.25, 0.1, 0.2, 0.3, -0.1, -0.2, -0.3},
	})
	if small.HeaterPower() <= 0 {
		t.Error("no heater power on programmed matrix")
	}
	if big.HeaterPower() <= small.HeaterPower() {
		t.Error("heater power should grow with programmed MR count")
	}
	if c.MeanHeaterPowerPerMR() <= 0 {
		t.Error("mean heater power per MR not positive")
	}
}

// TestHeaterPowerReadsByteLevels: the byte-wide level store holds the
// same levels the bank model tunes, so a programmed matrix's heater power
// equals the bank's HeaterPower summed over the int levels of every arm
// (rows in order, arms in order), at the paper's 4 bits and at the 8-bit
// ceiling where levels fill the whole byte.
func TestHeaterPowerReadsByteLevels(t *testing.T) {
	for _, wBits := range []int{4, 8} {
		c, err := NewCore(wBits, 4, Physical)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(wBits)))
		w := make([][]float64, 5)
		for r := range w {
			w[r] = make([]float64, 23) // arms of 9, 9 and 5 taps
			for j := range w[r] {
				w[r][j] = rng.Float64()*2 - 1
			}
		}
		w[0][0], w[0][1] = -1, 1 // the grid's end levels
		pm, err := c.Program(w)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, row := range w {
			for lo := 0; lo < len(row); lo += 9 {
				hi := min(lo+9, len(row))
				levels := make([]int, 0, hi-lo)
				for _, v := range row[lo:hi] {
					levels = append(levels, c.bank.WeightToLevel(v))
				}
				want += c.bank.HeaterPower(levels)
			}
		}
		if got := pm.HeaterPower(); got != want {
			t.Errorf("WBits %d: HeaterPower %v, bank sum over int levels %v", wBits, got, want)
		}
	}
}

// TestGridApplyIntoReadsLevels: the exact grid MVM multiplies each
// programmed level's grid weight, LevelToWeight(WeightToLevel(w)), by x
// and sums every row in column order — in every fidelity, since the
// levels (not the crosstalk-true coefficients) are what it reads.
func TestGridApplyIntoReadsLevels(t *testing.T) {
	for _, fid := range []Fidelity{Ideal, Physical, PhysicalNoisy} {
		for _, wBits := range []int{2, 4, 8} {
			c, err := NewCore(wBits, 4, fid)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(wBits)))
			w := make([][]float64, 7)
			for r := range w {
				w[r] = make([]float64, 20)
				for j := range w[r] {
					w[r][j] = rng.Float64()*2 - 1
				}
			}
			w[0][0], w[0][1] = -1, 1
			x := make([]float64, 20)
			for j := range x {
				x[j] = rng.Float64()
			}
			pm, err := c.Program(w)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, len(w))
			if err := pm.GridApplyInto(got, x); err != nil {
				t.Fatal(err)
			}
			for r, row := range w {
				want := 0.0
				for j, v := range row {
					want += c.bank.LevelToWeight(c.bank.WeightToLevel(v)) * x[j]
				}
				if got[r] != want {
					t.Errorf("%v WBits %d row %d: GridApplyInto %v, want %v", fid, wBits, r, got[r], want)
				}
			}
			if pm.GridApplyInto(got[1:], x) == nil || pm.GridApplyInto(got, x[1:]) == nil {
				t.Errorf("%v WBits %d: mis-sized destination or input accepted", fid, wBits)
			}
		}
	}
}

// Property: for random well-formed inputs, the Ideal core's error vs exact
// float arithmetic is bounded by the quantization budget.
func TestIdealQuantizationErrorBound(t *testing.T) {
	c, _ := NewCore(4, 4, Ideal)
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		cols := 9
		w := [][]float64{make([]float64, cols)}
		x := make([]float64, cols)
		for i := 0; i < cols; i++ {
			w[0][i] = rng.Float64()*2 - 1
			x[i] = rng.Float64()
		}
		got, err := c.MatVecBatch(w, [][]float64{x}, 1, 0)
		if err != nil {
			return false
		}
		want := refMatVec(w, x)[0]
		// Worst-case per-tap error: half a weight step (1/15) times act
		// <= 1, plus half an activation step (1/30) times |w| <= 1.
		bound := 9 * (1.0/15 + 1.0/30)
		return math.Abs(got[0][0]-want) <= bound
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCAWeightsRGBEquation1(t *testing.T) {
	w, err := CAWeightsRGB(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 12 {
		t.Fatalf("len %d, want 12 (Eq. 1 has 12 terms for 2x2 RGB)", len(w))
	}
	// Eq. 1 coefficients: 0.25*0.299, 0.25*0.587, 0.25*0.114 repeated.
	for i := 0; i < 12; i += 3 {
		if math.Abs(w[i]-0.25*0.299) > 1e-15 ||
			math.Abs(w[i+1]-0.25*0.587) > 1e-15 ||
			math.Abs(w[i+2]-0.25*0.114) > 1e-15 {
			t.Fatalf("triplet at %d: %v", i, w[i:i+3])
		}
	}
	// Weighted sum of an all-ones window is exactly the luma sum = 1.
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum %g, want 1", sum)
	}
}

func TestCAWeightsBayer(t *testing.T) {
	w, err := CAWeightsBayer(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 4 {
		t.Fatalf("len %d, want 4", len(w))
	}
	// RGGB quad: R, G, G, B with G split across its two sites.
	want := []float64{0.299, 0.587 / 2, 0.587 / 2, 0.114}
	for i := range w {
		if math.Abs(w[i]-want[i]) > 1e-15 {
			t.Errorf("site %d weight %g, want %g", i, w[i], want[i])
		}
	}
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum %g, want 1", sum)
	}
	if _, err := CAWeightsBayer(3); err == nil {
		t.Error("odd Bayer pool size accepted")
	}
	if _, err := CAWeightsRGB(0); err == nil {
		t.Error("pool 0 accepted")
	}
}

func TestAcquisitorCompressUniformScene(t *testing.T) {
	arr, _ := sensor.NewArray(8, 8)
	scene := sensor.NewImage(8, 8, 3)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			scene.Set(y, x, 0, 0.8)
			scene.Set(y, x, 1, 0.6)
			scene.Set(y, x, 2, 0.4)
		}
	}
	frame, err := arr.Capture(scene)
	if err != nil {
		t.Fatal(err)
	}
	core, _ := NewCore(4, 4, Ideal)
	ca, err := NewAcquisitor(core, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ca.CompressSeeded(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 4 || out.W != 4 || out.C != 1 {
		t.Fatalf("compressed dims %dx%dx%d, want 4x4x1", out.H, out.W, out.C)
	}
	// Expected gray: 0.299*0.8 + 0.587*0.6 + 0.114*0.4 = 0.6370, but each
	// site is first quantized by the 4-bit CRC, so allow ~2 LSB.
	want := 0.299*0.8 + 0.587*0.6 + 0.114*0.4
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if math.Abs(out.At(y, x, 0)-want) > 2.0/15 {
				t.Errorf("(%d,%d): %g, want about %g", y, x, out.At(y, x, 0), want)
			}
		}
	}
}

func TestAcquisitorMatchesReference(t *testing.T) {
	arr, _ := sensor.NewArray(16, 16)
	scene := sensor.NewImage(16, 16, 3)
	rng := rand.New(rand.NewSource(5))
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			for ch := 0; ch < 3; ch++ {
				scene.Set(y, x, ch, rng.Float64())
			}
		}
	}
	frame, _ := arr.Capture(scene)
	core, _ := NewCore(4, 4, Physical)
	ca, err := NewAcquisitor(core, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ca.CompressSeeded(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ca.Reference(frame)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < got.H; y++ {
		for x := 0; x < got.W; x++ {
			// The photonic pass differs from exact float math by weight
			// quantization (4-bit) + crosstalk: stay within ~2 LSB.
			if math.Abs(got.At(y, x, 0)-ref.At(y, x, 0)) > 2.0/15 {
				t.Errorf("(%d,%d): photonic %g vs reference %g", y, x, got.At(y, x, 0), ref.At(y, x, 0))
			}
		}
	}
}

func TestAcquisitorPool4(t *testing.T) {
	arr, _ := sensor.NewArray(16, 16)
	scene := sensor.NewImage(16, 16, 3)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			for ch := 0; ch < 3; ch++ {
				scene.Set(y, x, ch, 1.0)
			}
		}
	}
	frame, _ := arr.Capture(scene)
	core, _ := NewCore(4, 4, Ideal)
	ca, err := NewAcquisitor(core, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ca.CompressSeeded(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 4 || out.W != 4 {
		t.Fatalf("4x pool output %dx%d, want 4x4", out.H, out.W)
	}
	// Full-white scene compresses to full-scale gray.
	if math.Abs(out.At(0, 0, 0)-1) > 2.0/15 {
		t.Errorf("white scene gray %g, want about 1", out.At(0, 0, 0))
	}
}

func TestAcquisitorRejectsIndivisibleFrame(t *testing.T) {
	core, _ := NewCore(4, 4, Ideal)
	ca, _ := NewAcquisitor(core, 4)
	arr, _ := sensor.NewArray(6, 6)
	frame := arr.ReadFrame()
	if _, err := ca.CompressSeeded(frame, 0); err == nil {
		t.Error("6x6 frame with pool 4 accepted")
	}
	if _, err := ca.Reference(frame); err == nil {
		t.Error("6x6 frame with pool 4 accepted by Reference")
	}
}

func TestFidelityString(t *testing.T) {
	if Ideal.String() != "ideal" || Physical.String() != "physical" || PhysicalNoisy.String() != "physical+noise" {
		t.Error("Fidelity.String broken")
	}
}
