package photonics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGridWavelengths(t *testing.T) {
	g := DefaultGrid(9)
	lams := g.Wavelengths()
	if len(lams) != 9 {
		t.Fatalf("got %d wavelengths", len(lams))
	}
	for i := 1; i < len(lams); i++ {
		if math.Abs((lams[i]-lams[i-1])-g.Spacing) > 1e-18 {
			t.Fatalf("non-uniform spacing at %d", i)
		}
	}
	mid := (lams[0] + lams[8]) / 2
	if math.Abs(mid-g.Center) > 1e-15 {
		t.Fatalf("grid not centred: %g vs %g", mid, g.Center)
	}
}

func TestGridSpanWithinFSR(t *testing.T) {
	g := DefaultGrid(9)
	r := WeightBankRing(g.Center)
	span := float64(g.N-1) * g.Spacing
	if span >= r.FSR(g.Center) {
		t.Fatalf("WDM span %g exceeds ring FSR %g: periodic aliasing", span, r.FSR(g.Center))
	}
}

func TestWeightBankProgramAndOutput(t *testing.T) {
	wb := NewWeightBank(9)
	weights := []float64{0.5, -0.25, 1, -1, 0, 0.75, -0.5, 0.125, -0.875}
	if err := wb.Program(weights); err != nil {
		t.Fatal(err)
	}
	acts := []float64{1, 0.5, 0.25, 1, 0.75, 0, 0.5, 1, 0.25}
	got, err := wb.Output(acts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wb.IdealOutput(acts)
	if err != nil {
		t.Fatal(err)
	}
	// Crosstalk bounds: the physical result should track the ideal MAC
	// within a few percent of full scale for a 9-channel, 2 nm bank.
	if math.Abs(got-want) > 0.15 {
		t.Errorf("photonic MAC %g vs ideal %g: crosstalk too large", got, want)
	}
}

func TestWeightBankCrosstalkSmall(t *testing.T) {
	wb := NewWeightBank(9)
	// Program one strong weight, zeros elsewhere (level for 0 still parks
	// mid-range detuning). Coefficients off the hot channel should stay
	// close to their programmed values.
	weights := make([]float64, 9)
	weights[4] = -1 // on resonance: maximum perturbation to neighbours
	if err := wb.Program(weights); err != nil {
		t.Fatal(err)
	}
	coeffs := wb.TransferCoefficients()
	for j, c := range coeffs {
		if j == 4 {
			if math.Abs(c-(-1)) > 0.05 {
				t.Errorf("hot channel coefficient %g, want about -1", c)
			}
			continue
		}
		if math.Abs(c-weights[j]) > 0.08 {
			t.Errorf("channel %d coefficient %g, want near %g (crosstalk)", j, c, weights[j])
		}
	}
}

func TestWeightBankHeaterPower(t *testing.T) {
	wb := NewWeightBank(9)
	if err := wb.Program(make([]float64, 9)); err != nil {
		t.Fatal(err)
	}
	p := wb.HeaterPower()
	if p <= 0 {
		t.Fatal("zero heater power for nonzero detunings")
	}
	// Per-MR average must be microwatt-to-milliwatt scale; anything beyond
	// says the tuner model is unphysical.
	per := p / 9
	if per > 20e-3 {
		t.Errorf("per-MR heater power %g W too large", per)
	}
}

func TestPerturbResonancesChangesCoefficients(t *testing.T) {
	wb := NewWeightBank(9)
	weights := []float64{0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 1, -1, 0}
	if err := wb.Program(weights); err != nil {
		t.Fatal(err)
	}
	before := wb.TransferCoefficients()
	offsets := make([]float64, 9)
	for i := range offsets {
		offsets[i] = 0.2e-9 // 0.2 nm uncorrected variation
	}
	if err := wb.PerturbResonances(offsets); err != nil {
		t.Fatal(err)
	}
	after := wb.TransferCoefficients()
	moved := false
	for i := range before {
		if math.Abs(before[i]-after[i]) > 1e-3 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("0.2 nm resonance perturbation did not move any coefficient")
	}
}

func TestBankModelLevelMapping(t *testing.T) {
	bm, err := NewBankModel(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Levels() != 16 {
		t.Fatalf("levels = %d", bm.Levels())
	}
	if w := bm.LevelToWeight(0); w != -1 {
		t.Errorf("level 0 -> %g, want -1", w)
	}
	if w := bm.LevelToWeight(15); w != 1 {
		t.Errorf("level 15 -> %g, want 1", w)
	}
	// Round trip within half a step.
	step := 2.0 / 15
	for l := 0; l < 16; l++ {
		w := bm.LevelToWeight(l)
		if bm.WeightToLevel(w) != l {
			t.Errorf("level %d -> weight %g -> level %d", l, w, bm.WeightToLevel(w))
		}
		if bm.WeightToLevel(w+step/2.01) != l && bm.WeightToLevel(w+step/2.01) != l+1 {
			t.Errorf("perturbed weight mapped far from level %d", l)
		}
	}
}

func TestBankModelMatchesWeightBank(t *testing.T) {
	// The quantized fast path must agree with the exact per-ring model
	// when programmed with the same quantized weights.
	bm, err := NewBankModel(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	wb := NewWeightBank(9)
	levels := []int{0, 3, 7, 8, 11, 15, 5, 9, 12}
	weights := make([]float64, 9)
	for i, l := range levels {
		weights[i] = bm.LevelToWeight(l)
	}
	if err := wb.Program(weights); err != nil {
		t.Fatal(err)
	}
	exact := wb.TransferCoefficients()
	fast := make([]float64, 9)
	if err := bm.Coefficients(fast, levels); err != nil {
		t.Fatal(err)
	}
	for j := range exact {
		if math.Abs(exact[j]-fast[j]) > 0.02 {
			t.Errorf("channel %d: exact %g vs table %g", j, exact[j], fast[j])
		}
	}
}

func TestBankModelShortSegment(t *testing.T) {
	bm, err := NewBankModel(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	// FC tail segments use fewer than 9 weights; remaining rings parked.
	coeffs := make([]float64, 9)
	if err := bm.Coefficients(coeffs, []int{15, 0, 8}); err != nil {
		t.Fatal(err)
	}
	// Parked channels see only residual crosstalk; their coefficients sit
	// near the transparent value (close to +1/scale of full through).
	for j := 3; j < 9; j++ {
		if coeffs[j] < 0.9 {
			t.Errorf("parked channel %d coefficient %g, want near transparent (>0.9)", j, coeffs[j])
		}
	}
}

func TestBankModelCoefficientAccuracyProperty(t *testing.T) {
	bm, err := NewBankModel(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		levels := make([]int, 9)
		for i := range levels {
			levels[i] = rng.Intn(16)
		}
		coeffs, ideal := make([]float64, 9), make([]float64, 9)
		if bm.Coefficients(coeffs, levels) != nil || bm.IdealCoefficients(ideal, levels) != nil {
			return false
		}
		for j := range coeffs {
			if math.Abs(coeffs[j]-ideal[j]) > 0.12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBankModelHeaterPower(t *testing.T) {
	bm, err := NewBankModel(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	mean := bm.MeanHeaterPowerPerRing()
	if mean <= 0 || mean > 20e-3 {
		t.Fatalf("mean heater power per ring %g W unphysical", mean)
	}
	full := bm.HeaterPower([]int{0, 1, 2, 3, 4, 5, 6, 7, 8})
	if full <= 0 {
		t.Fatal("zero heater power for a programmed bank")
	}
}

func TestBankModelRejectsBadInput(t *testing.T) {
	if _, err := NewBankModel(0, 4); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewBankModel(9, 0); err == nil {
		t.Error("0 bits accepted")
	}
	if _, err := NewBankModel(9, 12); err == nil {
		t.Error("12 bits accepted")
	}
	bm, _ := NewBankModel(9, 4)
	if err := bm.Coefficients(make([]float64, 10), make([]int, 10)); err == nil {
		t.Error("oversized segment accepted")
	}
	if err := bm.Coefficients(make([]float64, 2), make([]int, 3)); err == nil {
		t.Error("destination shorter than the programmed rings accepted")
	}
	if err := bm.Coefficients(make([]float64, 1), []int{99}); err == nil {
		t.Error("invalid level accepted")
	}
}

func TestVCSELLICurve(t *testing.T) {
	v := DefaultVCSEL(CBandCenter)
	if p := v.OpticalPower(0); p != 0 {
		t.Errorf("power below threshold: %g", p)
	}
	if p := v.OpticalPower(v.ThresholdCurrent); p != 0 {
		t.Errorf("power at threshold: %g", p)
	}
	p1 := v.OpticalPower(2e-3)
	p2 := v.OpticalPower(4e-3)
	if p1 <= 0 || p2 <= p1 {
		t.Fatalf("L-I curve not increasing: %g %g", p1, p2)
	}
	// Slope check.
	slope := (p2 - p1) / 2e-3
	if math.Abs(slope-v.SlopeEfficiency) > 1e-12 {
		t.Errorf("slope %g, want %g", slope, v.SlopeEfficiency)
	}
	// Clip at max current.
	if v.OpticalPower(1) != v.MaxOpticalPower() {
		t.Error("no clipping at max current")
	}
}

func TestPhotodetectorCurrent(t *testing.T) {
	d := DefaultPhotodetector()
	if got := d.Current(0); math.Abs(got-d.DarkCurrent) > 1e-18 {
		t.Errorf("dark current %g, want %g", got, d.DarkCurrent)
	}
	if got := d.Current(1e-3); got <= d.Current(1e-4) {
		t.Error("photocurrent not increasing with power")
	}
	if got := d.Current(-1); math.Abs(got-d.DarkCurrent) > 1e-18 {
		t.Error("negative power should clip to zero")
	}
}

func TestBalancedDetectorCancelsDark(t *testing.T) {
	b := DefaultBalancedDetector()
	if out := b.Output(0, 0); math.Abs(out) > 1e-18 {
		t.Errorf("balanced output with no light: %g", out)
	}
	plus := b.Output(1e-3, 0)
	minus := b.Output(0, 1e-3)
	if math.Abs(plus+minus) > 1e-15 {
		t.Errorf("balanced detector asymmetric: %g vs %g", plus, minus)
	}
}

func TestNoiseSigmasPositive(t *testing.T) {
	d := DefaultPhotodetector()
	if d.ShotNoiseSigma(1e-3) <= 0 {
		t.Error("shot noise sigma not positive")
	}
	if d.ThermalNoiseSigma() <= 0 {
		t.Error("thermal noise sigma not positive")
	}
	b := DefaultBalancedDetector()
	if b.NoisySigma(1e-3, 1e-3) <= b.NoisySigma(0, 0) {
		t.Error("noise should grow with optical power (shot noise)")
	}
}

func TestNoiseSourceDeterminism(t *testing.T) {
	a := NewNoiseSource(42)
	b := NewNoiseSource(42)
	for i := 0; i < 100; i++ {
		if a.Normal() != b.Normal() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestVariationSampling(t *testing.T) {
	v := DefaultVariation()
	src := NewNoiseSource(1)
	offsets := v.Sample(9, src)
	if len(offsets) != 9 {
		t.Fatalf("got %d offsets", len(offsets))
	}
	// All should be sub-nanometer for the trimmed model.
	for _, o := range offsets {
		if math.Abs(o) > 1e-9 {
			t.Errorf("trimmed variation offset %g m too large", o)
		}
	}
	// Untrimmed model must be visibly wider on average.
	ut := UntrimmedVariation()
	var sumT, sumU float64
	for i := 0; i < 200; i++ {
		for _, o := range v.Sample(9, src) {
			sumT += math.Abs(o)
		}
		for _, o := range ut.Sample(9, src) {
			sumU += math.Abs(o)
		}
	}
	if sumU < 3*sumT {
		t.Errorf("untrimmed variation (%g) not clearly wider than trimmed (%g)", sumU, sumT)
	}
}
