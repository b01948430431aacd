package oc

import (
	"math"
	"testing"

	"lightator/internal/photonics"
)

// Failure injection: a weight bank with as-fabricated (untrimmed)
// resonance scatter must show visibly degraded MAC precision, while the
// post-trim residual model stays within a fraction of a weight step —
// this is why resonance locking/trimming is mandatory for MR accelerators
// (CrossLight and Robin devote design effort to exactly this).
func TestFabricationVariationDegradesMAC(t *testing.T) {
	weights := []float64{0.5, -0.25, 1, -1, 0, 0.75, -0.5, 0.125, -0.875}
	acts := []float64{1, 0.5, 0.25, 1, 0.75, 0.25, 0.5, 1, 0.25}

	measure := func(vm photonics.VariationModel, seed int64) float64 {
		wb := photonics.NewWeightBank(9)
		if err := wb.Program(weights); err != nil {
			t.Fatal(err)
		}
		ideal, err := wb.IdealOutput(acts)
		if err != nil {
			t.Fatal(err)
		}
		src := photonics.NewNoiseSource(seed)
		if err := wb.PerturbResonances(vm.Sample(9, src)); err != nil {
			t.Fatal(err)
		}
		got, err := wb.Output(acts)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(got - ideal)
	}

	var trimmed, untrimmed float64
	for seed := int64(0); seed < 8; seed++ {
		trimmed += measure(photonics.DefaultVariation(), seed)
		untrimmed += measure(photonics.UntrimmedVariation(), seed)
	}
	trimmed /= 8
	untrimmed /= 8
	if untrimmed < 3*trimmed {
		t.Errorf("untrimmed variation error %.4f not clearly above trimmed %.4f", untrimmed, trimmed)
	}
	// Trimmed residual stays below one 4-bit weight step on a 9-tap MAC.
	if trimmed > 9.0/15 {
		t.Errorf("trimmed variation error %.4f exceeds the quantization budget", trimmed)
	}
}

// Failure injection: feeding activations outside the DMVA's range must
// clip (saturating driver), never amplify.
func TestActivationClipping(t *testing.T) {
	core, err := NewCore(4, 4, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := core.Program([][]float64{{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	inRange := applySeeded(t, pm, []float64{1, 1, 1}, 0)
	over := applySeeded(t, pm, []float64{10, 10, 10}, 0)
	if over[0] != inRange[0] {
		t.Errorf("over-range activations not clipped: %g vs %g", over[0], inRange[0])
	}
	under := applySeeded(t, pm, []float64{-5, -5, -5}, 0)
	if under[0] != 0 {
		t.Errorf("negative activations should clip to zero light: %g", under[0])
	}
}

// Weight levels must be symmetric around zero for even level counts'
// midpoint pair, and the bank model must reproduce the exact quantized
// grid in Ideal fidelity.
func TestIdealGridExactness(t *testing.T) {
	core, err := NewCore(4, 4, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	n := 16
	w := make([][]float64, 1)
	w[0] = make([]float64, n)
	for l := 0; l < n; l++ {
		w[0][l] = -1 + 2*float64(l)/float64(n-1)
	}
	pm, err := core.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	// One-hot activations extract each programmed weight.
	for l := 0; l < n; l++ {
		x := make([]float64, n)
		x[l] = 1
		y := applySeeded(t, pm, x, 0)
		want := -1 + 2*float64(l)/float64(n-1)
		if math.Abs(y[0]-want) > 1e-12 {
			t.Errorf("level %d: got %g, want %g", l, y[0], want)
		}
	}
}
