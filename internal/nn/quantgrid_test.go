package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestConvStridePadGradCheck covers the strided/padded convolution path
// with numeric gradients (AlexNet-style geometry).
func TestConvStridePadGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	conv := NewConv2D("c", 1, 2, 3, 2, 1)
	for i := range conv.W.Data {
		conv.W.Data[i] = rng.NormFloat64() * 0.5
	}
	x := NewTensor(1, 1, 7, 7)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := []int{1}
	loss := func() float64 {
		y, err := conv.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		flat, _ := y.Reshape(1, y.Size())
		l, _, err := SoftmaxCrossEntropy(flat, labels)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	y, err := conv.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if y.Shape[2] != 4 || y.Shape[3] != 4 {
		t.Fatalf("strided output %v, want 4x4", y.Shape)
	}
	flat, _ := y.Reshape(1, y.Size())
	_, g, _ := SoftmaxCrossEntropy(flat, labels)
	gr, _ := g.Reshape(y.Shape...)
	conv.W.ZeroGrad()
	conv.B.ZeroGrad()
	if _, err := conv.Backward(gr); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 4, 9, 17} {
		num := numericGrad(loss, &conv.W.Data[idx])
		if math.Abs(num-conv.W.Grad[idx]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("W[%d]: analytic %g numeric %g", idx, conv.W.Grad[idx], num)
		}
	}
}

// TestQATWeightsLandOnGrid: with a WeightQuant attached, the effective
// weights used in Forward sit exactly on the 2^b-level grid that the MR
// bank model realises.
func TestQATWeightsLandOnGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense("d", 8, 4)
	for i := range d.W.Data {
		d.W.Data[i] = rng.NormFloat64()
	}
	d.WQuant = &WeightQuant{Bits: 3}
	x := NewTensor(1, 8)
	for i := range x.Data {
		x.Data[i] = 1
	}
	if _, err := d.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	scale := d.WQuant.Apply(d.W.Data, make([]float64, len(d.W.Data)))
	levels := map[float64]bool{}
	for _, v := range d.wq {
		levels[v/scale] = true
		// Each normalised value must be one of the 8 grid points.
		n := 7.0
		grid := math.Round((v/scale+1)/2*n)/n*2 - 1
		if math.Abs(v/scale-grid) > 1e-12 {
			t.Errorf("weight %g off the 3-bit grid", v/scale)
		}
	}
	if len(levels) > 8 {
		t.Errorf("%d distinct 3-bit levels", len(levels))
	}
}

// TestBackwardBeforeForwardErrors: every stateful layer must reject a
// backward pass without a cached training forward.
func TestBackwardBeforeForwardErrors(t *testing.T) {
	g := NewTensor(1, 4)
	layers := []Layer{
		NewConv2D("c", 1, 1, 3, 1, 0),
		NewDense("d", 4, 2),
		NewReLU("r"),
		NewAvgPool2D("a", 2),
		NewFlatten("f"),
		NewActQuant("q", 4),
	}
	for _, l := range layers {
		if _, err := l.Backward(g); err == nil {
			t.Errorf("%s accepted backward before forward", l.Name())
		}
	}
}

// TestInferenceForwardKeepsNoState: forward with train=false must not
// allocate caches, so inference is safe to share.
func TestInferenceForwardKeepsNoState(t *testing.T) {
	c := NewConv2D("c", 1, 1, 3, 1, 1)
	x := NewTensor(1, 1, 4, 4)
	if _, err := c.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	if c.x != nil {
		t.Error("inference forward cached its input")
	}
}
