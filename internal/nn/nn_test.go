package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3, 4, 5)
	if x.Size() != 120 {
		t.Fatalf("size %d", x.Size())
	}
	x.Set4(1, 2, 3, 4, 7)
	if x.At4(1, 2, 3, 4) != 7 {
		t.Fatal("At4/Set4 round trip failed")
	}
	y := x.Clone()
	y.Set4(1, 2, 3, 4, 9)
	if x.At4(1, 2, 3, 4) != 7 {
		t.Fatal("clone aliased")
	}
	r, err := x.Reshape(6, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dim(0) != 6 || r.Dim(1) != 20 {
		t.Fatal("reshape dims wrong")
	}
	if _, err := x.Reshape(7, 7); err == nil {
		t.Fatal("bad reshape accepted")
	}
	x.Fill(-3)
	if x.MaxAbs() != 3 {
		t.Fatalf("maxabs %g", x.MaxAbs())
	}
	if !x.ShapeEquals(y) {
		t.Fatal("equal shapes reported unequal")
	}
}

// numericGrad estimates dLoss/dv for a scalar view into the network.
func numericGrad(f func() float64, v *float64) float64 {
	const eps = 1e-5
	old := *v
	*v = old + eps
	up := f()
	*v = old - eps
	down := f()
	*v = old
	return (up - down) / (2 * eps)
}

// TestConvGradCheck verifies Conv2D backward against numeric gradients.
func TestConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D("c", 2, 3, 3, 1, 1)
	for i := range conv.W.Data {
		conv.W.Data[i] = rng.NormFloat64() * 0.5
	}
	for i := range conv.B.Data {
		conv.B.Data[i] = rng.NormFloat64() * 0.1
	}
	x := NewTensor(2, 2, 5, 5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := []int{1, 2}
	loss := func() float64 {
		y, err := conv.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		flat, _ := y.Reshape(2, y.Size()/2)
		l, _, err := SoftmaxCrossEntropy(&Tensor{Shape: []int{2, flat.Shape[1]}, Data: flat.Data}, labels)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// Analytic gradients.
	y, err := conv.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	flat, _ := y.Reshape(2, y.Size()/2)
	_, g, err := SoftmaxCrossEntropy(flat, labels)
	if err != nil {
		t.Fatal(err)
	}
	gr, _ := g.Reshape(y.Shape...)
	conv.W.ZeroGrad()
	conv.B.ZeroGrad()
	dx, err := conv.Backward(gr)
	if err != nil {
		t.Fatal(err)
	}
	// Check a sample of weight gradients.
	for _, idx := range []int{0, 7, 19, 33, len(conv.W.Data) - 1} {
		num := numericGrad(loss, &conv.W.Data[idx])
		if math.Abs(num-conv.W.Grad[idx]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("W[%d]: analytic %g numeric %g", idx, conv.W.Grad[idx], num)
		}
	}
	for idx := range conv.B.Data {
		num := numericGrad(loss, &conv.B.Data[idx])
		if math.Abs(num-conv.B.Grad[idx]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("B[%d]: analytic %g numeric %g", idx, conv.B.Grad[idx], num)
		}
	}
	// Input gradients.
	for _, idx := range []int{0, 13, 49, len(x.Data) - 1} {
		num := numericGrad(loss, &x.Data[idx])
		if math.Abs(num-dx.Data[idx]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("x[%d]: analytic %g numeric %g", idx, dx.Data[idx], num)
		}
	}
}

// TestDenseGradCheck verifies Dense backward against numeric gradients.
func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense("d", 6, 4)
	for i := range d.W.Data {
		d.W.Data[i] = rng.NormFloat64() * 0.5
	}
	x := NewTensor(3, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := []int{0, 3, 1}
	loss := func() float64 {
		y, _ := d.Forward(x, true)
		l, _, _ := SoftmaxCrossEntropy(y, labels)
		return l
	}
	y, _ := d.Forward(x, true)
	_, g, _ := SoftmaxCrossEntropy(y, labels)
	d.W.ZeroGrad()
	d.B.ZeroGrad()
	dx, err := d.Backward(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 5, 11, 23} {
		num := numericGrad(loss, &d.W.Data[idx])
		if math.Abs(num-d.W.Grad[idx]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("W[%d]: analytic %g numeric %g", idx, d.W.Grad[idx], num)
		}
	}
	for _, idx := range []int{0, 5, 17} {
		num := numericGrad(loss, &x.Data[idx])
		if math.Abs(num-dx.Data[idx]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("x[%d]: analytic %g numeric %g", idx, dx.Data[idx], num)
		}
	}
}

func TestActivationsForwardBackward(t *testing.T) {
	x := NewTensor(1, 4)
	copy(x.Data, []float64{-2, -0.5, 0.5, 2})

	r := NewReLU("r")
	y, _ := r.Forward(x, true)
	wantR := []float64{0, 0, 0.5, 2}
	for i := range wantR {
		if y.Data[i] != wantR[i] {
			t.Errorf("relu[%d] = %g", i, y.Data[i])
		}
	}
	g := NewTensor(1, 4)
	g.Fill(1)
	dg, _ := r.Backward(g)
	wantG := []float64{0, 0, 1, 1}
	for i := range wantG {
		if dg.Data[i] != wantG[i] {
			t.Errorf("relu grad[%d] = %g", i, dg.Data[i])
		}
	}
}

func TestAvgPoolForwardBackward(t *testing.T) {
	x := NewTensor(1, 1, 2, 2)
	copy(x.Data, []float64{1, 2, 3, 4})
	p := NewAvgPool2D("p", 2)
	y, err := p.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] != 2.5 {
		t.Errorf("avgpool = %g, want 2.5", y.Data[0])
	}
	g := NewTensor(1, 1, 1, 1)
	g.Fill(1)
	dx, _ := p.Backward(g)
	for i := range dx.Data {
		if dx.Data[i] != 0.25 {
			t.Errorf("avgpool grad[%d] = %g, want 0.25", i, dx.Data[i])
		}
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := NewTensor(2, 3)
	copy(logits.Data, []float64{10, 0, 0, 0, 0, 10})
	loss, grad, err := SoftmaxCrossEntropy(logits, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.01 {
		t.Errorf("confident correct predictions: loss %g", loss)
	}
	// Gradient rows sum to ~0.
	for b := 0; b < 2; b++ {
		sum := 0.0
		for c := 0; c < 3; c++ {
			sum += grad.Data[b*3+c]
		}
		if math.Abs(sum) > 1e-12 {
			t.Errorf("grad row %d sums to %g", b, sum)
		}
	}
	if _, _, err := SoftmaxCrossEntropy(logits, []int{0}); err == nil {
		t.Error("label count mismatch accepted")
	}
	if _, _, err := SoftmaxCrossEntropy(logits, []int{0, 9}); err == nil {
		t.Error("out-of-range label accepted")
	}
	if Accuracy(logits, []int{0, 2}) != 1 {
		t.Error("accuracy should be 1")
	}
	if Accuracy(logits, []int{1, 1}) != 0 {
		t.Error("accuracy should be 0")
	}
}

func TestQuantizeSymmetricGrid(t *testing.T) {
	// 4-bit: 16 levels over [-1,1].
	vals := map[float64]bool{}
	for i := 0; i <= 1000; i++ {
		v := -1 + 2*float64(i)/1000
		q := QuantizeSymmetric(v, 1, 4)
		vals[q] = true
	}
	if len(vals) != 16 {
		t.Errorf("distinct 4-bit levels %d, want 16", len(vals))
	}
	if QuantizeSymmetric(1, 1, 4) != 1 || QuantizeSymmetric(-1, 1, 4) != -1 {
		t.Error("endpoints not preserved")
	}
	if QuantizeSymmetric(5, 1, 4) != 1 {
		t.Error("over-range not clipped")
	}
	if QuantizeSymmetric(0.3, 0, 4) != 0 {
		t.Error("zero scale should map to 0")
	}
}

func TestQuantizeUnsignedGrid(t *testing.T) {
	vals := map[float64]bool{}
	for i := 0; i <= 1000; i++ {
		q := QuantizeUnsigned(float64(i)/1000, 1, 4)
		vals[q] = true
	}
	if len(vals) != 16 {
		t.Errorf("distinct levels %d, want 16", len(vals))
	}
	if QuantizeUnsigned(-0.5, 1, 4) != 0 {
		t.Error("negative not clipped to 0")
	}
	if QuantizeUnsigned(2, 1, 4) != 1 {
		t.Error("over-range not clipped")
	}
}

// Property: quantization error is bounded by half a step.
func TestQuantErrorBoundProperty(t *testing.T) {
	f := func(raw float64, bitsRaw uint8) bool {
		bits := int(bitsRaw%7) + 2
		v := math.Mod(raw, 1)
		step := 2.0 / float64((int(1)<<uint(bits))-1)
		q := QuantizeSymmetric(v, 1, bits)
		return math.Abs(q-v) <= step/2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightQuantApply(t *testing.T) {
	q := &WeightQuant{Bits: 4}
	w := []float64{0.5, -0.25, 2.0, -2.0}
	out := make([]float64, 4)
	scale := q.Apply(w, out)
	if scale != 2 {
		t.Errorf("scale %g, want 2 (max abs)", scale)
	}
	if out[2] != 2 || out[3] != -2 {
		t.Error("extremes not preserved")
	}
	// Zero tensor stays zero with zero scale.
	zeros := make([]float64, 3)
	outZ := make([]float64, 3)
	if s := q.Apply(zeros, outZ); s != 0 {
		t.Errorf("zero-tensor scale %g", s)
	}
}

func TestActQuantCalibration(t *testing.T) {
	aq := NewActQuant("aq", 4)
	x := NewTensor(1, 4)
	copy(x.Data, []float64{0, 1, 2, 4})
	if _, err := aq.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	if aq.Scale != 4 {
		t.Errorf("first-batch scale %g, want 4", aq.Scale)
	}
	// Momentum update toward a smaller batch max.
	x2 := NewTensor(1, 4)
	copy(x2.Data, []float64{0, 0.5, 1, 2})
	if _, err := aq.Forward(x2, true); err != nil {
		t.Fatal(err)
	}
	want := 0.9*4 + 0.1*2
	if math.Abs(aq.Scale-want) > 1e-12 {
		t.Errorf("momentum scale %g, want %g", aq.Scale, want)
	}
	// Frozen: no update.
	aq.Frozen = true
	s := aq.Scale
	if _, err := aq.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	if aq.Scale != s {
		t.Error("frozen quantizer updated its scale")
	}
	// Inference quantizes onto the grid.
	y, _ := aq.Forward(x2, false)
	n := 15.0
	for i, v := range y.Data {
		onGrid := math.Round(v/aq.Scale*n) / n * aq.Scale
		if math.Abs(v-onGrid) > 1e-12 {
			t.Errorf("output[%d] %g off grid", i, v)
		}
	}
}

func TestSequentialTrainsXORLike(t *testing.T) {
	// A tiny end-to-end training sanity check: learn to classify points
	// by quadrant parity (XOR of signs) — requires the hidden layer.
	net := NewSequential(
		NewDense("d1", 2, 16),
		NewReLU("r1"),
		NewDense("d2", 16, 2),
	)
	net.InitHe(7)
	rng := rand.New(rand.NewSource(9))
	sample := func() ([]float64, int) {
		x1 := rng.Float64()*2 - 1
		x2 := rng.Float64()*2 - 1
		label := 0
		if (x1 > 0) != (x2 > 0) {
			label = 1
		}
		return []float64{x1, x2}, label
	}
	lr := 0.1
	for step := 0; step < 600; step++ {
		xb := NewTensor(16, 2)
		labels := make([]int, 16)
		for i := 0; i < 16; i++ {
			v, l := sample()
			xb.Data[i*2], xb.Data[i*2+1] = v[0], v[1]
			labels[i] = l
		}
		net.ZeroGrad()
		y, err := net.Forward(xb, true)
		if err != nil {
			t.Fatal(err)
		}
		_, g, err := SoftmaxCrossEntropy(y, labels)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Backward(g); err != nil {
			t.Fatal(err)
		}
		for _, p := range net.Params() {
			for i := range p.Data {
				p.Data[i] -= lr * p.Grad[i]
			}
		}
	}
	// Evaluate.
	xb := NewTensor(256, 2)
	labels := make([]int, 256)
	for i := 0; i < 256; i++ {
		v, l := sample()
		xb.Data[i*2], xb.Data[i*2+1] = v[0], v[1]
		labels[i] = l
	}
	y, _ := net.Forward(xb, false)
	if acc := Accuracy(y, labels); acc < 0.9 {
		t.Errorf("XOR accuracy %g, want >= 0.9", acc)
	}
}

func TestCloneSharedSharesWeightsNotGrads(t *testing.T) {
	net := NewSequential(NewDense("d", 4, 2))
	net.InitHe(1)
	p0 := net.Params()[0]
	// The master's gradient exists before the clone is made, so a clone
	// that shared it would see it.
	p0.Gradient()
	clone := net.CloneShared()
	p1 := clone.Params()[0]
	if &p0.Data[0] != &p1.Data[0] {
		t.Error("clone does not share weight storage")
	}
	p1.Gradient()[0] = 5
	if p0.Grad[0] == 5 {
		t.Error("clone shares gradient storage")
	}
}

func TestEnableQATAndMixedPrecision(t *testing.T) {
	net := NewSequential(
		NewConv2D("c1", 1, 2, 3, 1, 0),
		NewReLU("r"),
		NewFlatten("f"),
		NewDense("d", 2*2*2, 10),
	)
	EnableQAT(net, 3)
	conv := net.Layers[0].(*Conv2D)
	dense := net.Layers[3].(*Dense)
	if conv.WQuant == nil || conv.WQuant.Bits != 3 {
		t.Error("conv not quantized to 3 bits")
	}
	if dense.WQuant == nil || dense.WQuant.Bits != 3 {
		t.Error("dense not quantized to 3 bits")
	}
	// MX: first layer back to 4 bits.
	if err := SetLayerWeightBits(net, 0, 4); err != nil {
		t.Fatal(err)
	}
	if conv.WQuant.Bits != 4 {
		t.Error("MX override failed")
	}
	if err := SetLayerWeightBits(net, 5, 4); err == nil {
		t.Error("out-of-range layer index accepted")
	}
}

func TestParamCount(t *testing.T) {
	net := NewSequential(NewDense("d", 10, 5))
	if net.ParamCount() != 55 {
		t.Errorf("param count %d, want 55", net.ParamCount())
	}
}
