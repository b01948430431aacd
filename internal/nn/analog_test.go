package nn

import (
	"math/rand"
	"testing"

	"lightator/internal/oc"
)

// TestEnableAnalogQAT: enabling attaches both the weight quantizer (at
// the core's precision) and the analog forward to every Conv2D and Dense.
func TestEnableAnalogQAT(t *testing.T) {
	core, err := oc.NewCore(4, 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}
	net := NewSequential(
		NewConv2D("c1", 1, 2, 3, 1, 1),
		NewReLU("r1"),
		NewFlatten("f"),
		NewDense("d1", 2*4*4, 3),
	)
	EnableAnalogQAT(net, core)
	conv := net.Layers[0].(*Conv2D)
	dense := net.Layers[3].(*Dense)
	if conv.Analog != core || dense.Analog != core {
		t.Fatal("analog core not attached to every Conv2D/Dense")
	}
	if conv.WQuant == nil || conv.WQuant.Bits != core.WBits {
		t.Fatalf("conv weight quantizer not set to core precision: %+v", conv.WQuant)
	}
	if dense.WQuant == nil || dense.WQuant.Bits != core.WBits {
		t.Fatalf("dense weight quantizer not set to core precision: %+v", dense.WQuant)
	}
}

// TestAnalogEffectiveWeights: with an analog core attached, the layer's
// effective weights are exactly the core's fidelity-true transfer — and
// in Physical fidelity they differ from the plain quantization grid
// (that difference is the crosstalk the QAT loop trains against).
func TestAnalogEffectiveWeights(t *testing.T) {
	core, err := oc.NewCore(4, 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDense("d", 12, 4)
	rng := rand.New(rand.NewSource(7))
	for i := range d.W.Data {
		d.W.Data[i] = rng.Float64()*2 - 1
	}
	d.WQuant = &WeightQuant{Bits: core.WBits}
	d.Analog = core

	got := d.effectiveWeights()
	want := make([]float64, len(d.W.Data))
	if err := core.AnalogWeightsInto(want, d.W.Data, d.Out, d.In); err != nil {
		t.Fatal(err)
	}
	plain := make([]float64, len(d.W.Data))
	d.WQuant.Apply(d.W.Data, plain)
	differs := false
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("effective weight %d: got %v, want analog %v", i, got[i], want[i])
		}
		if got[i] != plain[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("Physical analog weights identical to the plain grid — crosstalk not in the loop")
	}
}

// TestAnalogSTEBackward: the backward pass is a straight-through
// estimator — the weight gradient is the plain dense gradient (dy ⊗ x),
// untouched by the analog map, so float weights keep training.
func TestAnalogSTEBackward(t *testing.T) {
	core, err := oc.NewCore(4, 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDense("d", 5, 3)
	rng := rand.New(rand.NewSource(9))
	for i := range d.W.Data {
		d.W.Data[i] = rng.Float64()*2 - 1
	}
	d.WQuant = &WeightQuant{Bits: core.WBits}
	d.Analog = core

	x := NewTensor(1, 5)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	if _, err := d.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	dy := NewTensor(1, 3)
	for i := range dy.Data {
		dy.Data[i] = 1
	}
	dx, err := d.Backward(dy)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < d.Out; o++ {
		for i := 0; i < d.In; i++ {
			if d.W.Grad[o*d.In+i] != x.Data[i] {
				t.Fatalf("STE weight grad [%d,%d] = %v, want x[%d] = %v",
					o, i, d.W.Grad[o*d.In+i], i, x.Data[i])
			}
		}
	}
	// dx flows through the effective (analog) weights.
	wts := d.effectiveWeights()
	for i := 0; i < d.In; i++ {
		want := 0.0
		for o := 0; o < d.Out; o++ {
			want += wts[o*d.In+i]
		}
		if dx.Data[i] != want {
			t.Fatalf("dx[%d] = %v, want sum of analog weights %v", i, dx.Data[i], want)
		}
	}
}

// TestCloneSharedCopiesAnalog: worker clones must see the same analog
// core (and quantizer) as the master, or data-parallel QAT would train a
// different forward per worker.
func TestCloneSharedCopiesAnalog(t *testing.T) {
	core, err := oc.NewCore(4, 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}
	net := NewSequential(
		NewConv2D("c1", 1, 2, 3, 1, 1),
		NewFlatten("f"),
		NewDense("d1", 2*4*4, 3),
	)
	EnableAnalogQAT(net, core)
	clone := net.CloneShared()
	if c := clone.Layers[0].(*Conv2D); c.Analog != core || c.WQuant == nil {
		t.Fatal("conv clone lost its analog core or quantizer")
	}
	if d := clone.Layers[2].(*Dense); d.Analog != core || d.WQuant == nil {
		t.Fatal("dense clone lost its analog core or quantizer")
	}
}

// TestActQuantExternalMode: external calibration records the observed
// batch maximum without touching Scale; TakeBatchMax drains the tracker;
// UpdateScale applies the momentum rule once, exactly like the
// self-calibrating path would have with the same reduced maximum.
func TestActQuantExternalMode(t *testing.T) {
	aq := NewActQuant("q", 4)
	aq.External = true

	x := NewTensor(1, 4)
	copy(x.Data, []float64{0.5, 2.0, 1.0, 0.25})
	if _, err := aq.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	if aq.Scale != 0 {
		t.Fatalf("external forward moved Scale to %v", aq.Scale)
	}
	if aq.BatchMax != 2.0 {
		t.Fatalf("BatchMax = %v, want 2.0", aq.BatchMax)
	}
	// A smaller batch must not shrink the tracked maximum.
	y := NewTensor(1, 2)
	copy(y.Data, []float64{0.1, 0.2})
	if _, err := aq.Forward(y, true); err != nil {
		t.Fatal(err)
	}
	if aq.BatchMax != 2.0 {
		t.Fatalf("BatchMax shrank to %v", aq.BatchMax)
	}
	if m := aq.TakeBatchMax(); m != 2.0 {
		t.Fatalf("TakeBatchMax = %v, want 2.0", m)
	}
	if aq.BatchMax != 0 {
		t.Fatalf("TakeBatchMax did not reset the tracker: %v", aq.BatchMax)
	}

	aq.UpdateScale(2.0)
	if aq.Scale != 2.0 {
		t.Fatalf("first UpdateScale: Scale = %v, want 2.0 (instant on zero scale)", aq.Scale)
	}
	aq.UpdateScale(1.0)
	if want := 0.9*2.0 + 0.1*1.0; aq.Scale != want {
		t.Fatalf("momentum UpdateScale: Scale = %v, want %v", aq.Scale, want)
	}
	aq.Frozen = true
	aq.UpdateScale(10)
	if want := 0.9*2.0 + 0.1*1.0; aq.Scale != want {
		t.Fatalf("frozen UpdateScale moved Scale to %v", aq.Scale)
	}

	// CloneShared must not carry a pending batch maximum into a worker.
	aq.Frozen = false
	aq.BatchMax = 5
	clone := aq.CloneShared().(*ActQuant)
	if clone.BatchMax != 0 {
		t.Fatalf("clone inherited BatchMax %v", clone.BatchMax)
	}
	if !clone.External || clone.Scale != aq.Scale {
		t.Fatal("clone lost External mode or Scale")
	}
}

// TestActQuantsOrder: ActQuants returns the quantizers in layer order —
// the index-aligned reduction across clones depends on it.
func TestActQuantsOrder(t *testing.T) {
	a1, a2 := NewActQuant("a1", 4), NewActQuant("a2", 4)
	net := NewSequential(NewFlatten("f"), a1, NewDense("d", 4, 4), a2)
	qs := ActQuants(net)
	if len(qs) != 2 || qs[0] != a1 || qs[1] != a2 {
		t.Fatalf("ActQuants order wrong: %v", qs)
	}
	SetActQuantExternal(net, true)
	if !a1.External || !a2.External {
		t.Fatal("SetActQuantExternal(true) missed a quantizer")
	}
	a1.BatchMax = 3
	SetActQuantExternal(net, false)
	if a1.External || a1.BatchMax != 0 {
		t.Fatal("SetActQuantExternal(false) should clear mode and tracker")
	}
}
