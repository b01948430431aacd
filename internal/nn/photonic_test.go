package nn

import (
	"math"
	"math/rand"
	"testing"

	"lightator/internal/oc"
)

// buildTinyQATNet returns a small conv+fc network with QAT enabled and
// calibrated activation scales, ready for photonic compilation.
func buildTinyQATNet(t *testing.T, wBits int) *Sequential {
	t.Helper()
	net := NewSequential(
		NewConv2D("c1", 1, 4, 3, 1, 1),
		NewReLU("r1"),
		NewActQuant("q1", 4),
		NewAvgPool2D("p1", 2),
		NewFlatten("f"),
		NewDense("d1", 4*4*4, 10),
	)
	net.InitHe(3)
	EnableQAT(net, wBits)
	// Calibrate activation scales with a few training-mode passes.
	rng := rand.New(rand.NewSource(4))
	for pass := 0; pass < 4; pass++ {
		x := NewTensor(2, 1, 8, 8)
		for i := range x.Data {
			x.Data[i] = rng.Float64()
		}
		if _, err := net.Forward(x, true); err != nil {
			t.Fatal(err)
		}
	}
	FreezeActQuant(net, true)
	return net
}

func TestPhotonicExecMatchesDigitalQuantized(t *testing.T) {
	net := buildTinyQATNet(t, 4)
	pe, err := NewPhotonicExec(net, 4, oc.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	x := NewTensor(3, 1, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	yd, err := net.Forward(x.Clone(), false)
	if err != nil {
		t.Fatal(err)
	}
	yp, err := pe.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !yd.ShapeEquals(yp) {
		t.Fatalf("shape mismatch %v vs %v", yd.Shape, yp.Shape)
	}
	// Ideal photonic execution re-quantizes activations on the optical
	// grid; small residual differences come from inputs that the digital
	// path does not quantize (the raw image). Outputs must agree closely
	// relative to the logit scale.
	scale := math.Max(yd.MaxAbs(), 1e-9)
	for i := range yd.Data {
		if math.Abs(yd.Data[i]-yp.Data[i]) > 0.08*scale {
			t.Errorf("logit %d: digital %g photonic %g", i, yd.Data[i], yp.Data[i])
		}
	}
}

func TestPhotonicExecPhysicalClose(t *testing.T) {
	net := buildTinyQATNet(t, 4)
	pi, err := NewPhotonicExec(net, 4, oc.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewPhotonicExec(net, 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	x := NewTensor(2, 1, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	yi, err := pi.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	yp, err := pp.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	scale := math.Max(yi.MaxAbs(), 1e-9)
	for i := range yi.Data {
		if math.Abs(yi.Data[i]-yp.Data[i]) > 0.25*scale {
			t.Errorf("logit %d: ideal %g physical %g — crosstalk too destructive", i, yi.Data[i], yp.Data[i])
		}
	}
}

// TestPhotonicExecForwardIsPure pins training-eval determinism: every MVM
// draws a seed derived from (stage, sample, patch), so two Forward calls
// on the same tensor are bit-identical in every fidelity — noisy included
// — and the ABFT checks verifying each MVM raise no false alarms.
func TestPhotonicExecForwardIsPure(t *testing.T) {
	net := buildTinyQATNet(t, 4)
	rng := rand.New(rand.NewSource(13))
	x := NewTensor(2, 1, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	for _, fid := range []oc.Fidelity{oc.Ideal, oc.Physical, oc.PhysicalNoisy} {
		pe, err := NewPhotonicExec(net, 4, fid)
		if err != nil {
			t.Fatal(err)
		}
		a, err := pe.Forward(x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		b, err := pe.Forward(x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%v: output %d differs across identical Forward calls: %g vs %g", fid, i, a.Data[i], b.Data[i])
			}
		}
		checks := int64(0)
		for _, core := range pe.cores {
			for _, h := range core.Health().Snapshot() {
				checks += h.Checks
				if h.Detections != 0 {
					t.Errorf("%v: %s raised %d ABFT detections", fid, h.Label, h.Detections)
				}
			}
		}
		if checks == 0 {
			t.Errorf("%v: Forward ran no ABFT checks", fid)
		}
	}
}

func TestPhotonicExecMixedPrecision(t *testing.T) {
	net := buildTinyQATNet(t, 3)
	if err := SetLayerWeightBits(net, 0, 4); err != nil {
		t.Fatal(err)
	}
	pe, err := NewPhotonicExec(net, 4, oc.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	if len(pe.cores) != 2 {
		t.Errorf("MX network should build 2 cores (4-bit and 3-bit), got %d", len(pe.cores))
	}
	x := NewTensor(1, 1, 8, 8)
	if _, err := pe.Forward(x); err != nil {
		t.Fatal(err)
	}
}

func TestPhotonicExecRequiresCalibration(t *testing.T) {
	net := NewSequential(
		NewConv2D("c1", 1, 2, 3, 1, 1),
		NewReLU("r1"),
		NewActQuant("q1", 4), // never calibrated
		NewFlatten("f"),
		NewDense("d1", 2*8*8, 4),
	)
	net.InitHe(1)
	EnableQAT(net, 4)
	if _, err := NewPhotonicExec(net, 4, oc.Ideal); err == nil {
		t.Fatal("uncalibrated network accepted")
	}
}

func TestPhotonicExecMetrics(t *testing.T) {
	net := buildTinyQATNet(t, 4)
	pe, err := NewPhotonicExec(net, 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}
	// c1: 4 rows x ceil(9/9)=1 arm = 4 arms; d1: 10 rows x ceil(64/9)=8
	// arms = 80 arms.
	if pe.ArmCount() != 4+80 {
		t.Errorf("arm count %d, want 84", pe.ArmCount())
	}
	if pe.HeaterPower() <= 0 {
		t.Error("heater power not positive")
	}
}
