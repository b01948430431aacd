package infer

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"lightator/internal/nn"
	"lightator/internal/oc"
)

// buildTinyQATNet returns a small conv+fc network with QAT enabled and
// calibrated activation scales, ready for photonic compilation.
func buildTinyQATNet(t *testing.T, wBits int) *nn.Sequential {
	t.Helper()
	net := nn.NewSequential(
		nn.NewConv2D("c1", 1, 4, 3, 1, 1),
		nn.NewReLU("r1"),
		nn.NewActQuant("q1", 4),
		nn.NewAvgPool2D("p1", 2),
		nn.NewFlatten("f"),
		nn.NewDense("d1", 4*4*4, 10),
	)
	net.InitHe(3)
	nn.EnableQAT(net, wBits)
	// Calibrate activation scales with a few training-mode passes.
	rng := rand.New(rand.NewSource(4))
	for pass := 0; pass < 4; pass++ {
		x := nn.NewTensor(2, 1, 8, 8)
		for i := range x.Data {
			x.Data[i] = rng.Float64()
		}
		if _, err := net.Forward(x, true); err != nil {
			t.Fatal(err)
		}
	}
	nn.FreezeActQuant(net, true)
	return net
}

// buildTinyMXNet is buildTinyQATNet at 3 bits with a 4-bit first layer,
// the Lightator-MX [4:4][3:4] schedule.
func buildTinyMXNet(t *testing.T) *nn.Sequential {
	t.Helper()
	net := buildTinyQATNet(t, 3)
	if err := nn.SetLayerWeightBits(net, 0, 4); err != nil {
		t.Fatal(err)
	}
	return net
}

func randomBatch(seed int64, shape ...int) *nn.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := nn.NewTensor(shape...)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	return x
}

// evalLogits is testdata/photonic_eval_logits.json: the logits the
// training-eval executor produced for one fixed batch before it was
// folded into this package, keyed "<net>/<fidelity>" (w4: buildTinyQATNet
// at 4 bits; mx43: buildTinyMXNet).
type evalLogits struct {
	Shape  []int                `json:"shape"`
	Input  []float64            `json:"input"`
	Logits map[string][]float64 `json:"logits"`
}

// TestEvalMatchesPinnedLogits holds Eval.Forward to the committed logits
// in every fidelity and for the mixed-precision net: each logit within
// 1e-12 relative, the same argmax per sample. The fixture is a pin, not a
// golden: -update does not rewrite it.
func TestEvalMatchesPinnedLogits(t *testing.T) {
	raw, err := os.ReadFile("testdata/photonic_eval_logits.json")
	if err != nil {
		t.Fatal(err)
	}
	var pin evalLogits
	if err := json.Unmarshal(raw, &pin); err != nil {
		t.Fatal(err)
	}
	x := randomBatch(13, 2, 1, 8, 8)
	for i, v := range x.Data {
		if v != pin.Input[i] {
			t.Fatalf("input %d is %v, pinned %v: the fixture's batch no longer regenerates", i, v, pin.Input[i])
		}
	}
	nets := map[string]*nn.Sequential{"w4": buildTinyQATNet(t, 4), "mx43": buildTinyMXNet(t)}
	cases := 0
	for netName, net := range nets {
		for _, g := range goldenFidelities {
			key := netName + "/" + g.name
			want, ok := pin.Logits[key]
			if !ok {
				t.Fatalf("fixture has no %s logits", key)
			}
			cases++
			ev, err := CompileEval(net, 4, g.fid)
			if err != nil {
				t.Fatal(err)
			}
			y, err := ev.Forward(x.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if len(y.Data) != len(want) {
				t.Fatalf("%s: %d logits, pinned %d", key, len(y.Data), len(want))
			}
			for i, v := range y.Data {
				if math.Abs(v-want[i]) > 1e-12*math.Abs(want[i]) {
					t.Errorf("%s: logit %d = %.17g, pinned %.17g", key, i, v, want[i])
				}
			}
			classes := len(want) / pin.Shape[0]
			for b := 0; b < pin.Shape[0]; b++ {
				if got, w := Argmax(y.Data[b*classes:(b+1)*classes]), Argmax(want[b*classes:(b+1)*classes]); got != w {
					t.Errorf("%s: sample %d argmax %d, pinned %d", key, b, got, w)
				}
			}
		}
	}
	if cases != len(pin.Logits) {
		t.Errorf("checked %d cases, fixture holds %d", cases, len(pin.Logits))
	}
}

func TestEvalMatchesDigitalQuantized(t *testing.T) {
	net := buildTinyQATNet(t, 4)
	ev, err := CompileEval(net, 4, oc.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	x := randomBatch(8, 3, 1, 8, 8)
	yd, err := net.Forward(x.Clone(), false)
	if err != nil {
		t.Fatal(err)
	}
	yp, err := ev.Forward(x.Clone())
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

func TestEvalPhysicalClose(t *testing.T) {
	net := buildTinyQATNet(t, 4)
	ei, err := CompileEval(net, 4, oc.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := CompileEval(net, 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}
	x := randomBatch(9, 2, 1, 8, 8)
	yi, err := ei.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	yp, err := ep.Forward(x.Clone())
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

// evalCores returns the distinct cores an Eval's optical stages run on.
func evalCores(ev *Eval) []*oc.Core {
	var cores []*oc.Core
	seen := map[*oc.Core]bool{}
	for _, st := range ev.stages {
		if st.core != nil && !seen[st.core] {
			seen[st.core] = true
			cores = append(cores, st.core)
		}
	}
	return cores
}

// TestEvalForwardIsPure pins training-eval determinism: every MVM draws a
// seed derived from (stage, sample, patch), so two Forward calls on the
// same tensor are bit-identical in every fidelity — noisy included — and
// the ABFT checks verifying each MVM raise no false alarms.
func TestEvalForwardIsPure(t *testing.T) {
	net := buildTinyQATNet(t, 4)
	x := randomBatch(13, 2, 1, 8, 8)
	for _, fid := range []oc.Fidelity{oc.Ideal, oc.Physical, oc.PhysicalNoisy} {
		ev, err := CompileEval(net, 4, fid)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ev.Forward(x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		b, err := ev.Forward(x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%v: output %d differs across identical Forward calls: %g vs %g", fid, i, a.Data[i], b.Data[i])
			}
		}
		checks := int64(0)
		for _, core := range evalCores(ev) {
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

func TestEvalMixedPrecision(t *testing.T) {
	ev, err := CompileEval(buildTinyMXNet(t), 4, oc.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	cores := evalCores(ev)
	if len(cores) != 2 {
		t.Fatalf("MX network should run on 2 cores (4-bit and 3-bit), got %d", len(cores))
	}
	if cores[0].WBits != 4 || cores[1].WBits != 3 {
		t.Errorf("stage cores at %d and %d bits, want 4 then 3", cores[0].WBits, cores[1].WBits)
	}
	if _, err := ev.Forward(nn.NewTensor(1, 1, 8, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestEvalRequiresCalibration(t *testing.T) {
	net := nn.NewSequential(
		nn.NewConv2D("c1", 1, 2, 3, 1, 1),
		nn.NewReLU("r1"),
		nn.NewActQuant("q1", 4), // never calibrated
		nn.NewFlatten("f"),
		nn.NewDense("d1", 2*8*8, 4),
	)
	net.InitHe(1)
	nn.EnableQAT(net, 4)
	if _, err := CompileEval(net, 4, oc.Ideal); err == nil {
		t.Fatal("uncalibrated network accepted")
	}
}

func TestEvalMetrics(t *testing.T) {
	ev, err := CompileEval(buildTinyQATNet(t, 4), 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}
	// c1: 4 rows x ceil(9/9)=1 arm = 4 arms; d1: 10 rows x ceil(64/9)=8
	// arms = 80 arms.
	if ev.ArmCount() != 4+80 {
		t.Errorf("arm count %d, want 84", ev.ArmCount())
	}
	if ev.HeaterPower() <= 0 {
		t.Error("heater power not positive")
	}
}
