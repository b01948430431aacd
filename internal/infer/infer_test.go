package infer

import (
	"math"
	"math/rand"
	"testing"

	"lightator/internal/nn"
	"lightator/internal/oc"
	"lightator/internal/sensor"
)

// testPlane builds a deterministic single-channel plane with samples in
// [0,1].
func testPlane(seed int64, h, w int) *sensor.Image {
	rng := rand.New(rand.NewSource(seed))
	p := sensor.NewImage(h, w, 1)
	for i := range p.Pix {
		p.Pix[i] = rng.Float64()
	}
	return p
}

func newTestEngine(t *testing.T, fid oc.Fidelity, poolN, h, w int) (*oc.Core, *Engine) {
	t.Helper()
	core, err := oc.NewCore(4, 4, fid)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(core, poolN, h, w, 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	return core, eng
}

// rangeErr returns max |a-b| normalised by the reference logit range
// (max - min), so the pinned tolerances read as a fraction of the
// decision-relevant spread rather than of near-cancelling magnitudes.
func rangeErr(t *testing.T, got, want []float64) float64 {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("logit width %d vs %d", len(got), len(want))
	}
	lo, hi := want[0], want[0]
	for _, v := range want {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		t.Fatal("degenerate reference logits")
	}
	max := 0.0
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > max {
			max = d
		}
	}
	return max / (hi - lo)
}

// TestOpticalMatchesReferenceAcrossCAPool pins the optical-vs-digital-
// reference tolerance of both built-in models across the paper's
// compression ratios: the plane a CAPool in {4, 8, 16} produces from a
// 64x64 sensor. Two fidelities, two pins:
//
//   - Ideal: the optical path computes exactly the quantized arithmetic
//     the reference models, so logits agree to float round-off. This is
//     the strong pin on the whole full-scale-normalisation + im2col +
//     seeded-batch execution path — any scaling or indexing regression
//     breaks it outright.
//
//   - Physical: the gap is pure WDM crosstalk, amplified by quantization-
//     cell flips in the hidden ActQuant layers (a sub-LSB perturbation
//     near a grid boundary becomes a full LSB downstream), so the pin is
//     loose but meaningful: without the full-scale weight normalisation
//     the same metric explodes well past 1.
func TestOpticalMatchesReferenceAcrossCAPool(t *testing.T) {
	const sensorSide = 64
	tol := map[oc.Fidelity]float64{
		oc.Ideal:    1e-9,
		oc.Physical: 0.35,
	}
	for _, fid := range []oc.Fidelity{oc.Ideal, oc.Physical} {
		for _, pool := range []int{4, 8, 16} {
			side := sensorSide / pool
			_, eng := newTestEngine(t, fid, pool, side, side)
			for _, name := range eng.Names() {
				m, err := eng.Model(name)
				if err != nil {
					t.Fatal(err)
				}
				for frame := 0; frame < 3; frame++ {
					plane := testPlane(int64(100*pool+frame), side, side)
					got, err := m.Apply(plane, 42, 1)
					if err != nil {
						t.Fatalf("CAPool %d %s: %v", pool, name, err)
					}
					want, err := m.Reference(plane)
					if err != nil {
						t.Fatal(err)
					}
					if e := rangeErr(t, got, want); e > tol[fid] {
						t.Errorf("%v CAPool %d (%dx%d plane) %s frame %d: optical-vs-reference error %.4g > %.4g",
							fid, pool, side, side, name, frame, e, tol[fid])
					}
				}
			}
		}
	}
}

// TestApplyWorkerInvariance is the determinism contract: in PhysicalNoisy
// fidelity — where every MVM readout draws analog noise — Apply is
// bit-identical for any worker count, and reproducible across calls.
func TestApplyWorkerInvariance(t *testing.T) {
	_, eng := newTestEngine(t, oc.PhysicalNoisy, 4, 8, 8)
	plane := testPlane(7, 8, 8)
	for _, name := range eng.Names() {
		m, err := eng.Model(name)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := m.Apply(plane, 99, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 7} {
			got, err := m.Apply(plane, 99, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				if got[i] != serial[i] {
					t.Fatalf("%s: logit %d differs at %d workers: %g vs %g", name, i, workers, got[i], serial[i])
				}
			}
		}
		// A different seed must change the noisy logits.
		other, err := m.Apply(plane, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range serial {
			if other[i] != serial[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seed change did not affect noisy logits", name)
		}
	}
}

// TestApplyConcurrentUse exercises concurrent Apply calls on one shared
// model (the pipeline worker pattern) under the race detector, checking
// every goroutine sees the seeded result.
func TestApplyConcurrentUse(t *testing.T) {
	_, eng := newTestEngine(t, oc.PhysicalNoisy, 4, 8, 8)
	m, err := eng.Model("tiny-cnn")
	if err != nil {
		t.Fatal(err)
	}
	plane := testPlane(11, 8, 8)
	want, err := m.Apply(plane, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			got, err := m.Apply(plane, 5, 2)
			if err != nil {
				errs <- err
				return
			}
			for i := range want {
				if got[i] != want[i] {
					errs <- errMismatch
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent Apply result differs from serial" }

// TestEngineRegistry covers registry behaviour: sorted names, duplicate
// rejection, unknown lookup, geometry guard.
func TestEngineRegistry(t *testing.T) {
	core, eng := newTestEngine(t, oc.Physical, 2, 8, 8)
	names := eng.Names()
	if len(names) < 2 {
		t.Fatalf("expected built-in models, have %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	if _, err := eng.Model("nope"); err == nil {
		t.Error("unknown model lookup succeeded")
	}
	m, err := eng.Model("tiny-mlp")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(m); err == nil {
		t.Error("duplicate registration succeeded")
	}
	if h, w := eng.InputDims(); h != 8 || w != 8 {
		t.Errorf("engine dims %dx%d, want 8x8", h, w)
	}
	if eng.PoolN() != 2 {
		t.Errorf("engine pool %d, want 2", eng.PoolN())
	}
	// A model compiled for other dimensions must be rejected.
	net := TinyMLP(4, 4, 3, 4)
	net.InitHe(1)
	if err := Calibrate(net, core, 2, 4, 4, 2, 2); err != nil {
		t.Fatal(err)
	}
	wrong, err := Compile(core, "wrong-dims", "", net, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(wrong); err == nil {
		t.Error("registering a 4x4 model on an 8x8 engine succeeded")
	}
}

// TestEngineTinyPlanes pins the graceful-degradation contract: an
// engine must construct for any non-empty plane (an accelerator must
// build for every valid sensor/CAPool combination), skipping built-ins
// that don't fit rather than erroring.
func TestEngineTinyPlanes(t *testing.T) {
	core, err := oc.NewCore(4, 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}
	// 1x1 plane (e.g. 4x4 sensor at CAPool 4): tiny-cnn can't pool, but
	// tiny-mlp must still register and run.
	eng, err := NewEngine(core, 4, 1, 1, 3)
	if err != nil {
		t.Fatalf("engine over a 1x1 plane: %v", err)
	}
	if _, err := eng.Model("tiny-cnn"); err == nil {
		t.Error("tiny-cnn registered on an odd plane")
	}
	m, err := eng.Model("tiny-mlp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(testPlane(1, 1, 1), 0, 1); err != nil {
		t.Errorf("tiny-mlp on a 1x1 plane: %v", err)
	}
}

// TestCompileErrors pins the compile-time guards: uncalibrated
// quantizers, all-zero weights, non-logit outputs, no optical layers.
func TestCompileErrors(t *testing.T) {
	core, err := oc.NewCore(4, 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}
	// Uncalibrated ActQuant.
	raw := TinyMLP(4, 4, 3, 4)
	raw.InitHe(1)
	if _, err := Compile(core, "uncal", "", raw, 4, 4); err == nil {
		t.Error("compile accepted an uncalibrated ActQuant")
	}
	// All-zero weights (never initialised).
	zero := nn.NewSequential(nn.NewFlatten("f"), nn.NewDense("fc", 16, 3))
	if _, err := Compile(core, "zero", "", zero, 4, 4); err == nil {
		t.Error("compile accepted all-zero weights")
	}
	// Output is not [1, classes] logits (network ends in NCHW).
	convOnly := nn.NewSequential(nn.NewConv2D("c", 1, 2, 3, 1, 1))
	convOnly.InitHe(1)
	if _, err := Compile(core, "nchw", "", convOnly, 4, 4); err == nil {
		t.Error("compile accepted a rank-4 output")
	}
	// No optical layers at all.
	digital := nn.NewSequential(nn.NewFlatten("f"))
	if _, err := Compile(core, "digital", "", digital, 4, 4); err == nil {
		t.Error("compile accepted a network with no conv/dense layers")
	}
	// Geometry mismatch is caught at compile, not first request.
	bad := TinyMLP(8, 8, 3, 4)
	bad.InitHe(1)
	if err := Calibrate(bad, core, 2, 8, 8, 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(core, "geom", "", bad, 4, 4); err == nil {
		t.Error("compile accepted a dense width mismatched to the input plane")
	}
}

// TestApplyInputGuards covers the runtime plane checks.
func TestApplyInputGuards(t *testing.T) {
	_, eng := newTestEngine(t, oc.Physical, 2, 8, 8)
	m, err := eng.Model("tiny-mlp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(nil, 0, 1); err == nil {
		t.Error("nil plane accepted")
	}
	if _, err := m.Apply(sensor.NewImage(8, 8, 3), 0, 1); err == nil {
		t.Error("3-channel plane accepted")
	}
	if _, err := m.Apply(sensor.NewImage(4, 4, 1), 0, 1); err == nil {
		t.Error("wrong-size plane accepted")
	}
	if _, err := m.Apply(&sensor.Image{H: 8, W: 8, C: 1, Pix: make([]float64, 63)}, 0, 1); err == nil {
		t.Error("plane with fewer samples than its dims accepted")
	}
	if h, w := m.InputDims(); h != 8 || w != 8 {
		t.Errorf("model dims %dx%d, want 8x8", h, w)
	}
	if m.Classes() != DefaultClasses {
		t.Errorf("classes %d, want %d", m.Classes(), DefaultClasses)
	}
	if Argmax(nil) != -1 {
		t.Error("Argmax(nil) != -1")
	}
	if Argmax([]float64{0.1, 3, -2}) != 1 {
		t.Error("Argmax picked the wrong class")
	}
}

// TestWalkLeavesPlaneUnmodified: the stage walk reads the caller's plane
// in place, so a registered model whose first layers transform their
// input in place (ReLU first, and again behind Flatten's view) must
// leave the plane as it was, on the optical and the reference path, and
// give the logits it gives on a copy of the plane.
func TestWalkLeavesPlaneUnmodified(t *testing.T) {
	core, eng := newTestEngine(t, oc.Ideal, 2, 8, 8)
	net := nn.NewSequential(
		nn.NewReLU("relu0"),
		nn.NewFlatten("flatten"),
		nn.NewReLU("relu1"),
		nn.NewDense("fc1", 8*8, DefaultClasses),
	)
	net.InitHe(3)
	if err := Calibrate(net, core, 2, 8, 8, 2, 3); err != nil {
		t.Fatal(err)
	}
	m, err := Compile(core, "relu-first", "", net, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(m); err != nil {
		t.Fatal(err)
	}
	if m, err = eng.Model("relu-first"); err != nil {
		t.Fatal(err)
	}
	plane := testPlane(5, 8, 8)
	for i := range plane.Pix {
		plane.Pix[i] -= 0.5 // half the samples negative: ReLU changes them
	}
	orig := append([]float64(nil), plane.Pix...)
	for name, run := range map[string]func(*sensor.Image) ([]float64, error){
		"apply":     func(p *sensor.Image) ([]float64, error) { return m.Apply(p, 7, 2) },
		"reference": m.Reference,
	} {
		got, err := run(plane)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range plane.Pix {
			if math.Float64bits(v) != math.Float64bits(orig[i]) {
				t.Fatalf("%s: sample %d of the caller's plane changed from %v to %v", name, i, orig[i], v)
			}
		}
		cp := sensor.NewImage(8, 8, 1)
		copy(cp.Pix, orig)
		want, err := run(cp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: logit %d is %v on the plane, %v on a copy", name, i, got[i], want[i])
			}
		}
	}
}
