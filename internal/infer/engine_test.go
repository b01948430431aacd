package infer

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"lightator/internal/fault"
	"lightator/internal/nn"
	"lightator/internal/oc"
)

// buildAt builds an engine on a fresh PhysicalNoisy core carrying plan,
// with GOMAXPROCS set to procs for the duration of the build.
func buildAt(t *testing.T, procs int, plan *fault.Plan) (*oc.Core, *Engine) {
	t.Helper()
	core, err := oc.NewCore(4, 4, oc.PhysicalNoisy)
	if err != nil {
		t.Fatal(err)
	}
	core.SetFaultPlan(plan)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	eng, err := NewEngine(core, 2, 32, 32, 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	return core, eng
}

// TestNewEngineDeterministicAcrossProcs pins the concurrent build of the
// built-ins: an engine built on one OS thread and one built on two must
// register the same models with the same calibrated ActQuant scales, the
// same programmed levels (read back through GridApplyInto, whose sum
// takes every level's grid weight, against a random drive), the same
// per-row defect calibration, and serve the same Apply bytes. Under a
// fault plan both cores must end with the same health components and
// counters.
func TestNewEngineDeterministicAcrossProcs(t *testing.T) {
	plan := &fault.Plan{Name: "build", Faults: []fault.Fault{
		{Kind: fault.StuckCoeff, Target: "ca", Row: 0, Col: 0, Value: 0.9},
		{Kind: fault.DriftCoeff, Target: "model:tiny-cnn/conv1", Row: 1, Col: 4, Value: 0.3},
		{Kind: fault.BitFlip, Target: "model:tiny-mlp/fc2", Row: 3, Value: 5},
	}}
	coreA, a := buildAt(t, 1, plan)
	coreB, b := buildAt(t, 2, plan)
	if !reflect.DeepEqual(a.Names(), b.Names()) || len(a.Names()) != 2 {
		t.Fatalf("registered models differ or are missing: %v vs %v", a.Names(), b.Names())
	}
	plane := testPlane(5, 32, 32)
	rng := rand.New(rand.NewSource(6))
	for _, name := range a.Names() {
		ma, _ := a.Model(name)
		mb, _ := b.Model(name)
		if len(ma.stages) != len(mb.stages) {
			t.Fatalf("%s: %d vs %d stages", name, len(ma.stages), len(mb.stages))
		}
		for i := range ma.stages {
			sa, sb := &ma.stages[i], &mb.stages[i]
			if aq, ok := sa.layer.(*nn.ActQuant); ok {
				if s := sb.layer.(*nn.ActQuant).Scale; math.Float64bits(aq.Scale) != math.Float64bits(s) {
					t.Errorf("%s: %s scale %v vs %v", name, aq.Name(), aq.Scale, s)
				}
			}
			if sa.pm == nil {
				continue
			}
			if sa.sw != sb.sw || sa.sx != sb.sx || !reflect.DeepEqual(sa.bias, sb.bias) {
				t.Errorf("%s stage %d: sw/sx/bias differ", name, i)
			}
			if !reflect.DeepEqual(sa.pm.DefectCalibration(), sb.pm.DefectCalibration()) {
				t.Errorf("%s stage %d: defect calibration differs", name, i)
			}
			x := make([]float64, sa.pm.Cols())
			for j := range x {
				x[j] = rng.Float64()
			}
			ya, yb := make([]float64, sa.pm.Rows()), make([]float64, sb.pm.Rows())
			if err := sa.pm.GridApplyInto(ya, x); err != nil {
				t.Fatal(err)
			}
			if err := sb.pm.GridApplyInto(yb, x); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ya, yb) {
				t.Errorf("%s stage %d: programmed levels differ", name, i)
			}
		}
		for seed := int64(0); seed < 3; seed++ {
			la, err := ma.Apply(plane, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := mb.Apply(plane, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range la {
				if math.Float64bits(la[i]) != math.Float64bits(lb[i]) {
					t.Fatalf("%s seed %d: logit %d %v vs %v", name, seed, i, la[i], lb[i])
				}
			}
		}
	}
	ha, hb := coreA.Health().Snapshot(), coreB.Health().Snapshot()
	if !reflect.DeepEqual(ha, hb) {
		t.Errorf("health differs:\n%+v\n%+v", ha, hb)
	}
	want := []string{"ca", "model:tiny-cnn/conv1", "model:tiny-cnn/fc1", "model:tiny-mlp/fc1", "model:tiny-mlp/fc2"}
	var labels []string
	for _, h := range ha {
		labels = append(labels, h.Label)
	}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("health components %v, want %v", labels, want)
	}
}

// TestBuiltinsHoldNoGradients: the built-ins never train, so every
// parameter a compiled built-in still references (the conv layer its
// conv stage reads geometry from, and any digital layer's) has a nil
// gradient buffer rather than one as large as its weights.
func TestBuiltinsHoldNoGradients(t *testing.T) {
	_, eng := buildAt(t, 2, nil)
	seen := 0
	for _, name := range eng.Names() {
		m, _ := eng.Model(name)
		for i, st := range m.stages {
			var params []*nn.Param
			if st.layer != nil {
				params = append(params, st.layer.Params()...)
			}
			if st.conv != nil {
				params = append(params, st.conv.Params()...)
			}
			for _, p := range params {
				seen++
				if p.Grad != nil {
					t.Errorf("%s stage %d: parameter %s holds a %d-element gradient", name, i, p.Name, len(p.Grad))
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no compiled built-in references a parameter; the test checks nothing")
	}
}
