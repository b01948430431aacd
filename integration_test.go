package lightator_test

import (
	"math"
	"testing"

	"lightator"
	"lightator/internal/dataset"
	"lightator/internal/infer"
	"lightator/internal/models"
	"lightator/internal/oc"
	"lightator/internal/train"
)

// TestEndToEndPipeline wires the whole stack together: synthetic scene ->
// ADC-less capture -> compressive acquisition -> photonic inference with
// a (briefly) trained LeNet — the node-i flow of paper Fig. 2.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration test skipped in -short mode")
	}
	// Train a small LeNet on 28x28 digits.
	data := dataset.NewDigits(900, 21)
	trainSet, testSet, err := data.Split(750)
	if err != nil {
		t.Fatal(err)
	}
	net := models.BuildLeNet(10, 4)
	net.InitHe(3)
	cfg := train.DefaultConfig()
	cfg.Epochs = 2
	cfg.QATEpochs = 1
	cfg.Workers = 8
	if _, err := train.Train(net, trainSet, cfg); err != nil {
		t.Fatal(err)
	}
	digital, err := train.Evaluate(net, testSet, 64)
	if err != nil {
		t.Fatal(err)
	}

	// Compile for the optical core and evaluate through the full analog
	// model including BPD noise.
	ev, err := infer.CompileEval(net, 4, oc.PhysicalNoisy)
	if err != nil {
		t.Fatal(err)
	}
	photonic, err := train.EvaluatePhotonic(ev, testSet, 16, 60)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("digital %.1f%%, photonic(noisy) %.1f%%", digital*100, photonic*100)
	if photonic < digital-0.25 {
		t.Errorf("photonic accuracy %.2f collapsed vs digital %.2f", photonic, digital)
	}

	// The acquisition front end feeds the same numeric range the network
	// was trained on.
	acc, err := lightator.New(lightator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scene := lightator.NewImage(256, 256, 3)
	for y := 0; y < 256; y++ {
		for x := 0; x < 256; x++ {
			v := float64((x+y)%256) / 255
			for c := 0; c < 3; c++ {
				scene.Set(y, x, c, v)
			}
		}
	}
	small, err := acc.AcquireCompressed(scene)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < small.H; y += 16 {
		for x := 0; x < small.W; x += 16 {
			if v := small.At(y, x, 0); v < 0 || v > 1 {
				t.Fatalf("compressed value %g outside [0,1]", v)
			}
		}
	}
}

// TestSimulationCrossChecks ties the simulator's totals to independently
// computable quantities.
func TestSimulationCrossChecks(t *testing.T) {
	acc, err := lightator.New(lightator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"lenet", "vgg9", "alexnet"} {
		rep, err := acc.Simulate(m)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := models.ByName(m)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalMACs != models.TotalMACs(layers) {
			t.Errorf("%s: simulator MACs %d != descriptor MACs %d", m, rep.TotalMACs, models.TotalMACs(layers))
		}
		if rep.TotalWeights != models.TotalWeights(layers) {
			t.Errorf("%s: simulator weights %d != descriptor weights %d", m, rep.TotalWeights, models.TotalWeights(layers))
		}
		// KFPS/W identity.
		want := rep.FPS / rep.MaxPower / 1000
		if math.Abs(rep.KFPSPerW-want) > 1e-9 {
			t.Errorf("%s: KFPS/W inconsistent", m)
		}
	}
}

// TestPrecisionMonotonicity: across every model, lower weight precision
// must never increase max power (the paper's central power knob).
func TestPrecisionMonotonicity(t *testing.T) {
	for _, m := range lightator.Models() {
		prev := math.Inf(1)
		for _, w := range []int{4, 3, 2} {
			acc, err := lightator.New(lightator.Config{
				Precision: lightator.Precision{WBits: w, ABits: 4},
				Fidelity:  lightator.Ideal,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := acc.Simulate(m)
			if err != nil {
				t.Fatal(err)
			}
			if rep.MaxPower > prev+1e-12 {
				t.Errorf("%s: max power increased when dropping to %d bits", m, w)
			}
			prev = rep.MaxPower
		}
	}
}
