package train

import (
	"testing"

	"lightator/internal/dataset"
	"lightator/internal/infer"
	"lightator/internal/models"
	"lightator/internal/nn"
	"lightator/internal/oc"
)

func TestSGDStepMomentum(t *testing.T) {
	p := nn.NewParam("w", 2)
	p.Data[0] = 1
	p.Gradient()[0] = 1
	opt := NewSGD(0.1, 0.9, 0)
	opt.Step([]*nn.Param{p})
	if p.Data[0] != 0.9 {
		t.Errorf("after step 1: %g, want 0.9", p.Data[0])
	}
	// Momentum carries: v = 0.9*(-0.1) - 0.1*1 = -0.19.
	opt.Step([]*nn.Param{p})
	if diff := p.Data[0] - (0.9 - 0.19); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("after step 2: %g, want 0.71", p.Data[0])
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := nn.NewParam("w", 1)
	p.Data[0] = 1
	opt := NewSGD(0.1, 0, 0.5)
	opt.Step([]*nn.Param{p})
	// g = 0 + 0.5*1, step = -0.1*0.5 = -0.05.
	if diff := p.Data[0] - 0.95; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("decayed weight %g, want 0.95", p.Data[0])
	}
}

func TestTrainLeNetOnDigits(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	data := dataset.NewDigits(1400, 11)
	trainSet, testSet, err := data.Split(1200)
	if err != nil {
		t.Fatal(err)
	}
	net := models.BuildLeNet(10, 4)
	net.InitHe(5)
	cfg := DefaultConfig()
	cfg.Epochs = 3
	cfg.QATEpochs = 2
	cfg.WBits = 4
	cfg.BatchSize = 32
	res, err := Train(net, trainSet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochsRun != 5 {
		t.Errorf("epochs run %d", res.EpochsRun)
	}
	if !res.QATEnabled {
		t.Error("QAT never enabled")
	}
	// Loss must have dropped substantially from the ~ln(10)=2.3 start.
	if res.FinalLoss > 1.0 {
		t.Errorf("final loss %g, want < 1.0", res.FinalLoss)
	}
	acc, err := Evaluate(net, testSet, 64)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("digit accuracy %g, want >= 0.8 (QAT 4-bit LeNet)", acc)
	}

	// The photonic path should track the digital quantized accuracy.
	ev, err := infer.CompileEval(net, 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}
	pacc, err := EvaluatePhotonic(ev, testSet, 16, 100)
	if err != nil {
		t.Fatal(err)
	}
	if pacc < acc-0.15 {
		t.Errorf("photonic accuracy %g far below digital %g", pacc, acc)
	}
}

func TestEvaluateEmptyBatchDefault(t *testing.T) {
	data := dataset.NewDigits(10, 3)
	net := models.BuildLeNet(10, 4)
	net.InitHe(1)
	if _, err := Evaluate(net, data, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	net := models.BuildLeNet(10, 4)
	data := dataset.NewDigits(8, 1)
	cfg := DefaultConfig()
	cfg.BatchSize = 0
	if _, err := Train(net, data, cfg); err == nil {
		t.Error("batch size 0 accepted")
	}
}
