package experiments

import (
	"fmt"
	"strings"

	"lightator/internal/arch"
	"lightator/internal/energy"
	"lightator/internal/infer"
	"lightator/internal/mapping"
	"lightator/internal/models"
	"lightator/internal/oc"
	"lightator/internal/report"
	"lightator/internal/train"
)

// AblationCA quantifies the Compressive Acquisitor's effect (DESIGN.md
// A1): first-layer power, end-to-end latency and FPS with and without CA.
type AblationCAResult struct {
	L1PowerWith, L1PowerWithout float64
	LatencyWith, LatencyWithout float64
	L1Reduction                 float64
	SpeedUp                     float64
}

// AblationCA runs the CA on/off comparison at [3:4].
func AblationCA() (*AblationCAResult, error) {
	p := energy.Default()
	withCA, err := arch.Simulate("vgg9-ca", models.VGG9WithCA(10), arch.Uniform(3, 4), p)
	if err != nil {
		return nil, err
	}
	without, err := arch.Simulate("vgg9", models.VGG9(10), arch.Uniform(3, 4), p)
	if err != nil {
		return nil, err
	}
	l1w, err := withCA.LayerByName("L1.conv1")
	if err != nil {
		return nil, err
	}
	l1, err := without.LayerByName("L1.conv1")
	if err != nil {
		return nil, err
	}
	return &AblationCAResult{
		L1PowerWith:    l1w.Power.Total(),
		L1PowerWithout: l1.Power.Total(),
		LatencyWith:    withCA.FrameLatency,
		LatencyWithout: without.FrameLatency,
		L1Reduction:    1 - l1w.Power.Total()/l1.Power.Total(),
		SpeedUp:        without.FrameLatency / withCA.FrameLatency,
	}, nil
}

// Render prints the CA ablation.
func (r *AblationCAResult) Render() string {
	return fmt.Sprintf(
		"Ablation A1 — Compressive Acquisitor on/off (VGG9 [3:4])\n"+
			"  L1 power: %sW with CA vs %sW without (%.1f%% reduction; paper 42.2%%)\n"+
			"  frame latency: %ss with CA vs %ss without (%.2fx speedup)\n",
		report.FormatSI(r.L1PowerWith, 3), report.FormatSI(r.L1PowerWithout, 3), r.L1Reduction*100,
		report.FormatSI(r.LatencyWith, 3), report.FormatSI(r.LatencyWithout, 3), r.SpeedUp)
}

// AblationKernelRow is one kernel size's mapping efficiency (A2).
type AblationKernelRow struct {
	K               int
	StridesPerBank  int
	IdleMRs         int
	MRUtilisation   float64
	SummationStages int
}

// AblationKernelMapping tabulates Fig. 6's mapping efficiency for every
// kernel size a bank supports.
func AblationKernelMapping() ([]AblationKernelRow, error) {
	var rows []AblationKernelRow
	for k := 1; k <= 7; k++ {
		m, err := mapping.MapKernel(k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationKernelRow{
			K:               k,
			StridesPerBank:  m.StridesPerBank,
			IdleMRs:         m.IdleMRsPerStride,
			MRUtilisation:   m.MRUtilisation(),
			SummationStages: m.SummationStages,
		})
	}
	return rows, nil
}

// RenderKernelAblation prints A2.
func RenderKernelAblation(rows []AblationKernelRow) string {
	tb := report.Table{
		Title:   "Ablation A2 — kernel-size mapping efficiency (Fig. 6)",
		Headers: []string{"Kernel", "Strides/bank", "Idle MRs/stride", "MR utilisation", "Summation stages"},
	}
	for _, r := range rows {
		tb.AddRow(fmt.Sprintf("%dx%d", r.K, r.K), fmt.Sprint(r.StridesPerBank),
			fmt.Sprint(r.IdleMRs), fmt.Sprintf("%.1f%%", r.MRUtilisation*100), fmt.Sprint(r.SummationStages))
	}
	return tb.Render()
}

// AblationFidelityResult compares accuracy across analog fidelities (A3):
// quantization only, + crosstalk, + detector noise.
type AblationFidelityResult struct {
	Digital, Ideal, Physical, PhysicalNoisy float64
}

// AblationFidelity measures synth-MNIST accuracy at [4:4] across the
// analog fidelity ladder.
func AblationFidelity(opt Options) (*AblationFidelityResult, error) {
	e := Engine(opt)
	digital, err := e.Accuracy(TaskMNIST, PrecisionConfig{WBits: 4, ABits: 4})
	if err != nil {
		return nil, err
	}
	// Reuse the trained [4:4] network by re-running the photonic
	// evaluation at each fidelity.
	res := &AblationFidelityResult{Digital: digital}
	for _, f := range []oc.Fidelity{oc.Ideal, oc.Physical, oc.PhysicalNoisy} {
		acc, err := e.photonicAccuracy(TaskMNIST, PrecisionConfig{WBits: 4, ABits: 4}, f)
		if err != nil {
			return nil, err
		}
		switch f {
		case oc.Ideal:
			res.Ideal = acc
		case oc.Physical:
			res.Physical = acc
		case oc.PhysicalNoisy:
			res.PhysicalNoisy = acc
		}
	}
	return res, nil
}

// photonicAccuracy re-evaluates a memoised configuration at an arbitrary
// fidelity (used by the A3 ablation).
func (e *engine) photonicAccuracy(task Task, cfg PrecisionConfig, fid oc.Fidelity) (float64, error) {
	// Ensure the digital model is trained and memoised first.
	if _, err := e.Accuracy(task, cfg); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := fmt.Sprintf("%d/%s/fid=%s", task, cfg.Name(), fid)
	if acc, ok := e.accs[key]; ok {
		return acc, nil
	}
	net, err := e.rebuildTrained(task, cfg)
	if err != nil {
		return 0, err
	}
	_, te, err := e.datasets(task)
	if err != nil {
		return 0, err
	}
	ev, err := infer.CompileEval(net, cfg.ABits, fid)
	if err != nil {
		return 0, err
	}
	acc, err := train.EvaluatePhotonic(ev, te, 16, e.opt.budget(task).photonicEvalN)
	if err != nil {
		return 0, err
	}
	e.accs[key] = acc
	return acc, nil
}

// Render prints A3.
func (r *AblationFidelityResult) Render() string {
	return fmt.Sprintf(
		"Ablation A3 — analog fidelity vs synth-MNIST accuracy at [4:4]\n"+
			"  digital quantized: %.1f%%\n"+
			"  photonic ideal:    %.1f%% (quantization only)\n"+
			"  + WDM crosstalk:   %.1f%%\n"+
			"  + BPD noise:       %.1f%%\n",
		r.Digital*100, r.Ideal*100, r.Physical*100, r.PhysicalNoisy*100)
}

// AblationActivationModulation (A4) compares Lightator's direct VCSEL
// modulation against a CrossLight-style design that burns MRs (and their
// tuning DACs) on activations too.
type AblationActivationModulationResult struct {
	LightatorTuningW float64
	MRStyleTuningW   float64
	Factor           float64
}

// AblationActivationModulation computes the tuning+DAC power of the two
// activation-handling strategies at full core occupancy, [4:4].
func AblationActivationModulation() *AblationActivationModulationResult {
	p := energy.Default()
	weightMRs := int64(mapping.TotalMRs)
	// Lightator: weights on MRs, activations on VCSEL drive.
	lightator := p.DACPower(weightMRs, 4) + p.TuningPower(weightMRs) +
		float64(p.NumVCSELChannels)*p.VCSELAvgPower
	// CrossLight-style: a second MR bank (and DACs) for activations.
	mrStyle := p.DACPower(2*weightMRs, 4) + p.TuningPower(2*weightMRs)
	return &AblationActivationModulationResult{
		LightatorTuningW: lightator,
		MRStyleTuningW:   mrStyle,
		Factor:           mrStyle / lightator,
	}
}

// Render prints A4.
func (r *AblationActivationModulationResult) Render() string {
	return fmt.Sprintf(
		"Ablation A4 — activation handling at full occupancy, [4:4]\n"+
			"  direct VCSEL modulation (Lightator): %sW\n"+
			"  activation MRs + DACs (CrossLight-style): %sW\n"+
			"  overhead factor: %.2fx\n",
		report.FormatSI(r.LightatorTuningW, 3), report.FormatSI(r.MRStyleTuningW, 3), r.Factor)
}

// AblationRemapResult (A5) contrasts fast PIN tuning with thermal tuning.
type AblationRemapResult struct {
	Model             string
	PINLatency        float64
	ThermalLatency    float64
	Slowdown          float64
	PINRemapShare     float64
	ThermalRemapShare float64
}

// AblationRemapLatency sweeps the MR re-programming latency for a model.
func AblationRemapLatency(model string) (*AblationRemapResult, error) {
	layers, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	pin := energy.Default()
	thermal := energy.Default()
	thermal.RemapLatency = 4e-6 // thermal settle
	repPIN, err := arch.Simulate(model, layers, arch.Uniform(4, 4), pin)
	if err != nil {
		return nil, err
	}
	repTh, err := arch.Simulate(model, layers, arch.Uniform(4, 4), thermal)
	if err != nil {
		return nil, err
	}
	share := func(rep *arch.Report) float64 {
		var remap float64
		for _, l := range rep.Layers {
			remap += l.RemapTime
		}
		return remap / rep.FrameLatency
	}
	return &AblationRemapResult{
		Model:             model,
		PINLatency:        repPIN.FrameLatency,
		ThermalLatency:    repTh.FrameLatency,
		Slowdown:          repTh.FrameLatency / repPIN.FrameLatency,
		PINRemapShare:     share(repPIN),
		ThermalRemapShare: share(repTh),
	}, nil
}

// Render prints A5.
func (r *AblationRemapResult) Render() string {
	return fmt.Sprintf(
		"Ablation A5 — MR re-programming latency (%s, [4:4])\n"+
			"  PIN tuning (300 ns): latency %ss, remap share %.0f%%\n"+
			"  thermal tuning (4 us): latency %ss, remap share %.0f%% (%.1fx slower)\n",
		r.Model,
		report.FormatSI(r.PINLatency, 3), r.PINRemapShare*100,
		report.FormatSI(r.ThermalLatency, 3), r.ThermalRemapShare*100, r.Slowdown)
}

// RenderAll runs every cheap (non-training) ablation and concatenates the
// reports.
func RenderAllCheapAblations() (string, error) {
	var b strings.Builder
	ca, err := AblationCA()
	if err != nil {
		return "", err
	}
	b.WriteString(ca.Render())
	b.WriteByte('\n')
	rows, err := AblationKernelMapping()
	if err != nil {
		return "", err
	}
	b.WriteString(RenderKernelAblation(rows))
	b.WriteByte('\n')
	b.WriteString(AblationActivationModulation().Render())
	b.WriteByte('\n')
	remap, err := AblationRemapLatency("alexnet")
	if err != nil {
		return "", err
	}
	b.WriteString(remap.Render())
	return b.String(), nil
}
