// Package experiments regenerates every table and figure of the paper's
// evaluation section (the per-experiment index lives in DESIGN.md §3):
//
//	Fig. 8  — LeNet layer-wise power breakdown at [4:4], [3:4], [2:4]
//	Fig. 9  — VGG9 layer-wise power breakdown at [3:4] + the CA effect
//	Table 1 — comparison with optical accelerators (power, KFPS/W,
//	          accuracy on the three synthetic tasks)
//	Fig. 10 — execution time vs electronic accelerators
//
// plus the ablation studies listed in DESIGN.md. Results are memoised per
// process so benchmarks can iterate cheaply.
package experiments

import (
	"fmt"
	"sync"

	"lightator/internal/dataset"
	"lightator/internal/infer"
	"lightator/internal/models"
	"lightator/internal/nn"
	"lightator/internal/oc"
	"lightator/internal/train"
)

// Profile scales the accuracy experiments' training budget.
type Profile int

const (
	// Smoke is the minimal profile for unit tests: tiny datasets, a
	// couple of epochs. Accuracy numbers are rough but the orderings
	// still hold.
	Smoke Profile = iota
	// Quick is the default benchmark profile: minutes of training,
	// accuracies within a few points of the Full profile.
	Quick
	// Full is the report profile used for EXPERIMENTS.md.
	Full
)

// String implements fmt.Stringer.
func (p Profile) String() string {
	switch p {
	case Smoke:
		return "smoke"
	case Quick:
		return "quick"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// Options configures the experiment suite.
type Options struct {
	Profile Profile
	Seed    int64
	// Workers caps the training parallelism for reproducibility.
	Workers int
}

// Task identifies one of the three synthetic stand-in datasets.
type Task int

const (
	TaskMNIST Task = iota
	TaskCIFAR10
	TaskCIFAR100
)

// String implements fmt.Stringer.
func (t Task) String() string {
	switch t {
	case TaskMNIST:
		return "synth-MNIST"
	case TaskCIFAR10:
		return "synth-CIFAR10"
	case TaskCIFAR100:
		return "synth-CIFAR100"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// taskBudget is the per-profile training budget.
type taskBudget struct {
	trainN, testN  int
	floatEp, qatEp int
	batch          int
	lr             float64
	width          int // VGG9Slim width (ignored for LeNet)
	photonicEvalN  int
}

func (o Options) budget(task Task) taskBudget {
	switch o.Profile {
	case Smoke:
		switch task {
		case TaskMNIST:
			return taskBudget{trainN: 600, testN: 150, floatEp: 3, qatEp: 1, batch: 32, lr: 0.08, photonicEvalN: 40}
		case TaskCIFAR10:
			return taskBudget{trainN: 500, testN: 120, floatEp: 3, qatEp: 1, batch: 32, lr: 0.05, width: 4, photonicEvalN: 24}
		default:
			return taskBudget{trainN: 800, testN: 200, floatEp: 3, qatEp: 1, batch: 32, lr: 0.05, width: 6, photonicEvalN: 24}
		}
	case Full:
		switch task {
		case TaskMNIST:
			return taskBudget{trainN: 4000, testN: 1000, floatEp: 6, qatEp: 6, batch: 32, lr: 0.08, photonicEvalN: 300}
		case TaskCIFAR10:
			return taskBudget{trainN: 2500, testN: 600, floatEp: 6, qatEp: 4, batch: 32, lr: 0.05, width: 8, photonicEvalN: 120}
		default:
			return taskBudget{trainN: 4000, testN: 800, floatEp: 8, qatEp: 4, batch: 32, lr: 0.05, width: 10, photonicEvalN: 120}
		}
	default: // Quick
		switch task {
		case TaskMNIST:
			return taskBudget{trainN: 1600, testN: 400, floatEp: 5, qatEp: 2, batch: 32, lr: 0.08, photonicEvalN: 100}
		case TaskCIFAR10:
			return taskBudget{trainN: 1200, testN: 300, floatEp: 6, qatEp: 2, batch: 32, lr: 0.05, width: 6, photonicEvalN: 40}
		default:
			return taskBudget{trainN: 2500, testN: 500, floatEp: 7, qatEp: 2, batch: 32, lr: 0.05, width: 8, photonicEvalN: 40}
		}
	}
}

// PrecisionConfig names one accuracy configuration: a weight bit-width, an
// activation bit-width, and an optional first-layer override (MX).
type PrecisionConfig struct {
	WBits, ABits int
	// MXFirstWBits overrides the first weight layer when non-zero.
	MXFirstWBits int
	// Float skips quantization entirely (the GPU [32:32] baseline row).
	Float bool
	// Photonic evaluates through the optical core (Physical fidelity)
	// instead of the digital quantized path.
	Photonic bool
}

// Name renders the [W:A] label.
func (c PrecisionConfig) Name() string {
	if c.Float {
		return "[32:32]"
	}
	if c.MXFirstWBits != 0 {
		return fmt.Sprintf("[%d:%d][%d:%d]", c.MXFirstWBits, c.ABits, c.WBits, c.ABits)
	}
	return fmt.Sprintf("[%d:%d]", c.WBits, c.ABits)
}

// engine trains and evaluates lazily, memoising by (task, config).
type engine struct {
	opt Options

	mu   sync.Mutex
	data map[Task][2]*dataset.Synth // train/test splits
	base map[Task][]float64         // flattened float weights of the base net
	accs map[string]float64
	nets map[string]*nn.Sequential // trained nets for re-evaluation
}

var (
	globalMu      sync.Mutex
	globalEngines = map[Options]*engine{}
)

// Engine returns the process-wide memoised engine for the options.
func Engine(opt Options) *engine {
	globalMu.Lock()
	defer globalMu.Unlock()
	if e, ok := globalEngines[opt]; ok {
		return e
	}
	e := &engine{
		opt:  opt,
		data: map[Task][2]*dataset.Synth{},
		base: map[Task][]float64{},
		accs: map[string]float64{},
		nets: map[string]*nn.Sequential{},
	}
	globalEngines[opt] = e
	return e
}

// datasets returns (train, test) for a task, generating them on demand.
func (e *engine) datasets(task Task) (*dataset.Synth, *dataset.Synth, error) {
	if pair, ok := e.data[task]; ok {
		return pair[0], pair[1], nil
	}
	b := e.opt.budget(task)
	n := b.trainN + b.testN
	var full *dataset.Synth
	switch task {
	case TaskMNIST:
		full = dataset.NewDigits(n, e.opt.Seed)
	case TaskCIFAR10:
		// RGB, as in the paper's Table 1 (the CA-compressed pipeline is
		// the Fig. 9 power experiment; its grayscale conversion would
		// discard the hue cues these tasks are built on).
		full = dataset.NewObjects10(n, e.opt.Seed+1)
	case TaskCIFAR100:
		full = dataset.NewObjects100(n, e.opt.Seed+2)
	default:
		return nil, nil, fmt.Errorf("experiments: unknown task %d", task)
	}
	tr, te, err := full.Split(b.trainN)
	if err != nil {
		return nil, nil, err
	}
	e.data[task] = [2]*dataset.Synth{tr, te}
	return tr, te, nil
}

// buildNet constructs the task's network at the given activation bits.
func (e *engine) buildNet(task Task, aBits int) (*nn.Sequential, error) {
	b := e.opt.budget(task)
	switch task {
	case TaskMNIST:
		return models.BuildLeNet(10, aBits), nil
	case TaskCIFAR10:
		return models.BuildVGG9Slim(3, 32, 32, 10, b.width, aBits)
	case TaskCIFAR100:
		return models.BuildVGG9Slim(3, 32, 32, 100, b.width, aBits)
	default:
		return nil, fmt.Errorf("experiments: unknown task %d", task)
	}
}

// flattenParams snapshots all parameter values.
func flattenParams(net *nn.Sequential) []float64 {
	var out []float64
	for _, p := range net.Params() {
		out = append(out, p.Data...)
	}
	return out
}

// restoreParams writes a snapshot back into a structurally identical net.
func restoreParams(net *nn.Sequential, snap []float64) error {
	i := 0
	for _, p := range net.Params() {
		if i+len(p.Data) > len(snap) {
			return fmt.Errorf("experiments: snapshot too short")
		}
		copy(p.Data, snap[i:i+len(p.Data)])
		i += len(p.Data)
	}
	if i != len(snap) {
		return fmt.Errorf("experiments: snapshot size mismatch: %d vs %d", i, len(snap))
	}
	return nil
}

// baseWeights trains (once) the float base model for a task and returns a
// snapshot of its weights.
func (e *engine) baseWeights(task Task) ([]float64, error) {
	if snap, ok := e.base[task]; ok {
		return snap, nil
	}
	tr, _, err := e.datasets(task)
	if err != nil {
		return nil, err
	}
	b := e.opt.budget(task)
	net, err := e.buildNet(task, 4)
	if err != nil {
		return nil, err
	}
	net.InitHe(e.opt.Seed + int64(task)*101)
	cfg := train.DefaultConfig()
	cfg.Epochs = b.floatEp
	cfg.QATEpochs = 0
	cfg.BatchSize = b.batch
	cfg.LR = b.lr
	cfg.Workers = e.opt.Workers
	cfg.Seed = e.opt.Seed + int64(task)
	if _, err := train.Train(net, tr, cfg); err != nil {
		return nil, err
	}
	snap := flattenParams(net)
	e.base[task] = snap
	return snap, nil
}

// Accuracy trains (fine-tunes) and evaluates one (task, config) pair,
// returning classification accuracy in [0,1]. Results are memoised.
func (e *engine) Accuracy(task Task, cfg PrecisionConfig) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := fmt.Sprintf("%d/%s/ph=%v", task, cfg.Name(), cfg.Photonic)
	if acc, ok := e.accs[key]; ok {
		return acc, nil
	}
	tr, te, err := e.datasets(task)
	if err != nil {
		return 0, err
	}
	b := e.opt.budget(task)
	snap, err := e.baseWeights(task)
	if err != nil {
		return 0, err
	}

	aBits := cfg.ABits
	if cfg.Float {
		aBits = 8 // effectively unquantized for these value ranges
	}
	net, err := e.buildNet(task, aBits)
	if err != nil {
		return 0, err
	}
	net.InitHe(e.opt.Seed) // overwritten by the snapshot below
	if err := restoreParams(net, snap); err != nil {
		return 0, err
	}

	if !cfg.Float {
		// Quantization-aware fine-tuning at the target precision.
		nn.EnableQAT(net, cfg.WBits)
		if cfg.MXFirstWBits != 0 {
			if err := nn.SetLayerWeightBits(net, 0, cfg.MXFirstWBits); err != nil {
				return 0, err
			}
		}
		tcfg := train.DefaultConfig()
		tcfg.Epochs = 0
		tcfg.QATEpochs = b.qatEp
		tcfg.WBits = 0 // quantizers already attached (incl. MX override)
		tcfg.BatchSize = b.batch
		tcfg.LR = b.lr / 4
		tcfg.Workers = e.opt.Workers
		tcfg.Seed = e.opt.Seed + 31
		if cfg.WBits == 1 || cfg.ABits == 1 {
			// Binary nets (LightBulb, Robin) need a longer, hotter
			// fine-tune to recover from the drastic precision drop.
			tcfg.QATEpochs = b.qatEp * 3
			tcfg.LR = b.lr / 2
		}
		if _, err := train.Train(net, tr, tcfg); err != nil {
			return 0, err
		}
	} else {
		// Calibrate activation scales without quantized weights.
		tcfg := train.DefaultConfig()
		tcfg.Epochs = 1
		tcfg.QATEpochs = 0
		tcfg.BatchSize = b.batch
		tcfg.LR = b.lr / 10
		tcfg.Workers = e.opt.Workers
		tcfg.Seed = e.opt.Seed + 37
		if _, err := train.Train(net, tr, tcfg); err != nil {
			return 0, err
		}
	}

	var acc float64
	if cfg.Photonic {
		ev, err := infer.CompileEval(net, cfg.ABits, oc.Physical)
		if err != nil {
			return 0, err
		}
		acc, err = train.EvaluatePhotonic(ev, te, 16, b.photonicEvalN)
		if err != nil {
			return 0, err
		}
	} else {
		acc, err = train.Evaluate(net, te, 64)
		if err != nil {
			return 0, err
		}
	}
	e.accs[key] = acc
	e.nets[fmt.Sprintf("%d/%s", task, cfg.Name())] = net
	return acc, nil
}

// rebuildTrained returns the memoised trained network for a (task,
// config) pair. Accuracy must have been called for the pair first.
func (e *engine) rebuildTrained(task Task, cfg PrecisionConfig) (*nn.Sequential, error) {
	net, ok := e.nets[fmt.Sprintf("%d/%s", task, cfg.Name())]
	if !ok {
		return nil, fmt.Errorf("experiments: no trained net for %s %s", task, cfg.Name())
	}
	return net, nil
}
