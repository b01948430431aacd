package infer

import (
	"fmt"
	"sort"
	"sync"

	"lightator/internal/nn"
	"lightator/internal/oc"
)

// Engine is the model registry of one accelerator: compiled networks
// keyed by name, all resident on the same optical core and all expecting
// the same CA measurement-plane geometry. Construction registers the
// built-in demonstration models; user-trained networks are added with
// Register (via the facade's RegisterModel). Reads are lock-free after
// the write completes — the mutex only orders Register against lookups.
type Engine struct {
	core  *oc.Core
	poolN int
	inH   int
	inW   int

	mu     sync.RWMutex
	models map[string]*Model
}

// DefaultClasses is the logit width of the built-in demonstration models.
const DefaultClasses = 10

// NewEngine builds the registry over the core for a CA pooling factor of
// poolN and a compressed plane of inH x inW. seed determines the built-in
// models' deterministic He-initialised weights and calibration, so two
// accelerators with the same Config serve bit-identical inference.
// Built-ins that do not fit the plane geometry are skipped, never an
// error — an accelerator must construct for any valid sensor/CAPool
// combination. Built-ins:
//
//	tiny-mlp  flatten -> dense(16) -> ReLU -> dense(10): any plane size
//	tiny-cnn  conv3x3(6) -> ReLU -> avgpool2 -> dense(10): even plane dims
func NewEngine(core *oc.Core, poolN, inH, inW int, seed int64) (*Engine, error) {
	if core == nil {
		return nil, fmt.Errorf("infer: engine needs an optical core")
	}
	if inH < 1 || inW < 1 {
		return nil, fmt.Errorf("infer: engine needs a non-empty plane, have %dx%d", inH, inW)
	}
	e := &Engine{core: core, poolN: poolN, inH: inH, inW: inW, models: make(map[string]*Model)}

	type builtin struct {
		name, desc string
		net        *nn.Sequential
		seed       int64
	}
	builtins := []builtin{{"tiny-mlp",
		"2-layer MLP head over the compressed plane (dense 16 -> ReLU -> dense 10)",
		TinyMLP(inH, inW, DefaultClasses, core.ABits), oc.DeriveSeed(seed, 1)}}
	if inH%2 == 0 && inW%2 == 0 {
		builtins = append(builtins, builtin{"tiny-cnn",
			"1-conv CNN over the compressed plane (conv3x3 x6 -> ReLU -> avgpool2 -> dense 10)",
			TinyCNN(inH, inW, DefaultClasses, core.ABits), oc.DeriveSeed(seed, 2)})
	}
	// The built-ins share nothing mutable: each has its own network and
	// seed chain, programming is pure per matrix, and the core's health
	// registry is locked. So they build concurrently and register in the
	// fixed order above, and the engine is identical at any GOMAXPROCS.
	models := make([]*Model, len(builtins))
	errs := make([]error, len(builtins))
	var wg sync.WaitGroup
	for i, b := range builtins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			models[i], errs[i] = buildDefault(core, b.name, b.desc, b.net, poolN, inH, inW, b.seed)
		}()
	}
	wg.Wait()
	for i, m := range models {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if err := e.Register(m); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// buildDefault initialises, calibrates, quantization-prepares and
// compiles one built-in network. Calibration planes come from the
// fidelity-true CA path over structured scenes, so ActQuant scales match
// what serving actually sees. A built-in never trains, so it never
// allocates gradient buffers.
func buildDefault(core *oc.Core, name, desc string, net *nn.Sequential, poolN, inH, inW int, seed int64) (*Model, error) {
	net.InitHe(seed)
	if err := Calibrate(net, core, poolN, inH, inW, 4, oc.DeriveSeed(seed, 1)); err != nil {
		return nil, fmt.Errorf("infer: %s: %w", name, err)
	}
	return Compile(core, name, desc, net, inH, inW)
}

// TinyMLP builds the (uninitialised, uncalibrated) built-in MLP head for
// h x w single-channel planes.
func TinyMLP(h, w, classes, aBits int) *nn.Sequential {
	return nn.NewSequential(
		nn.NewFlatten("flatten"),
		nn.NewDense("fc1", h*w, 16),
		nn.NewReLU("relu1"),
		nn.NewActQuant("aq1", aBits),
		nn.NewDense("fc2", 16, classes),
	)
}

// TinyCNN builds the (uninitialised, uncalibrated) built-in 1-conv CNN
// for h x w single-channel planes; h and w must be even (one 2x2 pool).
func TinyCNN(h, w, classes, aBits int) *nn.Sequential {
	return nn.NewSequential(
		nn.NewConv2D("conv1", 1, 6, 3, 1, 1),
		nn.NewReLU("relu1"),
		nn.NewActQuant("aq1", aBits),
		nn.NewAvgPool2D("pool1", 2),
		nn.NewFlatten("flatten"),
		nn.NewDense("fc1", 6*(h/2)*(w/2), classes),
	)
}

// Register adds a model under its name; names are unique.
func (e *Engine) Register(m *Model) error {
	if m.inH != e.inH || m.inW != e.inW {
		return fmt.Errorf("infer: model %q compiled for %dx%d planes, engine serves %dx%d", m.name, m.inH, m.inW, e.inH, e.inW)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.models[m.name]; ok {
		return fmt.Errorf("infer: model %q already registered", m.name)
	}
	e.models[m.name] = m
	return nil
}

// Model resolves a registered model by name.
func (e *Engine) Model(name string) (*Model, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	m, ok := e.models[name]
	if !ok {
		return nil, fmt.Errorf("infer: unknown model %q (known: %v)", name, e.namesLocked())
	}
	return m, nil
}

// Names lists the registered models, sorted.
func (e *Engine) Names() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.namesLocked()
}

func (e *Engine) namesLocked() []string {
	names := make([]string, 0, len(e.models))
	for name := range e.models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PoolN reports the CA pooling factor the engine was built for.
func (e *Engine) PoolN() int { return e.poolN }

// InputDims reports the compressed-plane geometry every registered model
// expects.
func (e *Engine) InputDims() (h, w int) { return e.inH, e.inW }
