package kernels

import (
	"fmt"
	"sort"

	"lightator/internal/oc"
)

// Engine is a registry of compressed-domain kernels programmed onto one
// optical core for one CA pooling factor. Construction programs every
// built-in operator's MR banks once; after that the engine is immutable
// and safe for concurrent use (Register is construction-time only).
type Engine struct {
	kernels map[string]Kernel
}

// aliases maps each accepted alias to the registered operator it
// resolves to. Names stay on the wire once served, so the retired
// solvers of the CA least-squares system — the factorized Gram solve,
// Landweber iteration and CGNR — answer as the closed form they solved for.
var aliases = map[string]string{
	"reconstruct-cg":     "reconstruct",
	"reconstruct-direct": "reconstruct",
	"reconstruct-iter":   "reconstruct",
}

// Canonical returns the operator name that name resolves to: an alias's
// target, or name itself.
func Canonical(name string) string {
	if target, ok := aliases[name]; ok {
		return target
	}
	return name
}

// Aliases lists the accepted alias names, sorted.
func Aliases() []string {
	names := make([]string, 0, len(aliases))
	for name := range aliases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewEngine builds the registry over the core for a CA pooling factor of
// poolN (even, >= 2 — the compressed plane's provenance). Built-ins:
//
//	reconstruct   closed-form least-squares expansion to the full plane
//	edge          3x3 Laplacian edge detector (signed output)
//	downsample2x  2x2 average pooling, stride 2 (compounds the CA ratio)
//	denoise       3x3 Gaussian blur
//	sharpen       3x3 unsharp mask, built through the generic BlockConv path
//
// plus the aliases reconstruct-cg, reconstruct-direct and
// reconstruct-iter, which resolve to reconstruct.
func NewEngine(core *oc.Core, poolN int) (*Engine, error) {
	if core == nil {
		return nil, fmt.Errorf("kernels: engine needs an optical core")
	}
	e := &Engine{kernels: make(map[string]Kernel)}

	rec, err := NewReconstruct(core, poolN)
	if err != nil {
		return nil, err
	}
	edge, err := NewBlockConv(core, "edge",
		"3x3 Laplacian edge detector on the compressed plane (signed output)",
		[][]float64{{0, -1, 0}, {-1, 4, -1}, {0, -1, 0}}, 1, 1)
	if err != nil {
		return nil, err
	}
	down, err := NewBlockConv(core, "downsample2x",
		"2x2 average pooling, stride 2: compounds the CA compression ratio",
		[][]float64{{0.25, 0.25}, {0.25, 0.25}}, 2, 0)
	if err != nil {
		return nil, err
	}
	den, err := NewBlockConv(core, "denoise",
		"3x3 Gaussian blur on the compressed plane",
		[][]float64{{1. / 16, 2. / 16, 1. / 16}, {2. / 16, 4. / 16, 2. / 16}, {1. / 16, 2. / 16, 1. / 16}}, 1, 1)
	if err != nil {
		return nil, err
	}
	sharp, err := NewBlockConv(core, "sharpen",
		"3x3 unsharp mask on the compressed plane",
		[][]float64{{0, -1, 0}, {-1, 5, -1}, {0, -1, 0}}, 1, 1)
	if err != nil {
		return nil, err
	}
	for _, k := range []Kernel{rec, edge, down, den, sharp} {
		if err := e.Register(k); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// NewBlockConv programs a single-channel block convolution: a square
// spatial kernel k applied over the compressed plane with the given
// stride and zero padding. Entries may lie outside [-1,1]; the LinOp
// constructor normalises the programmed matrix and restores the factor
// digitally.
func NewBlockConv(core *oc.Core, name, desc string, kern [][]float64, stride, pad int) (Kernel, error) {
	side := len(kern)
	if side == 0 {
		return nil, fmt.Errorf("kernels: %s: empty convolution kernel", name)
	}
	flat := make([]float64, 0, side*side)
	for r, row := range kern {
		if len(row) != side {
			return nil, fmt.Errorf("kernels: %s: convolution kernel row %d has %d entries, want %d (square)", name, r, len(row), side)
		}
		flat = append(flat, row...)
	}
	return NewLinOp(core, name, desc, [][]float64{flat}, side, stride, pad, 1, 1)
}

// Register adds a kernel under its name; names are unique and may not
// shadow an alias.
func (e *Engine) Register(k Kernel) error {
	name := k.Name()
	if name == "" {
		return fmt.Errorf("kernels: cannot register a kernel with an empty name")
	}
	if target, ok := aliases[name]; ok {
		return fmt.Errorf("kernels: %q is an alias of %q", name, target)
	}
	if _, ok := e.kernels[name]; ok {
		return fmt.Errorf("kernels: kernel %q already registered", name)
	}
	e.kernels[name] = k
	return nil
}

// Kernel resolves a registered kernel by name or alias.
func (e *Engine) Kernel(name string) (Kernel, error) {
	k, ok := e.kernels[Canonical(name)]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown kernel %q (known: %v)", name, e.Names())
	}
	return k, nil
}

// Names lists the registered kernels, sorted; aliases are not listed.
func (e *Engine) Names() []string {
	names := make([]string, 0, len(e.kernels))
	for name := range e.kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Description returns a kernel's one-line summary; an alias's names the
// operator it resolves to.
func (e *Engine) Description(name string) (string, error) {
	k, err := e.Kernel(name)
	if err != nil {
		return "", err
	}
	if target, ok := aliases[name]; ok {
		return fmt.Sprintf("alias of %s: %s", target, k.Description()), nil
	}
	return k.Description(), nil
}
