package nn

import (
	"fmt"
	"math"
)

// Quantization utilities implementing the paper's [W:A] precision
// configurations: signed symmetric weight quantization to W bits (the
// levels a tuned MR realises) and unsigned activation quantization to A
// bits (the discrete VCSEL drive levels). Training uses fake quantization
// with straight-through estimators — the standard QAT recipe the paper
// applies for "an additional six epochs of training employing
// quantization-aware techniques".

// QuantizeSymmetric quantizes v onto the signed b-bit grid over
// [-scale, +scale] with 2^b uniformly spaced levels (matching the MR
// level grid of photonics.BankModel).
func QuantizeSymmetric(v, scale float64, bits int) float64 {
	if scale <= 0 {
		return 0
	}
	n := float64(int(1)<<uint(bits)) - 1
	x := v / scale // [-1, 1]
	if x < -1 {
		x = -1
	}
	if x > 1 {
		x = 1
	}
	level := math.Round((x + 1) / 2 * n)
	return (-1 + 2*level/n) * scale
}

// QuantizeUnsigned quantizes v onto the unsigned b-bit grid over
// [0, scale] with 2^b levels.
func QuantizeUnsigned(v, scale float64, bits int) float64 {
	if scale <= 0 {
		return 0
	}
	n := float64(int(1)<<uint(bits)) - 1
	x := v / scale
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return math.Round(x*n) / n * scale
}

// WeightQuant fake-quantizes a weight tensor with a per-tensor max-abs
// scale. It is attached to Conv2D/Dense layers for QAT; its Bits select
// the optical core a layer is programmed on (infer.CompileEval).
type WeightQuant struct {
	Bits int
}

// Apply writes the quantized weights into out and returns the scale used.
func (q *WeightQuant) Apply(w []float64, out []float64) float64 {
	scale := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		for i := range out {
			out[i] = 0
		}
		return 0
	}
	for i, v := range w {
		out[i] = QuantizeSymmetric(v, scale, q.Bits)
	}
	return scale
}

// ActQuant is an activation fake-quantization layer: it tracks the
// running maximum of its input during training (calibration) and snaps
// activations onto the unsigned Bits-level grid over [0, Scale]. In the
// hardware this grid is the VCSEL drive-level grid; Scale is the analog
// full-scale the DMVA is calibrated to.
type ActQuant struct {
	LayerName string
	Bits      int
	// Scale is the learned/calibrated full-scale. Exported so the
	// photonic executor can normalise activations into [0,1].
	Scale float64
	// Momentum of the running-max update (0.9 = slow, 0 = instant).
	Momentum float64
	// Frozen stops calibration (inference / final QAT epochs).
	Frozen bool
	// External disables the per-forward momentum update: training
	// forwards only record the observed maximum in BatchMax, and the
	// owner reduces maxima across replicas and applies UpdateScale once
	// per batch. This keeps calibration independent of how a batch is
	// partitioned across workers (max is exact; momentum is not).
	External bool
	// BatchMax is the largest activation observed since the last
	// TakeBatchMax while External calibration is on.
	BatchMax float64

	mask []bool
}

// NewActQuant constructs an activation quantizer with 0.9 momentum.
func NewActQuant(name string, bits int) *ActQuant {
	return &ActQuant{LayerName: name, Bits: bits, Momentum: 0.9}
}

// Name implements Layer.
func (a *ActQuant) Name() string { return a.LayerName }

// Params implements Layer.
func (a *ActQuant) Params() []*Param { return nil }

// CloneShared implements Layer. Clones share calibration state by value at
// clone time; the trainer re-syncs scales after each epoch.
func (a *ActQuant) CloneShared() Layer {
	cp := *a
	cp.mask = nil
	cp.BatchMax = 0
	return &cp
}

// Forward implements Layer.
func (a *ActQuant) Forward(x *Tensor, train bool) (*Tensor, error) {
	if train && !a.Frozen {
		batchMax := 0.0
		for _, v := range x.Data {
			if v > batchMax {
				batchMax = v
			}
		}
		switch {
		case a.External:
			if batchMax > a.BatchMax {
				a.BatchMax = batchMax
			}
		case a.Scale == 0:
			a.Scale = batchMax
		default:
			a.Scale = a.Momentum*a.Scale + (1-a.Momentum)*batchMax
		}
	}
	scale := a.Scale
	if scale <= 0 {
		// Not calibrated yet: pass through.
		if train {
			a.mask = make([]bool, len(x.Data))
			for i := range a.mask {
				a.mask[i] = true
			}
		}
		return x.Clone(), nil
	}
	y := x.Clone()
	if train {
		a.mask = make([]bool, len(x.Data))
	}
	for i, v := range x.Data {
		y.Data[i] = QuantizeUnsigned(v, scale, a.Bits)
		if train {
			// STE: gradient passes where the input is inside the
			// representable range.
			a.mask[i] = v >= 0 && v <= scale
		}
	}
	return y, nil
}

// ForwardInplace implements InplaceLayer: the inference-mode quantization
// applied directly to x (uncalibrated quantizers pass through, exactly
// like Forward).
func (a *ActQuant) ForwardInplace(x *Tensor) error {
	scale := a.Scale
	if scale <= 0 {
		return nil
	}
	if a.Bits < 1 || a.Bits > 8 {
		for i, v := range x.Data {
			x.Data[i] = QuantizeUnsigned(v, scale, a.Bits)
		}
		return nil
	}
	// QuantizeUnsigned's Round(q·n)/n·scale, with the integer-valued
	// Round(q·n) = k served from grid[k] = k/n·scale, the same two
	// operations precomputed once per call, so the result is
	// bit-identical. NaN escapes both clips and propagates, as the direct
	// expression would.
	n := float64(int(1)<<uint(a.Bits)) - 1
	var grid [256]float64
	for k := 0; k <= int(n); k++ {
		grid[k] = float64(k) / n * scale
	}
	for i, v := range x.Data {
		q := v / scale
		if q < 0 {
			q = 0
		} else if q > 1 {
			q = 1
		} else if q != q {
			x.Data[i] = q
			continue
		}
		x.Data[i] = grid[int(math.Round(q*n))]
	}
	return nil
}

// UpdateScale applies the running-max momentum rule with an externally
// reduced batch maximum. No-op while Frozen.
func (a *ActQuant) UpdateScale(batchMax float64) {
	if a.Frozen {
		return
	}
	if a.Scale == 0 {
		a.Scale = batchMax
	} else {
		a.Scale = a.Momentum*a.Scale + (1-a.Momentum)*batchMax
	}
}

// TakeBatchMax returns the largest activation observed since the last
// call and resets the tracker.
func (a *ActQuant) TakeBatchMax() float64 {
	m := a.BatchMax
	a.BatchMax = 0
	return m
}

// Backward implements Layer.
func (a *ActQuant) Backward(dy *Tensor) (*Tensor, error) {
	if a.mask == nil {
		return nil, fmt.Errorf("actquant %s: backward before training forward", a.LayerName)
	}
	dx := dy.Clone()
	for i := range dx.Data {
		if !a.mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx, nil
}

// EnableQAT walks a network and attaches weight quantizers with the given
// bit width to every Conv2D and Dense layer. Layer-specific overrides (for
// the mixed-precision Lightator-MX configurations) can be applied with
// SetLayerWeightBits afterwards.
func EnableQAT(net *Sequential, wBits int) {
	for _, l := range net.Layers {
		switch layer := l.(type) {
		case *Conv2D:
			layer.WQuant = &WeightQuant{Bits: wBits}
		case *Dense:
			layer.WQuant = &WeightQuant{Bits: wBits}
		}
	}
}

// SetLayerWeightBits overrides the weight precision of the i-th
// weight-bearing layer (conv or dense, counting from 0). Returns an error
// if there is no such layer. This implements the paper's Lightator-MX
// scheme, e.g. L1 at [4:4] with the rest at [3:4].
func SetLayerWeightBits(net *Sequential, index, wBits int) error {
	n := 0
	for _, l := range net.Layers {
		switch layer := l.(type) {
		case *Conv2D:
			if n == index {
				layer.WQuant = &WeightQuant{Bits: wBits}
				return nil
			}
			n++
		case *Dense:
			if n == index {
				layer.WQuant = &WeightQuant{Bits: wBits}
				return nil
			}
			n++
		}
	}
	return fmt.Errorf("nn: no weight layer with index %d (have %d)", index, n)
}

// FreezeActQuant freezes (or unfreezes) every activation quantizer's
// calibration.
func FreezeActQuant(net *Sequential, frozen bool) {
	for _, l := range net.Layers {
		if aq, ok := l.(*ActQuant); ok {
			aq.Frozen = frozen
		}
	}
}

// SyncActQuantScales copies calibrated activation scales from src into dst
// (used to merge worker clones after an epoch).
func SyncActQuantScales(dst, src *Sequential) error {
	if len(dst.Layers) != len(src.Layers) {
		return fmt.Errorf("nn: layer count mismatch %d vs %d", len(dst.Layers), len(src.Layers))
	}
	for i := range dst.Layers {
		da, okD := dst.Layers[i].(*ActQuant)
		sa, okS := src.Layers[i].(*ActQuant)
		if okD != okS {
			return fmt.Errorf("nn: layer %d type mismatch", i)
		}
		if okD {
			da.Scale = sa.Scale
		}
	}
	return nil
}
