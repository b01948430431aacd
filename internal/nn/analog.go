package nn

import "lightator/internal/oc"

// EnableAnalogQAT walks a network and routes every Conv2D and Dense
// forward pass through the analog optical model of core: effective
// weights become exactly the noiseless per-coefficient transfer the
// served optical path realises (full-scale normalisation, MR level grid,
// Lorentzian-tail crosstalk of the 9-ring arm segments, and the rank-1
// defect calibration the serving path restores digitally). The backward
// pass keeps the straight-through estimator — gradients flow to the
// float weights as if the analog map were the identity — which is the
// standard recipe for training through a non-differentiable hardware
// forward (cf. the multilayer nonlinear ONN image-sensing frontends that
// train through their optics).
//
// A WeightQuant with the core's weight precision is attached alongside,
// so infer.CompileEval programs each layer at the bit width the analog
// forward used. Mixed-precision overrides can still be
// applied afterwards with SetLayerWeightBits plus a per-layer Analog
// core of matching precision.
//
// With a Physical-fidelity core the analog forward is deterministic
// (crosstalk only, no shot noise), so training remains bit-reproducible.
func EnableAnalogQAT(net *Sequential, core *oc.Core) {
	for _, l := range net.Layers {
		switch layer := l.(type) {
		case *Conv2D:
			layer.WQuant = &WeightQuant{Bits: core.WBits}
			layer.Analog = core
		case *Dense:
			layer.WQuant = &WeightQuant{Bits: core.WBits}
			layer.Analog = core
		}
	}
}

// ActQuants returns the network's activation quantizers in layer order.
// The trainer uses the shared order to reduce observed batch maxima
// across worker clones index-by-index.
func ActQuants(net *Sequential) []*ActQuant {
	var qs []*ActQuant
	for _, l := range net.Layers {
		if aq, ok := l.(*ActQuant); ok {
			qs = append(qs, aq)
		}
	}
	return qs
}

// SetActQuantExternal switches every activation quantizer between
// self-calibration (each training forward applies the momentum rule
// locally) and external calibration (forwards only record the observed
// maximum; the caller reduces and applies UpdateScale). Deterministic
// data-parallel training requires external mode: per-clone momentum
// updates would depend on how the batch was partitioned.
func SetActQuantExternal(net *Sequential, on bool) {
	for _, l := range net.Layers {
		if aq, ok := l.(*ActQuant); ok {
			aq.External = on
			aq.BatchMax = 0
		}
	}
}
