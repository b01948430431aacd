package infer

import (
	"fmt"

	"lightator/internal/nn"
	"lightator/internal/oc"
)

// evalSeed is the base of every MVM seed chain Eval.Forward derives.
const evalSeed = 0x11647a70

// Eval is the training-eval executor: a network compiled onto one optical
// core per weight bit width (Lightator-MX mixed precision), walking [N,…]
// batch tensors through the same optical stages a served Model runs.
// It is the end-to-end accuracy path of Table 1 and ablation A3.
//
// Stage i seeds its MVMs from DeriveSeed(evalSeed, i): dense row b draws
// DeriveSeed(seed, b), conv patch p of sample b draws
// DeriveSeed(DeriveSeed(seed, b), p). Forward is therefore a pure
// function of its input in every fidelity.
type Eval struct {
	stages []stage
}

// CompileEval programs a trained, quantization-aware network for
// training-eval. aBits is the activation precision (the paper uses 4
// everywhere) and fid selects the analog model. Each optical layer runs
// on a core of its WeightQuant's bit width (4 bits when it has none), so
// networks with SetLayerWeightBits overrides compile one core per width.
// Matrices carry the health label "photonic:<layer>".
func CompileEval(net *nn.Sequential, aBits int, fid oc.Fidelity) (*Eval, error) {
	cores := map[int]*oc.Core{}
	coreFor := func(wq *nn.WeightQuant) (*oc.Core, error) {
		bits := 4
		if wq != nil {
			bits = wq.Bits
		}
		if c, ok := cores[bits]; ok {
			return c, nil
		}
		c, err := oc.NewCore(bits, aBits, fid)
		if err != nil {
			return nil, err
		}
		cores[bits] = c
		return c, nil
	}
	stages, err := compileStages(net, coreFor, func(layer string) string { return "photonic:" + layer })
	if err != nil {
		return nil, fmt.Errorf("infer: eval: %w", err)
	}
	return &Eval{stages: stages}, nil
}

// Forward runs a batch through the compiled network and returns its
// output tensor. x is only read.
func (e *Eval) Forward(x *nn.Tensor) (*nn.Tensor, error) {
	var err error
	for i := range e.stages {
		st := &e.stages[i]
		seed := oc.DeriveSeed(evalSeed, i)
		switch st.kind {
		case stageDigital:
			x, err = st.layer.Forward(x, false)
		case stageConv:
			x, err = st.applyConvPerSample(x, seed)
		case stageDense:
			x, err = st.applyDense(x, false, seed, 1)
		}
		if err != nil {
			return nil, err
		}
	}
	return x, nil
}

// applyConvPerSample runs applyConv on each sample's [1,C,H,W] view under
// layer seed DeriveSeed(seed, b), so patch p of sample b draws
// DeriveSeed(DeriveSeed(seed, b), p).
func (st *stage) applyConvPerSample(x *nn.Tensor, seed int64) (*nn.Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("infer: conv %s wants NCHW input, got rank %d", st.conv.Name(), len(x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	var out *nn.Tensor
	for b := 0; b < n; b++ {
		view := &nn.Tensor{Shape: []int{1, c, h, w}, Data: x.Data[b*c*h*w : (b+1)*c*h*w]}
		y, err := st.applyConv(view, false, oc.DeriveSeed(seed, b), 1)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = nn.NewTensor(n, y.Shape[1], y.Shape[2], y.Shape[3])
		}
		copy(out.Data[b*len(y.Data):], y.Data)
	}
	if out == nil {
		return nil, fmt.Errorf("infer: conv %s: empty batch", st.conv.Name())
	}
	return out, nil
}

// ArmCount returns the total arms occupied by all programmed matrices.
func (e *Eval) ArmCount() int {
	n := 0
	for i := range e.stages {
		if pm := e.stages[i].pm; pm != nil {
			n += pm.ArmCount()
		}
	}
	return n
}

// HeaterPower sums the MR tuning power of every programmed matrix, as if
// the whole network were resident at once.
func (e *Eval) HeaterPower() float64 {
	p := 0.0
	for i := range e.stages {
		if pm := e.stages[i].pm; pm != nil {
			p += pm.HeaterPower()
		}
	}
	return p
}
