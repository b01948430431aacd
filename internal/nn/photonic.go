package nn

import (
	"fmt"

	"lightator/internal/oc"
)

// PhotonicExec executes a trained, quantization-aware network on the
// optical core: every Conv2D and Dense layer becomes a programmed MR
// matrix (weights on ring detunings), activations are normalised into the
// DMVA's [0,1] drive range using the calibrated ActQuant scales, and MVMs
// run through the oc package's analog path (quantization + crosstalk +
// optional BPD noise, depending on the core fidelity). Activation
// functions, pooling and biases stay in the electronic domain, exactly as
// the paper partitions them.
//
// This is the training-eval executor (Table 1 accuracy, Lightator-MX
// per-layer cores). Every MVM is a seeded, ABFT-verified,
// defect-calibrated apply whose noise seed is a DeriveSeed chain over
// (stage, sample, patch) from the fixed base photonicSeed, so Forward is
// a pure function of its input in every fidelity. The served inference
// path lives in internal/infer, which mirrors this layer mapping with a
// caller-chosen seed and full-scale weight normalisation — a fix to the
// conv patch walk or scale handling likely applies to both.
type PhotonicExec struct {
	ABits    int
	Fidelity oc.Fidelity

	stages []pStage
	cores  map[int]*oc.Core // per weight-bit-width cores (Lightator-MX)
}

// photonicSeed is the base of every MVM seed chain Forward derives.
const photonicSeed = 0x11647a70

type pStageKind int

const (
	pDigital pStageKind = iota
	pConv
	pDense
)

type pStage struct {
	kind  pStageKind
	layer Layer // for pDigital

	// MVM stage fields.
	pm      *oc.ProgrammedMatrix
	sw, sx  float64 // weight scale, input activation scale
	bias    []float64
	conv    *Conv2D // geometry for pConv
	inScale *ActQuant
}

// NewPhotonicExec compiles a network for photonic execution. aBits is the
// DMVA activation precision (the paper uses 4 everywhere); fidelity
// selects the analog model. Weight precision comes from each layer's
// attached WeightQuant (EnableQAT / SetLayerWeightBits), so Lightator-MX
// mixed-precision networks compile naturally.
func NewPhotonicExec(net *Sequential, aBits int, fidelity oc.Fidelity) (*PhotonicExec, error) {
	pe := &PhotonicExec{ABits: aBits, Fidelity: fidelity, cores: map[int]*oc.Core{}}
	sx := 1.0 // network input is the sensor's [0,1] intensity range
	for _, l := range net.Layers {
		switch layer := l.(type) {
		case *Conv2D:
			st, err := pe.buildMVMStage(layer.Name(), layer.W.Data, layer.B.Data, layer.WQuant, sx)
			if err != nil {
				return nil, fmt.Errorf("nn: photonic %s: %w", layer.Name(), err)
			}
			st.kind = pConv
			st.conv = layer
			pe.stages = append(pe.stages, st)
		case *Dense:
			st, err := pe.buildMVMStage(layer.Name(), layer.W.Data, layer.B.Data, layer.WQuant, sx)
			if err != nil {
				return nil, fmt.Errorf("nn: photonic %s: %w", layer.Name(), err)
			}
			st.kind = pDense
			pe.stages = append(pe.stages, st)
		case *ActQuant:
			if layer.Scale <= 0 {
				return nil, fmt.Errorf("nn: photonic %s: activation scale not calibrated", layer.Name())
			}
			sx = layer.Scale
			pe.stages = append(pe.stages, pStage{kind: pDigital, layer: layer})
		default:
			pe.stages = append(pe.stages, pStage{kind: pDigital, layer: l})
		}
	}
	return pe, nil
}

func (pe *PhotonicExec) coreFor(wBits int) (*oc.Core, error) {
	if c, ok := pe.cores[wBits]; ok {
		return c, nil
	}
	c, err := oc.NewCore(wBits, pe.ABits, pe.Fidelity)
	if err != nil {
		return nil, err
	}
	pe.cores[wBits] = c
	return c, nil
}

// buildMVMStage normalises weights to [-1,1] and programs them onto MRs
// with the per-row defect calibration, as the health component
// "photonic:<layer>". wData layout: [rows][cols] flattened.
func (pe *PhotonicExec) buildMVMStage(name string, wData, bias []float64, wq *WeightQuant, sx float64) (pStage, error) {
	if wq == nil {
		// Photonic execution requires a weight grid; default to 4 bits.
		wq = &WeightQuant{Bits: 4}
	}
	core, err := pe.coreFor(wq.Bits)
	if err != nil {
		return pStage{}, err
	}
	sw := wq.Scale(wData)
	rows := len(bias)
	cols := len(wData) / rows
	m := make([][]float64, rows)
	for r := 0; r < rows; r++ {
		m[r] = make([]float64, cols)
		for i := 0; i < cols; i++ {
			v := 0.0
			if sw > 0 {
				v = wData[r*cols+i] / sw
			}
			m[r][i] = v
		}
	}
	pm, err := core.ProgramCalibrated(m, 1)
	if err != nil {
		return pStage{}, err
	}
	pm.SetLabel("photonic:" + name)
	b := append([]float64(nil), bias...)
	return pStage{pm: pm, sw: sw, sx: sx, bias: b}, nil
}

// Forward runs a batch through the photonic pipeline. Stage i seeds its
// MVMs from DeriveSeed(photonicSeed, i), so the output depends on the
// input alone, never on earlier calls.
func (pe *PhotonicExec) Forward(x *Tensor) (*Tensor, error) {
	var err error
	for i := range pe.stages {
		st := &pe.stages[i]
		seed := oc.DeriveSeed(photonicSeed, i)
		switch st.kind {
		case pDigital:
			x, err = st.layer.Forward(x, false)
		case pDense:
			x, err = st.applyDense(x, seed)
		case pConv:
			x, err = st.applyConv(x, seed)
		}
		if err != nil {
			return nil, err
		}
	}
	return x, nil
}

// applyDense runs y = scale*(Wq/sw)(x/sx) * (sw*sx) + b photonically;
// sample b draws its noise from DeriveSeed(seed, b).
func (st *pStage) applyDense(x *Tensor, seed int64) (*Tensor, error) {
	if len(x.Shape) != 2 {
		return nil, fmt.Errorf("nn: photonic dense wants [N,D] input, got rank %d", len(x.Shape))
	}
	n, d := x.Shape[0], x.Shape[1]
	if d != st.pm.Cols() {
		return nil, fmt.Errorf("nn: photonic dense input width %d, want %d", d, st.pm.Cols())
	}
	out := NewTensor(n, st.pm.Rows())
	vec := make([]float64, d)
	y := make([]float64, st.pm.Rows())
	ap := st.pm.NewApplier()
	defer ap.Release()
	for b := 0; b < n; b++ {
		for i := 0; i < d; i++ {
			vec[i] = x.At2(b, i) / st.sx
		}
		if err := ap.ApplySeededInto(y, vec, oc.DeriveSeed(seed, b)); err != nil {
			return nil, err
		}
		for o, v := range y {
			out.Set2(b, o, v*st.sw*st.sx+st.bias[o])
		}
	}
	return out, nil
}

// applyConv runs the convolution as per-position photonic MVMs over
// flattened patches (the paper's Fig. 5 mapping: each 9-tap kernel slice
// occupies one arm; multi-channel kernels span multiple arms whose partial
// sums combine in the summation stage). The patch at (oy, ox) of sample b
// draws its noise from DeriveSeed(DeriveSeed(seed, b), oy*ow+ox).
func (st *pStage) applyConv(x *Tensor, seed int64) (*Tensor, error) {
	c := st.conv
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("nn: photonic conv wants NCHW input, got rank %d", len(x.Shape))
	}
	n, inC, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if inC != c.InC {
		return nil, fmt.Errorf("nn: photonic conv input channels %d, want %d", inC, c.InC)
	}
	oh, ow := c.OutHW(h, w)
	out := NewTensor(n, c.OutC, oh, ow)
	patch := make([]float64, c.InC*c.K*c.K)
	y := make([]float64, c.OutC)
	ap := st.pm.NewApplier()
	defer ap.Release()
	for b := 0; b < n; b++ {
		sampleSeed := oc.DeriveSeed(seed, b)
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				i := 0
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						for kx := 0; kx < c.K; kx++ {
							iy := oy*c.Stride + ky - c.Pad
							ix := ox*c.Stride + kx - c.Pad
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								patch[i] = 0
							} else {
								patch[i] = x.At4(b, ic, iy, ix) / st.sx
							}
							i++
						}
					}
				}
				if err := ap.ApplySeededInto(y, patch, oc.DeriveSeed(sampleSeed, oy*ow+ox)); err != nil {
					return nil, err
				}
				for oc := 0; oc < c.OutC; oc++ {
					out.Set4(b, oc, oy, ox, y[oc]*st.sw*st.sx+st.bias[oc])
				}
			}
		}
	}
	return out, nil
}

// ArmCount returns the total arms occupied by all programmed matrices —
// a sanity metric the tests compare against mapping schedules.
func (pe *PhotonicExec) ArmCount() int {
	n := 0
	for i := range pe.stages {
		if pe.stages[i].pm != nil {
			n += pe.stages[i].pm.ArmCount()
		}
	}
	return n
}

// HeaterPower sums the MR tuning power of every programmed matrix, as if
// the whole network were resident at once.
func (pe *PhotonicExec) HeaterPower() float64 {
	p := 0.0
	for i := range pe.stages {
		if pe.stages[i].pm != nil {
			p += pe.stages[i].pm.HeaterPower()
		}
	}
	return p
}
