package nn

import (
	"fmt"

	"lightator/internal/oc"
)

// Dense is a fully-connected layer over [N, D] tensors with optional
// weight fake-quantization. Weight layout: [Out][In].
type Dense struct {
	LayerName string
	In, Out   int
	W, B      *Param
	WQuant    *WeightQuant
	// Analog, when non-nil, replaces the fake-quantization grid with the
	// fidelity-true effective weights of the optical core (crosstalk +
	// calibration) — see EnableAnalogQAT.
	Analog *oc.Core

	x  *Tensor
	wq []float64
}

// NewDense constructs a fully-connected layer.
func NewDense(name string, in, out int) *Dense {
	return &Dense{
		LayerName: name,
		In:        in, Out: out,
		W: NewParam(name+".w", out*in),
		B: NewParam(name+".b", out),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.LayerName }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// CloneShared implements Layer.
func (d *Dense) CloneShared() Layer {
	return &Dense{
		LayerName: d.LayerName,
		In:        d.In, Out: d.Out,
		W: d.W.cloneShared(), B: d.B.cloneShared(),
		WQuant: d.WQuant, Analog: d.Analog,
	}
}

func (d *Dense) effectiveWeights() []float64 {
	if d.WQuant == nil && d.Analog == nil {
		return d.W.Data
	}
	if cap(d.wq) < len(d.W.Data) {
		d.wq = make([]float64, len(d.W.Data))
	}
	d.wq = d.wq[:len(d.W.Data)]
	if d.Analog != nil {
		// Shapes are consistent by construction, so this cannot fail.
		if err := d.Analog.AnalogWeightsInto(d.wq, d.W.Data, d.Out, d.In); err != nil {
			panic(fmt.Sprintf("dense %s: analog weights: %v", d.LayerName, err))
		}
		return d.wq
	}
	d.WQuant.Apply(d.W.Data, d.wq)
	return d.wq
}

// Forward implements Layer.
func (d *Dense) Forward(x *Tensor, train bool) (*Tensor, error) {
	if len(x.Shape) != 2 {
		return nil, fmt.Errorf("dense %s: input rank %d, want 2 (flatten first)", d.LayerName, len(x.Shape))
	}
	if x.Shape[1] != d.In {
		return nil, fmt.Errorf("dense %s: input width %d, want %d", d.LayerName, x.Shape[1], d.In)
	}
	if train {
		d.x = x
	} else {
		d.x = nil
	}
	wts := d.effectiveWeights()
	n := x.Shape[0]
	y := NewTensor(n, d.Out)
	for b := 0; b < n; b++ {
		xRow := x.Data[b*d.In : (b+1)*d.In]
		yRow := y.Data[b*d.Out : (b+1)*d.Out]
		for o := 0; o < d.Out; o++ {
			sum := d.B.Data[o]
			wRow := wts[o*d.In : (o+1)*d.In]
			for i, xi := range xRow {
				sum += wRow[i] * xi
			}
			yRow[o] = sum
		}
	}
	return y, nil
}

// Backward implements Layer.
func (d *Dense) Backward(dy *Tensor) (*Tensor, error) {
	if d.x == nil {
		return nil, fmt.Errorf("dense %s: backward before training forward", d.LayerName)
	}
	x := d.x
	n := x.Shape[0]
	wts := d.effectiveWeights()
	gw, gb := d.W.Gradient(), d.B.Gradient()
	dx := x.ZerosLike()
	for b := 0; b < n; b++ {
		xRow := x.Data[b*d.In : (b+1)*d.In]
		dxRow := dx.Data[b*d.In : (b+1)*d.In]
		gRow := dy.Data[b*d.Out : (b+1)*d.Out]
		for o := 0; o < d.Out; o++ {
			g := gRow[o]
			if g == 0 {
				continue
			}
			gb[o] += g
			wRow := wts[o*d.In : (o+1)*d.In]
			gwRow := gw[o*d.In : (o+1)*d.In]
			for i, xi := range xRow {
				gwRow[i] += g * xi
				dxRow[i] += g * wRow[i]
			}
		}
	}
	return dx, nil
}
