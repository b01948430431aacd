package nn

import (
	"fmt"

	"lightator/internal/oc"
)

// Conv2D is a standard 2D convolution over NCHW tensors with optional
// weight fake-quantization for QAT. Weight layout: [OutC][InC][K][K].
type Conv2D struct {
	LayerName      string
	InC, OutC      int
	K, Stride, Pad int
	W, B           *Param

	// WQuant, when non-nil, fake-quantizes weights every forward pass
	// (straight-through estimator: gradients flow to the float weights).
	WQuant *WeightQuant
	// Analog, when non-nil, replaces the fake-quantization grid with the
	// fidelity-true effective weights of the optical core (crosstalk +
	// calibration) — see EnableAnalogQAT.
	Analog *oc.Core

	x  *Tensor   // cached input
	wq []float64 // cached effective (possibly quantized) weights
}

// NewConv2D constructs a convolution layer.
func NewConv2D(name string, inC, outC, k, stride, pad int) *Conv2D {
	return &Conv2D{
		LayerName: name,
		InC:       inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W: NewParam(name+".w", outC*inC*k*k),
		B: NewParam(name+".b", outC),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.LayerName }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// CloneShared implements Layer.
func (c *Conv2D) CloneShared() Layer {
	return &Conv2D{
		LayerName: c.LayerName,
		InC:       c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		W: c.W.cloneShared(), B: c.B.cloneShared(),
		WQuant: c.WQuant, Analog: c.Analog,
	}
}

// OutHW returns the output spatial size for an input of h x w.
func (c *Conv2D) OutHW(h, w int) (int, int) {
	return (h+2*c.Pad-c.K)/c.Stride + 1, (w+2*c.Pad-c.K)/c.Stride + 1
}

// effectiveWeights returns the weights used for compute: fake-quantized
// when QAT is enabled, raw otherwise.
func (c *Conv2D) effectiveWeights() []float64 {
	if c.WQuant == nil && c.Analog == nil {
		return c.W.Data
	}
	if cap(c.wq) < len(c.W.Data) {
		c.wq = make([]float64, len(c.W.Data))
	}
	c.wq = c.wq[:len(c.W.Data)]
	if c.Analog != nil {
		// Shapes are consistent by construction, so this cannot fail.
		if err := c.Analog.AnalogWeightsInto(c.wq, c.W.Data, c.OutC, c.InC*c.K*c.K); err != nil {
			panic(fmt.Sprintf("conv %s: analog weights: %v", c.LayerName, err))
		}
		return c.wq
	}
	c.WQuant.Apply(c.W.Data, c.wq)
	return c.wq
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *Tensor, train bool) (*Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("conv %s: input rank %d, want 4", c.LayerName, len(x.Shape))
	}
	if x.Shape[1] != c.InC {
		return nil, fmt.Errorf("conv %s: input channels %d, want %d", c.LayerName, x.Shape[1], c.InC)
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.OutHW(h, w)
	if oh < 1 || ow < 1 {
		return nil, fmt.Errorf("conv %s: empty output for input %dx%d", c.LayerName, h, w)
	}
	if train {
		c.x = x
	} else {
		c.x = nil
	}
	wts := c.effectiveWeights()
	y := NewTensor(n, c.OutC, oh, ow)
	// Each output is bias plus its in-bounds taps in (ic, ky, kx) order —
	// the At4 walk's order, so results are bit-identical to it. The walk
	// is interchanged to run tap by tap over whole output rows read
	// straight out of the planes: every output still accumulates in that
	// order, but neighbouring outputs no longer wait on one another's
	// adds.
	k, s, hw := c.K, c.Stride, h*w
	for b := 0; b < n; b++ {
		for o := 0; o < c.OutC; o++ {
			out := y.Data[(b*c.OutC+o)*oh*ow : (b*c.OutC+o+1)*oh*ow]
			for i := range out {
				out[i] = c.B.Data[o]
			}
			for ic := 0; ic < c.InC; ic++ {
				plane := x.Data[(b*c.InC+ic)*hw : (b*c.InC+ic+1)*hw]
				kern := wts[(o*c.InC+ic)*k*k : (o*c.InC+ic+1)*k*k]
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						wv := kern[ky*k+kx]
						// Output columns whose tap ix = ox*s - Pad + kx is
						// inside [0, w).
						oxLo := 0
						if d := c.Pad - kx; d > 0 {
							oxLo = (d + s - 1) / s
						}
						oxHi := 0
						if d := w - 1 + c.Pad - kx; d >= 0 {
							oxHi = min(ow, d/s+1)
						}
						if oxLo >= oxHi {
							continue
						}
						for oy := 0; oy < oh; oy++ {
							iy := oy*s - c.Pad + ky
							if iy < 0 || iy >= h {
								continue
							}
							dst := out[oy*ow+oxLo : oy*ow+oxHi]
							src := plane[iy*w+oxLo*s-c.Pad+kx : (iy+1)*w]
							if s == 1 {
								src = src[:len(dst)]
								for i := range dst {
									dst[i] += wv * src[i]
								}
							} else {
								for i := range dst {
									dst[i] += wv * src[i*s]
								}
							}
						}
					}
				}
			}
		}
	}
	return y, nil
}

// Backward implements Layer. Gradients w.r.t. quantized weights pass
// straight through to the float weights (STE).
func (c *Conv2D) Backward(dy *Tensor) (*Tensor, error) {
	if c.x == nil {
		return nil, fmt.Errorf("conv %s: backward before training forward", c.LayerName)
	}
	x := c.x
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	wts := c.effectiveWeights()
	gw, gb := c.W.Gradient(), c.B.Gradient()
	dx := x.ZerosLike()
	for b := 0; b < n; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dy.At4(b, oc, oy, ox)
					if g == 0 {
						continue
					}
					gb[oc] += g
					for ic := 0; ic < c.InC; ic++ {
						wBase := ((oc*c.InC + ic) * c.K) * c.K
						for ky := 0; ky < c.K; ky++ {
							iy := oy*c.Stride + ky - c.Pad
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < c.K; kx++ {
								ix := ox*c.Stride + kx - c.Pad
								if ix < 0 || ix >= w {
									continue
								}
								xi := x.At4(b, ic, iy, ix)
								gw[wBase+ky*c.K+kx] += g * xi
								dx.Set4(b, ic, iy, ix, dx.At4(b, ic, iy, ix)+g*wts[wBase+ky*c.K+kx])
							}
						}
					}
				}
			}
		}
	}
	return dx, nil
}
