package nn

import (
	"fmt"
	"math"
)

// ReLU is the rectified linear activation (one of the three activation
// functions Lightator's electronic block supports: Sign, ReLU, tanh).
type ReLU struct {
	LayerName string
	mask      []bool
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.LayerName }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// CloneShared implements Layer.
func (r *ReLU) CloneShared() Layer { return &ReLU{LayerName: r.LayerName} }

// Forward implements Layer.
func (r *ReLU) Forward(x *Tensor, train bool) (*Tensor, error) {
	y := x.Clone()
	if train {
		r.mask = make([]bool, len(x.Data))
	}
	for i, v := range x.Data {
		if v <= 0 {
			y.Data[i] = 0
		} else if train {
			r.mask[i] = true
		}
	}
	return y, nil
}

// ForwardInplace implements InplaceLayer: the inference-mode rectification
// applied directly to x. max(v, 0) is Forward's rule without its branch,
// which a conv output's mixed signs mispredict half the time: negatives
// and -0 become +0, and NaN stays NaN.
func (r *ReLU) ForwardInplace(x *Tensor) error {
	for i, v := range x.Data {
		x.Data[i] = max(v, 0)
	}
	return nil
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *Tensor) (*Tensor, error) {
	if r.mask == nil {
		return nil, fmt.Errorf("relu %s: backward before training forward", r.LayerName)
	}
	dx := dy.Clone()
	for i := range dx.Data {
		if !r.mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx, nil
}

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	LayerName string
	y         *Tensor
}

// NewTanh constructs a tanh layer.
func NewTanh(name string) *Tanh { return &Tanh{LayerName: name} }

// Name implements Layer.
func (t *Tanh) Name() string { return t.LayerName }

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// CloneShared implements Layer.
func (t *Tanh) CloneShared() Layer { return &Tanh{LayerName: t.LayerName} }

// Forward implements Layer.
func (t *Tanh) Forward(x *Tensor, train bool) (*Tensor, error) {
	y := x.Clone()
	for i, v := range x.Data {
		y.Data[i] = math.Tanh(v)
	}
	if train {
		t.y = y
	}
	return y, nil
}

// Backward implements Layer.
func (t *Tanh) Backward(dy *Tensor) (*Tensor, error) {
	if t.y == nil {
		return nil, fmt.Errorf("tanh %s: backward before training forward", t.LayerName)
	}
	dx := dy.Clone()
	for i := range dx.Data {
		dx.Data[i] *= 1 - t.y.Data[i]*t.y.Data[i]
	}
	return dx, nil
}

// Sign is the binary sign activation with a straight-through estimator
// (hard-tanh window) for training, used by binary networks such as the
// LightBulb and Robin baselines.
type Sign struct {
	LayerName string
	x         *Tensor
}

// NewSign constructs a sign-activation layer.
func NewSign(name string) *Sign { return &Sign{LayerName: name} }

// Name implements Layer.
func (s *Sign) Name() string { return s.LayerName }

// Params implements Layer.
func (s *Sign) Params() []*Param { return nil }

// CloneShared implements Layer.
func (s *Sign) CloneShared() Layer { return &Sign{LayerName: s.LayerName} }

// Forward implements Layer.
func (s *Sign) Forward(x *Tensor, train bool) (*Tensor, error) {
	y := x.Clone()
	for i, v := range x.Data {
		if v >= 0 {
			y.Data[i] = 1
		} else {
			y.Data[i] = -1
		}
	}
	if train {
		s.x = x
	}
	return y, nil
}

// Backward implements Layer: straight-through estimator, gradients pass
// where |x| <= 1.
func (s *Sign) Backward(dy *Tensor) (*Tensor, error) {
	if s.x == nil {
		return nil, fmt.Errorf("sign %s: backward before training forward", s.LayerName)
	}
	dx := dy.Clone()
	for i := range dx.Data {
		if math.Abs(s.x.Data[i]) > 1 {
			dx.Data[i] = 0
		}
	}
	return dx, nil
}

// Flatten reshapes NCHW to [N, C*H*W].
type Flatten struct {
	LayerName string
	inShape   []int
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{LayerName: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.LayerName }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// CloneShared implements Layer.
func (f *Flatten) CloneShared() Layer { return &Flatten{LayerName: f.LayerName} }

// Forward implements Layer.
func (f *Flatten) Forward(x *Tensor, train bool) (*Tensor, error) {
	if len(x.Shape) < 2 {
		return nil, fmt.Errorf("flatten %s: input rank %d", f.LayerName, len(x.Shape))
	}
	if train {
		f.inShape = append([]int(nil), x.Shape...)
	}
	d := 1
	for _, s := range x.Shape[1:] {
		d *= s
	}
	return x.Reshape(x.Shape[0], d)
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *Tensor) (*Tensor, error) {
	if f.inShape == nil {
		return nil, fmt.Errorf("flatten %s: backward before training forward", f.LayerName)
	}
	return dy.Reshape(f.inShape...)
}
