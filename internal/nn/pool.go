package nn

import "fmt"

// AvgPool2D is an average-pooling layer with window K and stride K — the
// operation the Compressive Acquisitor implements optically with pre-set
// MR coefficients (w = 1/K^2 per tap).
type AvgPool2D struct {
	LayerName string
	K         int
	inShape   []int
}

// NewAvgPool2D constructs an average-pooling layer.
func NewAvgPool2D(name string, k int) *AvgPool2D {
	return &AvgPool2D{LayerName: name, K: k}
}

// Name implements Layer.
func (a *AvgPool2D) Name() string { return a.LayerName }

// Params implements Layer.
func (a *AvgPool2D) Params() []*Param { return nil }

// CloneShared implements Layer.
func (a *AvgPool2D) CloneShared() Layer { return &AvgPool2D{LayerName: a.LayerName, K: a.K} }

// Forward implements Layer.
func (a *AvgPool2D) Forward(x *Tensor, train bool) (*Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("avgpool %s: input rank %d, want 4", a.LayerName, len(x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if h%a.K != 0 || w%a.K != 0 {
		return nil, fmt.Errorf("avgpool %s: input %dx%d not divisible by %d", a.LayerName, h, w, a.K)
	}
	oh, ow := h/a.K, w/a.K
	if train {
		a.inShape = append([]int(nil), x.Shape...)
	}
	inv := 1 / float64(a.K*a.K)
	y := NewTensor(n, c, oh, ow)
	// Each window sums its rows top to bottom, each left to right — the
	// At4 walk's order — read straight out of the channel plane.
	for p := 0; p < n*c; p++ {
		plane := x.Data[p*h*w : (p+1)*h*w]
		out := y.Data[p*oh*ow : (p+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := 0.0
				for ky := 0; ky < a.K; ky++ {
					for _, v := range plane[(oy*a.K+ky)*w+ox*a.K:][:a.K] {
						sum += v
					}
				}
				out[oy*ow+ox] = sum * inv
			}
		}
	}
	return y, nil
}

// Backward implements Layer.
func (a *AvgPool2D) Backward(dy *Tensor) (*Tensor, error) {
	if a.inShape == nil {
		return nil, fmt.Errorf("avgpool %s: backward before training forward", a.LayerName)
	}
	dx := NewTensor(a.inShape...)
	n, c := a.inShape[0], a.inShape[1]
	oh, ow := dy.Shape[2], dy.Shape[3]
	inv := 1 / float64(a.K*a.K)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dy.At4(b, ch, oy, ox) * inv
					for ky := 0; ky < a.K; ky++ {
						for kx := 0; kx < a.K; kx++ {
							dx.Set4(b, ch, oy*a.K+ky, ox*a.K+kx, g)
						}
					}
				}
			}
		}
	}
	return dx, nil
}
