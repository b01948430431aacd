package nn

import "fmt"

// MaxPool2D is a max-pooling layer with window K and stride K.
type MaxPool2D struct {
	LayerName string
	K         int
	argmax    []int
	inShape   []int
}

// NewMaxPool2D constructs a max-pooling layer.
func NewMaxPool2D(name string, k int) *MaxPool2D {
	return &MaxPool2D{LayerName: name, K: k}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.LayerName }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// CloneShared implements Layer.
func (m *MaxPool2D) CloneShared() Layer { return &MaxPool2D{LayerName: m.LayerName, K: m.K} }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *Tensor, train bool) (*Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("maxpool %s: input rank %d, want 4", m.LayerName, len(x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if h%m.K != 0 || w%m.K != 0 {
		return nil, fmt.Errorf("maxpool %s: input %dx%d not divisible by %d", m.LayerName, h, w, m.K)
	}
	oh, ow := h/m.K, w/m.K
	y := NewTensor(n, c, oh, ow)
	if train {
		m.argmax = make([]int, n*c*oh*ow)
		m.inShape = append([]int(nil), x.Shape...)
	}
	idx := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := x.At4(b, ch, oy*m.K, ox*m.K)
					bestAt := ((b*c+ch)*h+oy*m.K)*w + ox*m.K
					for ky := 0; ky < m.K; ky++ {
						for kx := 0; kx < m.K; kx++ {
							v := x.At4(b, ch, oy*m.K+ky, ox*m.K+kx)
							if v > best {
								best = v
								bestAt = ((b*c+ch)*h+oy*m.K+ky)*w + ox*m.K + kx
							}
						}
					}
					y.Set4(b, ch, oy, ox, best)
					if train {
						m.argmax[idx] = bestAt
					}
					idx++
				}
			}
		}
	}
	return y, nil
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dy *Tensor) (*Tensor, error) {
	if m.argmax == nil {
		return nil, fmt.Errorf("maxpool %s: backward before training forward", m.LayerName)
	}
	dx := NewTensor(m.inShape...)
	for i, g := range dy.Data {
		dx.Data[m.argmax[i]] += g
	}
	return dx, nil
}

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
