// Package nn is a small, dependency-free neural-network stack: dense
// tensors, convolution / pooling / fully-connected layers with full
// backpropagation, quantization-aware training utilities, and a photonic
// execution path that runs trained networks through the optical core of
// package oc. It stands in for the paper's PyTorch application level
// (Fig. 7): training, quantization, and the extraction of weights that the
// architecture simulator maps onto MRs.
package nn

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float64 tensor. Convolutional data uses
// NCHW layout; fully-connected data uses [N, D].
type Tensor struct {
	Shape []int
	Data  []float64
}

// NewTensor allocates a zeroed tensor with the given shape.
func NewTensor(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("nn: non-positive dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// Size returns the element count.
func (t *Tensor) Size() int { return len(t.Data) }

// Dim returns the i-th dimension.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float64, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// ZerosLike returns a zeroed tensor of the same shape.
func (t *Tensor) ZerosLike() *Tensor {
	return &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float64, len(t.Data))}
}

// Reshape returns a view with a new shape of equal size. The data is
// shared with the receiver.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		return nil, fmt.Errorf("nn: reshape %v (%d elems) to %v (%d elems)", t.Shape, len(t.Data), shape, n)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}, nil
}

// At4 indexes an NCHW tensor.
func (t *Tensor) At4(n, c, h, w int) float64 {
	return t.Data[((n*t.Shape[1]+c)*t.Shape[2]+h)*t.Shape[3]+w]
}

// Set4 writes an NCHW element.
func (t *Tensor) Set4(n, c, h, w int, v float64) {
	t.Data[((n*t.Shape[1]+c)*t.Shape[2]+h)*t.Shape[3]+w] = v
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// MaxAbs returns the maximum absolute element, 0 for an empty tensor.
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// ShapeEquals reports whether two tensors have identical shapes.
func (t *Tensor) ShapeEquals(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Param is a trainable parameter: shared weight storage plus a gradient
// accumulator. Worker clones used by data-parallel training share Data
// but own their Grad buffers.
type Param struct {
	Name string
	Data []float64
	Grad []float64
}

// NewParam allocates a parameter of n elements.
func NewParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float64, n), Grad: make([]float64, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// cloneShared returns a param sharing Data with a fresh Grad buffer.
func (p *Param) cloneShared() *Param {
	return &Param{Name: p.Name, Data: p.Data, Grad: make([]float64, len(p.Grad))}
}
