package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveConv is the reference Conv2D.Forward: every output is bias plus
// its in-bounds taps read through At4 in (ic, ky, kx) order.
func naiveConv(c *Conv2D, x *Tensor) *Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.OutHW(h, w)
	y := NewTensor(n, c.OutC, oh, ow)
	for b := 0; b < n; b++ {
		for o := 0; o < c.OutC; o++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := c.B.Data[o]
					for ic := 0; ic < c.InC; ic++ {
						wBase := ((o*c.InC + ic) * c.K) * c.K
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
								sum += c.W.Data[wBase+ky*c.K+kx] * x.At4(b, ic, iy, ix)
							}
						}
					}
					y.Set4(b, o, oy, ox, sum)
				}
			}
		}
	}
	return y
}

// naiveAvgPool is the reference AvgPool2D.Forward: each window summed
// through At4 row by row, left to right, then scaled by 1/K².
func naiveAvgPool(a *AvgPool2D, x *Tensor) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/a.K, w/a.K
	inv := 1 / float64(a.K*a.K)
	y := NewTensor(n, c, oh, ow)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := 0.0
					for ky := 0; ky < a.K; ky++ {
						for kx := 0; kx < a.K; kx++ {
							sum += x.At4(b, ch, oy*a.K+ky, ox*a.K+kx)
						}
					}
					y.Set4(b, ch, oy, ox, sum*inv)
				}
			}
		}
	}
	return y
}

// randTensor fills a tensor with signed values spanning several orders
// of magnitude, so any change in accumulation order shows in the bits.
func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := NewTensor(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return t
}

// sameBits fails the test at the first element whose bits differ.
func sameBits(t *testing.T, got, want *Tensor) {
	t.Helper()
	if !got.ShapeEquals(want) {
		t.Fatalf("shape %v, want %v", got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("element %d: %v (%#x), want %v (%#x)", i, got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestConvForwardMatchesAt4Walk pins the row-indexed Conv2D.Forward
// bit-for-bit against the At4 walk over strides, paddings, kernel sizes,
// channel counts, batch sizes and odd plane sizes (training and the infer
// engine both run it; the infer goldens cover only a 1-channel,
// stride-1 geometry).
func TestConvForwardMatchesAt4Walk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, k := range []int{1, 2, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, ch := range [][2]int{{1, 1}, {1, 6}, {3, 2}, {4, 5}} {
					for _, batch := range []int{1, 3} {
						for _, hw := range [][2]int{{7, 9}, {8, 8}, {5, 12}} {
							c := NewConv2D("c", ch[0], ch[1], k, stride, pad)
							if oh, ow := c.OutHW(hw[0], hw[1]); oh < 1 || ow < 1 {
								continue
							}
							name := fmt.Sprintf("k%d/s%d/p%d/in%d-out%d/n%d/%dx%d", k, stride, pad, ch[0], ch[1], batch, hw[0], hw[1])
							copy(c.W.Data, randTensor(rng, len(c.W.Data)).Data)
							copy(c.B.Data, randTensor(rng, len(c.B.Data)).Data)
							x := randTensor(rng, batch, ch[0], hw[0], hw[1])
							got, err := c.Forward(x, false)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							t.Run(name, func(t *testing.T) { sameBits(t, got, naiveConv(c, x)) })
						}
					}
				}
			}
		}
	}
}

// TestAvgPoolForwardMatchesAt4Walk pins the row-indexed
// AvgPool2D.Forward bit-for-bit against the At4 walk over window sizes,
// channel counts and batch sizes.
func TestAvgPoolForwardMatchesAt4Walk(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, k := range []int{1, 2, 3} {
		for _, ch := range []int{1, 6} {
			for _, batch := range []int{1, 3} {
				for _, hw := range [][2]int{{6, 6}, {12, 6}} {
					a := NewAvgPool2D("p", k)
					x := randTensor(rng, batch, ch, hw[0], hw[1])
					got, err := a.Forward(x, false)
					if err != nil {
						t.Fatal(err)
					}
					t.Run(fmt.Sprintf("k%d/c%d/n%d/%dx%d", k, ch, batch, hw[0], hw[1]), func(t *testing.T) {
						sameBits(t, got, naiveAvgPool(a, x))
					})
				}
			}
		}
	}
}
