package infer

import (
	"math"
	"testing"

	"lightator/internal/nn"
	"lightator/internal/oc"
	"lightator/internal/sensor"
)

// TestReferenceReadsProgrammedLevels: Reference reads its weight grid
// back from the programmed MR levels, so it must equal, bit for bit, the
// quantized digital network computed from the float weights — the
// oracle below rebuilds each layer's grid weights straight from the
// network (sw = max|w|, level = round((w/sw+1)/2·(2^WBits−1)),
// weight = −1 + 2·level/(2^WBits−1)) and walks the layers the way the
// reference does. Both built-ins at 128x128, in every fidelity (the
// fidelity moves the calibrated activation scales, not the grid).
func TestReferenceReadsProgrammedLevels(t *testing.T) {
	const (
		poolN  = 2
		h, w   = 128, 128
		seed   = 0x5eed
		planes = 2
	)
	for _, fid := range []oc.Fidelity{oc.Ideal, oc.Physical, oc.PhysicalNoisy} {
		core, err := oc.NewCore(4, 4, fid)
		if err != nil {
			t.Fatal(err)
		}
		inputs, err := CalibrationPlanes(core, poolN, h, w, planes, 99)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, testPlane(5, h, w))
		for i, b := range []struct {
			name string
			net  *nn.Sequential
		}{
			{"tiny-mlp", TinyMLP(h, w, DefaultClasses, core.ABits)},
			{"tiny-cnn", TinyCNN(h, w, DefaultClasses, core.ABits)},
		} {
			name, net := b.name, b.net
			m, err := buildDefault(core, name, "", net, poolN, h, w, oc.DeriveSeed(seed, i+1))
			if err != nil {
				t.Fatal(err)
			}
			for j, plane := range inputs {
				got, err := m.Reference(plane)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleReference(t, core, net, plane)
				if len(got) != len(want) {
					t.Fatalf("%v %s plane %d: %d logits, oracle %d", fid, name, j, len(got), len(want))
				}
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("%v %s plane %d logit %d: Reference %v, oracle %v", fid, name, j, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// oracleReference is the quantized digital network over float grid
// weights, independent of the programmed matrices: optical layers run
// the grid MVM over the ABits-quantized input (normalised by the last
// ActQuant scale), restore sw·sx and add the bias; every other layer
// runs its inference Forward.
func oracleReference(t *testing.T, core *oc.Core, net *nn.Sequential, plane *sensor.Image) []float64 {
	t.Helper()
	x := nn.NewTensor(1, 1, plane.H, plane.W)
	copy(x.Data, plane.Pix)
	sx := 1.0
	var err error
	for _, l := range net.Layers {
		switch layer := l.(type) {
		case *nn.Conv2D:
			x = oracleConv(layer, gridWeights(layer.W.Data, len(layer.B.Data), core.WBits), x, sx, core)
		case *nn.Dense:
			x = oracleDense(layer, gridWeights(layer.W.Data, len(layer.B.Data), core.WBits), x, sx, core)
		default:
			if aq, ok := l.(*nn.ActQuant); ok {
				sx = aq.Scale
			}
			if x, err = l.Forward(x, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	return x.Data
}

// oracleGrid is one layer's float grid weights and full-scale factor.
type oracleGrid struct {
	w  [][]float64
	sw float64
}

// gridWeights snaps a rows-row weight matrix onto the WBits bank grid
// after full-scale normalisation.
func gridWeights(data []float64, rows, wBits int) oracleGrid {
	sw := 0.0
	for _, v := range data {
		sw = math.Max(sw, math.Abs(v))
	}
	n := float64(int(1)<<uint(wBits) - 1)
	cols := len(data) / rows
	g := oracleGrid{w: make([][]float64, rows), sw: sw}
	for r := range g.w {
		g.w[r] = make([]float64, cols)
		for c := range g.w[r] {
			level := math.Round((data[r*cols+c]/sw + 1) / 2 * n)
			g.w[r][c] = -1 + 2*level/n
		}
	}
	return g
}

// oracleQuantize is the stage input the reference reads: x/sx snapped
// to the activation grid.
func oracleQuantize(x []float64, sx float64, core *oc.Core) []float64 {
	q := make([]float64, len(x))
	for i, v := range x {
		if sx != 1 {
			v /= sx
		}
		q[i] = core.QuantizeActivation(v)
	}
	return q
}

func oracleConv(c *nn.Conv2D, g oracleGrid, x *nn.Tensor, sx float64, core *oc.Core) *nn.Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.OutHW(h, w)
	q, pad := oracleQuantize(x.Data, sx, core), core.QuantizeActivation(0)
	out := nn.NewTensor(n, c.OutC, oh, ow)
	patch := make([]float64, c.InC*c.K*c.K)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				i := 0
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						for kx := 0; kx < c.K; kx++ {
							iy, ix := oy*c.Stride+ky-c.Pad, ox*c.Stride+kx-c.Pad
							patch[i] = pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								patch[i] = q[((b*c.InC+ic)*h+iy)*w+ix]
							}
							i++
						}
					}
				}
				for o, row := range g.w {
					sum := 0.0
					for k, wt := range row {
						sum += wt * patch[k]
					}
					out.Data[((b*c.OutC+o)*oh+oy)*ow+ox] = sum*(g.sw*sx) + c.B.Data[o]
				}
			}
		}
	}
	return out
}

func oracleDense(d *nn.Dense, g oracleGrid, x *nn.Tensor, sx float64, core *oc.Core) *nn.Tensor {
	n, in := x.Shape[0], x.Shape[1]
	q := oracleQuantize(x.Data, sx, core)
	out := nn.NewTensor(n, d.Out)
	for b := 0; b < n; b++ {
		for o, row := range g.w {
			sum := 0.0
			for k, wt := range row {
				sum += wt * q[b*in+k]
			}
			out.Data[b*d.Out+o] = sum*(g.sw*sx) + d.B.Data[o]
		}
	}
	return out
}
