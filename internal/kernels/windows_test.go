package kernels

import (
	"math/rand"
	"testing"

	"lightator/internal/oc"
	"lightator/internal/sensor"
)

// windowsTestPlane builds a deterministic single-channel plane.
func windowsTestPlane(seed int64, h, w int) *sensor.Image {
	rng := rand.New(rand.NewSource(seed))
	p := sensor.NewImage(h, w, 1)
	for i := range p.Pix {
		p.Pix[i] = rng.Float64()
	}
	return p
}

// windowsTestOps builds LinOps across distinct LinOp geometries:
// a padded stride-1 conv and a stride-2, block-2 downsampling operator.
func windowsTestOps(t *testing.T, fid oc.Fidelity) []*LinOp {
	t.Helper()
	core, err := oc.NewCore(4, 4, fid)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := NewBlockConv(core, "edge", "test conv",
		[][]float64{{0, -1, 0}, {-1, 4, -1}, {0, -1, 0}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A 2x2-block operator over 4x4 stride-2 windows (identity on the
	// window's top-left 2x2), exercising block > 1 placement.
	op := make([][]float64, 4)
	for r := range op {
		row := make([]float64, 16)
		row[(r/2)*4+r%2] = 1
		op[r] = row
	}
	down, err := NewLinOp(core, "down", "test downsample", op, 4, 2, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []*LinOp{conv.(*LinOp), down}
}

// TestApplyWindowsCoversApply: recomputing every window one at a time
// into a zeroed output must reconstruct the full Apply result
// bit-exactly — each window writes exactly its own output block, with
// the same per-window seed derivation Apply uses. Noisy fidelity rides
// along so the seed path is exercised, not just the deterministic one.
func TestApplyWindowsCoversApply(t *testing.T) {
	for _, fid := range []oc.Fidelity{oc.Physical, oc.PhysicalNoisy} {
		t.Run(fid.String(), func(t *testing.T) {
			for _, op := range windowsTestOps(t, fid) {
				plane := windowsTestPlane(3, 12, 12)
				const seed = 991
				want, err := op.Apply(plane, seed, 1)
				if err != nil {
					t.Fatal(err)
				}
				wh, ww, err := op.Windows(plane.H, plane.W)
				if err != nil {
					t.Fatal(err)
				}
				got := sensor.NewImage(want.H, want.W, 1)
				sel := make([]bool, wh*ww)
				for j := range sel {
					sel[j] = true
					if err := op.ApplyWindows(got, plane, seed, 2, sel); err != nil {
						t.Fatal(err)
					}
					sel[j] = false
				}
				for i := range want.Pix {
					if got.Pix[i] != want.Pix[i] {
						t.Fatalf("%s: sample %d differs after window-by-window recompute: %g vs %g",
							op.Name(), i, got.Pix[i], want.Pix[i])
					}
				}
			}
		})
	}
}

// TestApplyWindowsLocality: a window's output depends only on its
// WindowInput rectangle — perturbing any sample outside that rectangle
// and recomputing the window must reproduce the same block. This is
// the property the session layer's delta reuse is sound on.
func TestApplyWindowsLocality(t *testing.T) {
	for _, op := range windowsTestOps(t, oc.Physical) {
		plane := windowsTestPlane(5, 12, 12)
		wh, ww, err := op.Windows(plane.H, plane.W)
		if err != nil {
			t.Fatal(err)
		}
		// A middle window, so the rectangle has outside on every side.
		wy, wx := wh/2, ww/2
		j := wy*ww + wx
		y0, x0, y1, x1 := op.WindowInput(wy, wx)
		sel := make([]bool, wh*ww)
		sel[j] = true

		base, err := op.Apply(plane, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		perturbed := plane.Clone()
		touched := false
		for y := 0; y < plane.H; y++ {
			for x := 0; x < plane.W; x++ {
				if y >= y0 && y < y1 && x >= x0 && x < x1 {
					continue
				}
				perturbed.Pix[y*plane.W+x] += 1 + float64(y+x)
				touched = true
			}
		}
		if !touched {
			t.Fatalf("%s: window input covers the whole plane; pick a bigger plane", op.Name())
		}
		got := base.Clone()
		if err := op.ApplyWindows(got, perturbed, 7, 1, sel); err != nil {
			t.Fatal(err)
		}
		for i := range base.Pix {
			if got.Pix[i] != base.Pix[i] {
				t.Fatalf("%s: sample %d changed although only out-of-window input moved", op.Name(), i)
			}
		}
	}
}

// TestApplyWindowsValidation: shape mismatches are rejected.
func TestApplyWindowsValidation(t *testing.T) {
	op := windowsTestOps(t, oc.Physical)[0]
	plane := windowsTestPlane(1, 12, 12)
	oh, ow, err := op.OutDims(plane.H, plane.W)
	if err != nil {
		t.Fatal(err)
	}
	wh, ww, err := op.Windows(plane.H, plane.W)
	if err != nil {
		t.Fatal(err)
	}
	out := sensor.NewImage(oh, ow, 1)
	if err := op.ApplyWindows(out, plane, 1, 1, make([]bool, wh*ww-1)); err == nil {
		t.Fatal("short selection accepted")
	}
	bad := sensor.NewImage(oh+1, ow, 1)
	if err := op.ApplyWindows(bad, plane, 1, 1, make([]bool, wh*ww)); err == nil {
		t.Fatal("mis-shaped output accepted")
	}
}
