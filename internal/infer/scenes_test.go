package infer

import (
	"math/rand"
	"testing"

	"lightator/internal/oc"
)

// TestAgreement pins the metric's contract: empty or mismatched sweeps
// carry no evidence and report 0; ties resolve to the first maximum on
// both sides, so identical degenerate logit vectors agree.
func TestAgreement(t *testing.T) {
	cases := []struct {
		name      string
		optical   [][]float64
		reference [][]float64
		want      float64
	}{
		{"empty", nil, nil, 0},
		{"empty slices", [][]float64{}, [][]float64{}, 0},
		{"mismatched lengths", [][]float64{{1, 0}}, nil, 0},
		{"exact match", [][]float64{{0.1, 0.9}, {3, 1}}, [][]float64{{0.2, 0.8}, {5, 2}}, 1},
		{"disagree", [][]float64{{0.1, 0.9}}, [][]float64{{0.8, 0.2}}, 0},
		{"half", [][]float64{{1, 0}, {1, 0}}, [][]float64{{2, 0}, {0, 2}}, 0.5},
		{"tied logits agree", [][]float64{{0, 0, 0}}, [][]float64{{0, 0, 0}}, 1},
		{"tie resolves first", [][]float64{{1, 1}}, [][]float64{{0, 2}}, 0},
	}
	for _, tc := range cases {
		if got := Agreement(tc.optical, tc.reference); got != tc.want {
			t.Errorf("%s: Agreement = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDiskScenesDeterministic: the structured scene generator is a pure
// function of its seed, and every pixel is either dim background (0.1)
// or bright disk (0.9) with both present.
func TestDiskScenesDeterministic(t *testing.T) {
	a := DiskScenes(4, 16, 16, 42)
	b := DiskScenes(4, 16, 16, 42)
	if len(a) != 4 {
		t.Fatalf("got %d scenes, want 4", len(a))
	}
	sawDisk, sawBackground := false, false
	for i := range a {
		if a[i].H != 16 || a[i].W != 16 || a[i].C != 3 {
			t.Fatalf("scene %d shape %dx%dx%d", i, a[i].H, a[i].W, a[i].C)
		}
		for j, v := range a[i].Pix {
			if v != b[i].Pix[j] {
				t.Fatalf("scene %d pixel %d not deterministic: %v vs %v", i, j, v, b[i].Pix[j])
			}
			switch v {
			case 0.1:
				sawBackground = true
			case 0.9:
				sawDisk = true
			default:
				t.Fatalf("scene %d pixel %d = %v, want 0.1 or 0.9", i, j, v)
			}
		}
	}
	if !sawDisk || !sawBackground {
		t.Fatal("scenes missing disk or background pixels")
	}
	c := DiskScenes(4, 16, 16, 43)
	same := true
	for i := range a {
		for j := range a[i].Pix {
			if a[i].Pix[j] != c[i].Pix[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical scenes")
	}
}

// TestDisksRenderOnDemand: rendering scene i on demand — in any order —
// reproduces the scene the draw-and-render-in-one-loop generator built
// (disk i's draws interleaved with rendering, which consumes no rng),
// and DiskScenes(n)[i] is that scene, for several seeds and sizes.
func TestDisksRenderOnDemand(t *testing.T) {
	interleaved := func(n, rows, cols int, seed int64) [][]float64 {
		rng := rand.New(rand.NewSource(seed))
		out := make([][]float64, n)
		for i := range out {
			pix := make([]float64, rows*cols*3)
			for j := range pix {
				pix[j] = 0.1
			}
			cy := float64(rng.Intn(rows))
			cx := float64(rng.Intn(cols))
			r := float64(rows) * (0.1 + 0.2*rng.Float64())
			for y := 0; y < rows; y++ {
				for x := 0; x < cols; x++ {
					dy, dx := float64(y)-cy, float64(x)-cx
					if dy*dy+dx*dx < r*r {
						for c := 0; c < 3; c++ {
							pix[(y*cols+x)*3+c] = 0.9
						}
					}
				}
			}
			out[i] = pix
		}
		return out
	}
	for _, tc := range []struct {
		n, rows, cols int
		seed          int64
	}{{5, 16, 16, 1}, {16, 64, 64, 12345}, {7, 24, 40, 42}, {3, 40, 24, -7}} {
		want := interleaved(tc.n, tc.rows, tc.cols, tc.seed)
		all := DiskScenes(tc.n, tc.rows, tc.cols, tc.seed)
		d := NewDisks(tc.n, tc.rows, tc.cols, tc.seed)
		if len(all) != tc.n {
			t.Fatalf("%+v: DiskScenes made %d scenes", tc, len(all))
		}
		for i := tc.n - 1; i >= 0; i-- {
			one := d.Scene(i)
			if one.H != tc.rows || one.W != tc.cols || one.C != 3 {
				t.Fatalf("%+v scene %d shape %dx%dx%d", tc, i, one.H, one.W, one.C)
			}
			for j, v := range want[i] {
				if one.Pix[j] != v || all[i].Pix[j] != v {
					t.Fatalf("%+v scene %d pixel %d: Scene %v, DiskScenes %v, want %v", tc, i, j, one.Pix[j], all[i].Pix[j], v)
				}
			}
		}
	}
}

// TestCalibrationPlanes: fidelity-true calibration planes have the
// compressed shape, are deterministic, and differ frame to frame (the
// jittered disk keeps per-frame statistics distinct).
func TestCalibrationPlanes(t *testing.T) {
	core, err := oc.NewCore(4, 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}
	a, err := CalibrationPlanes(core, 2, 8, 8, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CalibrationPlanes(core, 2, 8, 8, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 {
		t.Fatalf("got %d planes, want 3", len(a))
	}
	for i := range a {
		if a[i].H != 8 || a[i].W != 8 || a[i].C != 1 {
			t.Fatalf("plane %d shape %dx%dx%d, want 8x8x1", i, a[i].H, a[i].W, a[i].C)
		}
		for j, v := range a[i].Pix {
			if v != b[i].Pix[j] {
				t.Fatalf("plane %d pixel %d not deterministic", i, j)
			}
		}
	}
	identical := true
	for j := range a[0].Pix {
		if a[0].Pix[j] != a[1].Pix[j] {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("consecutive calibration planes are identical — scenes not jittering")
	}
}
