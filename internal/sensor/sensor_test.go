package sensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lightator/internal/analog"
)

func TestImageSetAtClipping(t *testing.T) {
	im := NewImage(4, 4, 3)
	im.Set(1, 2, 0, 0.5)
	if im.At(1, 2, 0) != 0.5 {
		t.Fatal("round trip failed")
	}
	im.Set(0, 0, 1, -0.5)
	if im.At(0, 0, 1) != 0 {
		t.Error("negative not clipped")
	}
	im.Set(0, 0, 2, 1.5)
	if im.At(0, 0, 2) != 1 {
		t.Error("over-range not clipped")
	}
}

func TestImageClone(t *testing.T) {
	im := NewImage(2, 2, 1)
	im.Set(0, 0, 0, 0.7)
	cp := im.Clone()
	cp.Set(0, 0, 0, 0.1)
	if im.At(0, 0, 0) != 0.7 {
		t.Error("clone aliased the original")
	}
}

func TestGrayscaleCoefficients(t *testing.T) {
	im := NewImage(1, 3, 3)
	// Pure R, G, B pixels.
	im.Set(0, 0, 0, 1)
	im.Set(0, 1, 1, 1)
	im.Set(0, 2, 2, 1)
	g, err := im.Grayscale()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.299, 0.587, 0.114} {
		if math.Abs(g.At(0, i, 0)-want) > 1e-12 {
			t.Errorf("channel %d luma %g, want %g", i, g.At(0, i, 0), want)
		}
	}
	// Grayscale of grayscale is identity.
	g2, err := g.Grayscale()
	if err != nil {
		t.Fatal(err)
	}
	if g2.At(0, 0, 0) != g.At(0, 0, 0) {
		t.Error("grayscale of single-channel image changed values")
	}
}

func TestBayerPatternRGGB(t *testing.T) {
	// 2x2 super-pixel: R G / G B.
	if BayerChannelAt(0, 0) != BayerR {
		t.Error("(0,0) not R")
	}
	if BayerChannelAt(0, 1) != BayerG {
		t.Error("(0,1) not G")
	}
	if BayerChannelAt(1, 0) != BayerG {
		t.Error("(1,0) not G")
	}
	if BayerChannelAt(1, 1) != BayerB {
		t.Error("(1,1) not B")
	}
	// Period 2 in both directions.
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if BayerChannelAt(y, x) != BayerChannelAt(y+2, x) || BayerChannelAt(y, x) != BayerChannelAt(y, x+2) {
				t.Fatalf("pattern not periodic at (%d,%d)", y, x)
			}
		}
	}
	// Green sites are half of all sites.
	greens := 0
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if BayerChannelAt(y, x) == BayerG {
				greens++
			}
		}
	}
	if greens != 128 {
		t.Errorf("green sites %d, want 128 of 256", greens)
	}
}

func TestArrayDefaultDimensions(t *testing.T) {
	a := Default()
	if a.Rows != 256 || a.Cols != 256 {
		t.Fatalf("default array %dx%d, want 256x256", a.Rows, a.Cols)
	}
}

func TestArrayValidation(t *testing.T) {
	if _, err := NewArray(0, 10); err == nil {
		t.Error("zero rows accepted")
	}
	a, _ := NewArray(4, 4)
	if _, err := a.Capture(NewImage(4, 4, 1)); err == nil {
		t.Error("single-channel scene accepted by Capture")
	}
	if _, err := a.Capture(NewImage(8, 8, 3)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestCaptureBrightnessMapping(t *testing.T) {
	a, _ := NewArray(8, 8)
	scene := NewImage(8, 8, 3)
	// Left half dark, right half bright (all channels equal so the Bayer
	// mosaic is irrelevant).
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			v := 0.0
			if x >= 4 {
				v = 1.0
			}
			for c := 0; c < 3; c++ {
				scene.Set(y, x, c, v)
			}
		}
	}
	f, err := a.Capture(scene)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 4; x++ {
			if f.CodeAt(y, x) != 0 {
				t.Errorf("dark pixel (%d,%d) code %d", y, x, f.CodeAt(y, x))
			}
		}
		for x := 4; x < 8; x++ {
			if f.CodeAt(y, x) != analog.NumComparators {
				t.Errorf("bright pixel (%d,%d) code %d", y, x, f.CodeAt(y, x))
			}
		}
	}
	if f.Intensity(0, 7) != 1 {
		t.Errorf("bright intensity %g, want 1", f.Intensity(0, 7))
	}
}

// Property: quantisation error of the full capture chain never exceeds
// one CRC LSB for any mid-gray scene.
func TestCaptureQuantisationProperty(t *testing.T) {
	a, _ := NewArray(2, 2)
	f := func(v float64) bool {
		in := math.Mod(math.Abs(v), 1)
		scene := NewImage(2, 2, 3)
		for y := 0; y < 2; y++ {
			for x := 0; x < 2; x++ {
				for c := 0; c < 3; c++ {
					scene.Set(y, x, c, in)
				}
			}
		}
		fr, err := a.Capture(scene)
		if err != nil {
			return false
		}
		rec := fr.Intensity(0, 0)
		return math.Abs(rec-in) <= 1.0/15+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalShutterLatching(t *testing.T) {
	a, _ := NewArray(2, 2)
	scene := NewImage(2, 2, 3)
	for c := 0; c < 3; c++ {
		scene.Set(0, 0, c, 1)
	}
	f, err := a.Capture(scene)
	if err != nil {
		t.Fatal(err)
	}
	code := f.CodeAt(0, 0)
	// Mutating the scene after capture must not change the captured
	// frame (global shutter semantics).
	for c := 0; c < 3; c++ {
		scene.Set(0, 0, c, 0)
	}
	if f.CodeAt(0, 0) != code {
		t.Error("captured code changed after the scene did")
	}
}

// latchedArray is the reference readout Capture replaced: mosaic and
// expose the whole scene into a V_PD latch, then read every latched
// voltage out through the CRC.
type latchedArray struct {
	*Array
	vpd []float64
}

func (a *latchedArray) exposeRGB(scene *Image) {
	a.vpd = make([]float64, a.Rows*a.Cols)
	for y := 0; y < a.Rows; y++ {
		for x := 0; x < a.Cols; x++ {
			v := scene.Pix[(y*a.Cols+x)*3+int(BayerChannelAt(y, x))]
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			a.vpd[y*a.Cols+x] = a.PD.Voltage(v)
		}
	}
}

func (a *latchedArray) readFrame() *Frame {
	f := &Frame{Rows: a.Rows, Cols: a.Cols, Codes: make([]uint8, a.Rows*a.Cols)}
	for i, v := range a.vpd {
		f.Codes[i] = uint8(a.CRC.Code(v))
	}
	return f
}

// TestCaptureMatchesLatchedReference holds the one-walk Capture against
// the expose→latch→readout reference over seeded scenes that include
// out-of-range, infinite and NaN samples.
func TestCaptureMatchesLatchedReference(t *testing.T) {
	specials := []float64{-0.5, -1e-300, 0, 1, 1 + 1e-12, 2, math.Inf(1), math.Inf(-1), math.NaN()}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 3+rng.Intn(14), 3+rng.Intn(14)
		a, err := NewArray(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		scene := NewImage(rows, cols, 3)
		for i := range scene.Pix {
			if rng.Intn(5) == 0 {
				scene.Pix[i] = specials[rng.Intn(len(specials))]
			} else {
				scene.Pix[i] = rng.Float64()*1.4 - 0.2
			}
		}
		// Every special value also lands on a site the mosaic reads.
		for k, v := range specials {
			y, x := k/cols, k%cols
			scene.Pix[k*3+int(BayerChannelAt(y, x))] = v
		}
		got, err := a.Capture(scene)
		if err != nil {
			t.Fatal(err)
		}
		ref := &latchedArray{Array: a}
		ref.exposeRGB(scene)
		want := ref.readFrame()
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("seed %d: frame %dx%d, want %dx%d", seed, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Codes {
			if got.Codes[i] != want.Codes[i] {
				t.Fatalf("seed %d: pixel %d code %d, want %d", seed, i, got.Codes[i], want.Codes[i])
			}
		}
	}
}
