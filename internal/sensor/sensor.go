// Package sensor implements Lightator's ADC-less imager: a 256x256
// global-shutter RGB image sensor with a Bayer colour-filter mosaic, whose
// pixels are read by the CRC comparator banks of package analog instead of
// conventional column ADCs (paper §3, "ADC-Less Imager").
package sensor

import (
	"fmt"

	"lightator/internal/analog"
)

// Image is a dense H x W x C image with float64 samples in [0, 1],
// channel-interleaved (C fastest). C is 1 for grayscale or 3 for RGB.
type Image struct {
	H, W, C int
	Pix     []float64
}

// NewImage allocates a zeroed image.
func NewImage(h, w, c int) *Image {
	return &Image{H: h, W: w, C: c, Pix: make([]float64, h*w*c)}
}

// At returns the sample at row y, column x, channel c.
func (im *Image) At(y, x, c int) float64 {
	return im.Pix[(y*im.W+x)*im.C+c]
}

// Set writes the sample at row y, column x, channel c, clipping to [0,1].
func (im *Image) Set(y, x, c int, v float64) {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	im.Pix[(y*im.W+x)*im.C+c] = v
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := NewImage(im.H, im.W, im.C)
	copy(out.Pix, im.Pix)
	return out
}

// Grayscale returns the ITU-R BT.601 luma of an RGB image — the same
// coefficients the Compressive Acquisitor maps onto its MRs:
// 0.299 R + 0.587 G + 0.114 B.
func (im *Image) Grayscale() (*Image, error) {
	if im.C == 1 {
		return im.Clone(), nil
	}
	if im.C != 3 {
		return nil, fmt.Errorf("sensor: grayscale needs 1 or 3 channels, have %d", im.C)
	}
	out := NewImage(im.H, im.W, 1)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			g := 0.299*im.At(y, x, 0) + 0.587*im.At(y, x, 1) + 0.114*im.At(y, x, 2)
			out.Set(y, x, 0, g)
		}
	}
	return out, nil
}

// BayerChannel identifies which colour filter covers a pixel site in the
// RGGB mosaic of Fig. 2.
type BayerChannel int

const (
	BayerR BayerChannel = 0
	BayerG BayerChannel = 1
	BayerB BayerChannel = 2
)

// BayerChannelAt returns the colour filter at pixel (y, x) for an RGGB
// pattern: even row: R G R G..., odd row: G B G B...
func BayerChannelAt(y, x int) BayerChannel {
	if y%2 == 0 {
		if x%2 == 0 {
			return BayerR
		}
		return BayerG
	}
	if x%2 == 0 {
		return BayerG
	}
	return BayerB
}

// Array is the 256x256 global-shutter pixel array plus its readout chain.
// Capture exposes every pixel over the same interval (global shutter) and
// converts each pixel voltage to a 4-bit code through the per-column CRC
// units. A pixel's code depends only on its own light, so nothing is
// latched between the two: an Array is immutable after construction and
// safe for concurrent use.
type Array struct {
	Rows, Cols int
	PD         analog.Photodiode
	CRC        *analog.CRC
}

// DefaultRows/DefaultCols are the paper's sensor dimensions.
const (
	DefaultRows = 256
	DefaultCols = 256
)

// NewArray builds a sensor array with default pixel and CRC models.
func NewArray(rows, cols int) (*Array, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("sensor: invalid array size %dx%d", rows, cols)
	}
	return &Array{
		Rows: rows,
		Cols: cols,
		PD:   analog.DefaultPhotodiode(),
		CRC:  analog.DefaultCRC(),
	}, nil
}

// Default returns the paper's 256x256 array.
func Default() *Array {
	a, err := NewArray(DefaultRows, DefaultCols)
	if err != nil {
		panic(err) // unreachable: constant dimensions are valid
	}
	return a
}

// Frame is a readout result: 4-bit codes per pixel plus the Bayer layout
// so downstream stages know which colour each site carries.
type Frame struct {
	Rows, Cols int
	Codes      []uint8
}

// CodeAt returns the 4-bit code at (y, x).
func (f *Frame) CodeAt(y, x int) uint8 {
	return f.Codes[y*f.Cols+x]
}

// Intensity returns the code at (y, x) normalised to [0, 1].
func (f *Frame) Intensity(y, x int) float64 {
	return float64(f.CodeAt(y, x)) / float64(analog.NumComparators)
}

// Capture mosaics an RGB scene through the Bayer filter (each site reads
// its BayerChannelAt sample, clipped to [0,1]: the filter cannot emit
// over-range light), exposes it and reads every pixel out as its 4-bit
// CRC code in one walk. This is the ADC-less readout: 15 comparisons per
// pixel, no ADC ramp, no sense amplifiers. The frame holds its own
// codes, so later changes to the scene leave it untouched.
func (a *Array) Capture(scene *Image) (*Frame, error) {
	if scene.C != 3 {
		return nil, fmt.Errorf("sensor: mosaic needs an RGB scene, have %d channels", scene.C)
	}
	if scene.H != a.Rows || scene.W != a.Cols {
		return nil, fmt.Errorf("sensor: frame %dx%d does not match array %dx%d", scene.H, scene.W, a.Rows, a.Cols)
	}
	f := &Frame{Rows: a.Rows, Cols: a.Cols, Codes: make([]uint8, a.Rows*a.Cols)}
	for y := 0; y < a.Rows; y++ {
		rowBase := y * a.Cols
		for x := 0; x < a.Cols; x++ {
			v := scene.Pix[(rowBase+x)*3+int(BayerChannelAt(y, x))]
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			f.Codes[rowBase+x] = uint8(a.CRC.Code(a.PD.Voltage(v)))
		}
	}
	return f, nil
}
