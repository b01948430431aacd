package oc

import (
	"fmt"

	"lightator/internal/analog"
	"lightator/internal/sensor"
)

// Compressive Acquisitor (paper §3.2). CA banks hold pre-set weight
// coefficients that fuse RGB-to-grayscale conversion with configurable
// average pooling, so a frame is compressed in a single optical pass
// before the first DNN layer ever runs (Eq. 1):
//
//	P_AvgGray = sum_over_window( (1/N^2) * luma(channel) * P_site )
//
// Two variants are provided. CAWeightsRGB is Eq. 1 verbatim: every pixel
// carries full RGB, giving 3*N*N taps per window. CAWeightsBayer adapts
// the same fusion to the sensor's RGGB mosaic, where each site carries one
// colour, giving N*N taps; the luma coefficient of each site is divided by
// that colour's site count so each channel contributes its proper average.

// Luma coefficients of Eq. 1 (ITU-R BT.601).
const (
	LumaR = 0.299
	LumaG = 0.587
	LumaB = 0.114
)

// CAWeightsRGB returns the fused grayscale + N x N average-pooling weight
// vector of Eq. 1 for full-RGB pixels, laid out window-row-major with
// channels fastest: [P1R P1G P1B P2R ... P(N*N)B]. Length 3*N*N.
func CAWeightsRGB(n int) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("oc: pooling size %d < 1", n)
	}
	inv := 1 / float64(n*n)
	w := make([]float64, 0, 3*n*n)
	for i := 0; i < n*n; i++ {
		w = append(w, inv*LumaR, inv*LumaG, inv*LumaB)
	}
	return w, nil
}

// CAWeightsBayer returns the fused weight vector for an N x N window of
// RGGB Bayer raw samples (window aligned to even coordinates), laid out
// window-row-major. Each site's weight is luma(channel)/count(channel in
// window), so the weighted sum equals the grayscale of the per-channel
// window averages. N must be even so every window sees a whole number of
// Bayer quads.
func CAWeightsBayer(n int) ([]float64, error) {
	if n < 2 || n%2 != 0 {
		return nil, fmt.Errorf("oc: Bayer pooling size %d must be even and >= 2", n)
	}
	quads := (n / 2) * (n / 2)
	counts := map[sensor.BayerChannel]float64{
		sensor.BayerR: float64(quads),
		sensor.BayerG: float64(2 * quads),
		sensor.BayerB: float64(quads),
	}
	lumas := map[sensor.BayerChannel]float64{
		sensor.BayerR: LumaR,
		sensor.BayerG: LumaG,
		sensor.BayerB: LumaB,
	}
	w := make([]float64, 0, n*n)
	for dy := 0; dy < n; dy++ {
		for dx := 0; dx < n; dx++ {
			ch := sensor.BayerChannelAt(dy, dx)
			w = append(w, lumas[ch]/counts[ch])
		}
	}
	return w, nil
}

// Acquisitor is a configured CA: a pooling factor and the optical core
// that executes its weighted sums.
type Acquisitor struct {
	// PoolN is the pooling window/stride (2 halves each dimension).
	PoolN int
	core  *Core
	pm    *ProgrammedMatrix
}

// NewAcquisitor builds a CA for N x N compression on the given core. The
// CA weights are programmed once (pre-set coefficients, no DAC traffic at
// run time — exactly why the paper's pooling layers are nearly free in
// Fig. 8).
func NewAcquisitor(core *Core, poolN int) (*Acquisitor, error) {
	w, err := CAWeightsBayer(poolN)
	if err != nil {
		return nil, err
	}
	pm, err := core.Program([][]float64{w})
	if err != nil {
		return nil, err
	}
	// The CA is a first-class health component: fault plans target it as
	// "ca" and its ABFT/recovery counters surface under that label.
	pm.SetLabel("ca")
	return &Acquisitor{PoolN: poolN, core: core, pm: pm}, nil
}

// Degraded reports whether the CA's programmed bank is serving degraded
// output (rows retired to the digital fallback, or unrecovered ABFT
// detections).
func (a *Acquisitor) Degraded() bool { return a.pm.Degraded() }

// ABFTChecksPer models how many checksum verifications n pooled-window
// applies trigger (see ProgrammedMatrix.ABFTChecksPer).
func (a *Acquisitor) ABFTChecksPer(applies int64) int64 { return a.pm.ABFTChecksPer(applies) }

// CompressSeeded runs the fused grayscale + average pooling over a raw
// Bayer frame readout, producing a single-channel activation plane of
// size (H/N) x (W/N) with values in [0, 1]. Window j of the output plane
// is one seeded apply of the CA bank under DeriveSeed(seed, j), so the
// compressed frame is bit-identical for a given (frame, seed) no matter
// how many frames are being compressed concurrently.
//
// This is the per-frame hot path (every pipeline frame funnels through
// it), so the walk is specialised: one scratch window per frame, CRC
// intensities read through a precomputed code table (the exact
// float64(code)/NumComparators division Frame.Intensity performs), and —
// when the activation grid coincides with the CRC grid, i.e.
// 2^ABits - 1 == NumComparators — the quantization pass is skipped
// outright: code/15 round-trips the 4-bit grid exactly
// (Round(code/15·15)/15 == code/15 bit-for-bit), so quantization is the
// identity. The golden tests pin all of this against the per-window
// ApplySeededInto composition.
func (a *Acquisitor) CompressSeeded(f *sensor.Frame, seed int64) (*sensor.Image, error) {
	n := a.PoolN
	if f.Rows%n != 0 || f.Cols%n != 0 {
		return nil, fmt.Errorf("oc: frame %dx%d not divisible by pool %d", f.Rows, f.Cols, n)
	}
	outH, outW := f.Rows/n, f.Cols/n
	out := sensor.NewImage(outH, outW, 1)
	window := GetScratch(n * n)
	y := GetScratch(1)
	defer PutScratch(window)
	defer PutScratch(y)
	ap := a.pm.applier()
	defer ap.Release()
	// Intensity table: lut[c] is exactly Frame.Intensity's division for
	// code c. Codes above the CRC range (impossible from Capture, but
	// reachable from hand-built frames) fall back to the live division.
	var lut [analog.NumComparators + 1]float64
	for c := range lut {
		lut[c] = float64(c) / float64(analog.NumComparators)
	}
	skipQuant := (1<<uint(a.core.ABits))-1 == analog.NumComparators
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			i := 0
			overRange := false
			for dy := 0; dy < n; dy++ {
				row := f.Codes[(oy*n+dy)*f.Cols+ox*n:]
				for dx := 0; dx < n; dx++ {
					c := row[dx]
					if int(c) < len(lut) {
						(*window)[i] = lut[c]
					} else {
						// Out-of-range codes land off the CRC grid, so the
						// identity-quantization shortcut does not hold for
						// this window.
						(*window)[i] = float64(c) / float64(analog.NumComparators)
						overRange = true
					}
					i++
				}
			}
			q := *window
			if !skipQuant || overRange {
				if err := a.pm.quantizeInto(*ap.xq, *window); err != nil {
					return nil, err
				}
				q = *ap.xq
			}
			if err := ap.ApplyQuantizedInto(*y, q, DeriveSeed(seed, oy*outW+ox)); err != nil {
				return nil, err
			}
			out.Set(oy, ox, 0, (*y)[0])
		}
	}
	return out, nil
}

// Reference computes the same fused compression in exact float arithmetic
// (no quantization, no analog effects) for verification.
func (a *Acquisitor) Reference(f *sensor.Frame) (*sensor.Image, error) {
	n := a.PoolN
	if f.Rows%n != 0 || f.Cols%n != 0 {
		return nil, fmt.Errorf("oc: frame %dx%d not divisible by pool %d", f.Rows, f.Cols, n)
	}
	w, err := CAWeightsBayer(n)
	if err != nil {
		return nil, err
	}
	outH, outW := f.Rows/n, f.Cols/n
	out := sensor.NewImage(outH, outW, 1)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			sum := 0.0
			i := 0
			for dy := 0; dy < n; dy++ {
				for dx := 0; dx < n; dx++ {
					sum += w[i] * f.Intensity(oy*n+dy, ox*n+dx)
					i++
				}
			}
			out.Set(oy, ox, 0, sum)
		}
	}
	return out, nil
}
