package photonics

import (
	"fmt"
	"math"
)

// WDMGrid describes the wavelength-division-multiplexing channel plan of an
// MVM arm: N channels centred on Center with uniform spacing. Lightator
// arms carry 9 channels (one per MR / kernel weight).
type WDMGrid struct {
	// Center wavelength in meters.
	Center float64
	// Spacing between adjacent channels in meters.
	Spacing float64
	// N is the number of channels.
	N int
}

// DefaultGrid returns the 9-channel, 2 nm-spaced C-band grid used by
// Lightator's arms. 9 channels x 2 nm fits comfortably inside one FSR
// (~18 nm) of the 5 um weight-bank rings, so each ring interacts with
// exactly one intended channel plus Lorentzian-tail crosstalk.
func DefaultGrid(n int) WDMGrid {
	return WDMGrid{Center: CBandCenter, Spacing: 2e-9, N: n}
}

// Wavelengths returns the channel wavelengths, lowest first.
func (g WDMGrid) Wavelengths() []float64 {
	out := make([]float64, g.N)
	span := float64(g.N-1) * g.Spacing
	for i := 0; i < g.N; i++ {
		out[i] = g.Center - span/2 + float64(i)*g.Spacing
	}
	return out
}

// WeightBank is one MVM arm's set of rings: ring i is aligned to channel i
// and tuned to imprint weight w_i. The bank propagates a WDM power vector
// through the rings in series; through-rail survivors hit the BPD plus
// input and drop-rail accumulations hit the minus input.
//
// WeightBank is the exact (per-ring) model: it supports per-ring
// fabrication variation and arbitrary (unquantized) weights. The quantized
// fast path used by the architecture simulator is BankModel.
type WeightBank struct {
	Grid  WDMGrid
	Rings []*Ring
	Tuner ThermalTuner

	// weightScale is the |d| magnitude that weight 1.0 maps to; set by the
	// realisable range of the template ring so weights in [-1,1] are
	// always solvable.
	weightScale float64
	weights     []float64
}

// NewWeightBank builds an arm of n rings aligned to an n-channel grid.
// Fabrication variation can be injected afterwards via PerturbResonances.
func NewWeightBank(n int) *WeightBank {
	grid := DefaultGrid(n)
	lams := grid.Wavelengths()
	rings := make([]*Ring, n)
	for i := range rings {
		rings[i] = WeightBankRing(lams[i])
	}
	wb := &WeightBank{Grid: grid, Rings: rings, Tuner: DefaultThermalTuner(), weights: make([]float64, n)}
	min, max := rings[0].WeightRange(lams[0])
	wb.weightScale = math.Min(-min, max) * 0.999 // margin keeps the solver in range
	return wb
}

// Size returns the number of rings (= channels) in the bank.
func (wb *WeightBank) Size() int { return len(wb.Rings) }

// WeightScale returns the physical differential transmission magnitude
// that a logical weight of 1.0 maps to.
func (wb *WeightBank) WeightScale() float64 { return wb.weightScale }

// PerturbResonances applies per-ring resonance offsets (meters), modelling
// fabrication variation. Offsets add to whatever tuning Program applies,
// i.e. they model *uncorrected* variation.
func (wb *WeightBank) PerturbResonances(offsets []float64) error {
	if len(offsets) != len(wb.Rings) {
		return fmt.Errorf("photonics: %d offsets for %d rings", len(offsets), len(wb.Rings))
	}
	lams := wb.Grid.Wavelengths()
	for i, r := range wb.Rings {
		// Re-align then offset, preserving any programmed weight shift.
		shift := r.Shift()
		r.AlignTo(lams[i])
		r.Tune(shift + offsets[i])
	}
	return nil
}

// Program tunes each ring to imprint the corresponding logical weight in
// [-1, 1]. Returns an error if a weight is out of range.
func (wb *WeightBank) Program(weights []float64) error {
	if len(weights) != len(wb.Rings) {
		return fmt.Errorf("photonics: %d weights for %d rings", len(weights), len(wb.Rings))
	}
	lams := wb.Grid.Wavelengths()
	for i, w := range weights {
		if w < -1 || w > 1 {
			return fmt.Errorf("photonics: weight %g at index %d outside [-1,1]", w, i)
		}
		if _, err := wb.Rings[i].SolveWeight(lams[i], w*wb.weightScale); err != nil {
			return fmt.Errorf("photonics: ring %d: %w", i, err)
		}
		wb.weights[i] = w
	}
	return nil
}

// Weights returns the logical weights most recently programmed.
func (wb *WeightBank) Weights() []float64 {
	out := make([]float64, len(wb.weights))
	copy(out, wb.weights)
	return out
}

// TransferCoefficients propagates a unit power on each channel through the
// ring chain and returns the effective differential coefficient per
// channel: c_j = T_through_total(lambda_j) - sum_k dropped_k(lambda_j),
// normalised by the weight scale so that c_j == w_j in the absence of
// crosstalk and loss. Inter-channel crosstalk emerges from each ring's
// Lorentzian tails touching neighbouring channels.
func (wb *WeightBank) TransferCoefficients() []float64 {
	lams := wb.Grid.Wavelengths()
	out := make([]float64, len(lams))
	for j, lam := range lams {
		through := 1.0
		dropped := 0.0
		for _, ring := range wb.Rings {
			d := ring.DropTransmission(lam)
			t := ring.ThroughTransmission(lam)
			dropped += through * d
			through *= t
		}
		out[j] = (through - dropped) / wb.weightScale
	}
	return out
}

// Output computes the arm's normalised MAC result for the given channel
// powers (activations in [0,1]): sum_j c_j * p_j. The BPD differential
// current is this value scaled by responsivity and laser power, which the
// TIA gain normalises away.
func (wb *WeightBank) Output(powers []float64) (float64, error) {
	if len(powers) != len(wb.Rings) {
		return 0, fmt.Errorf("photonics: %d powers for %d rings", len(powers), len(wb.Rings))
	}
	coeffs := wb.TransferCoefficients()
	sum := 0.0
	for j, p := range powers {
		sum += coeffs[j] * p
	}
	return sum, nil
}

// IdealOutput returns the crosstalk-free reference sum_j w_j * p_j.
func (wb *WeightBank) IdealOutput(powers []float64) (float64, error) {
	if len(powers) != len(wb.weights) {
		return 0, fmt.Errorf("photonics: %d powers for %d weights", len(powers), len(wb.weights))
	}
	sum := 0.0
	for j, p := range powers {
		sum += wb.weights[j] * p
	}
	return sum, nil
}

// HeaterPower returns the total tuning power in watts currently needed to
// hold the programmed weights.
func (wb *WeightBank) HeaterPower() float64 {
	total := 0.0
	for _, r := range wb.Rings {
		total += wb.Tuner.PowerForShift(r.Shift())
	}
	return total
}

// BankModel is the quantized fast path for whole-network simulation. All
// rings share the template geometry and channels are uniformly spaced, so
// the through/drop transmissions seen by channel j from ring k depend only
// on (j-k) and ring k's quantized weight level. BankModel precomputes that
// table once per precision, making per-segment crosstalk coefficients a
// handful of lookups instead of transcendental evaluations.
type BankModel struct {
	Grid WDMGrid
	Bits int

	n           int
	levels      int
	weightScale float64
	shifts      []float64 // per level, meters
	// through[l][o], drop[l][o]: transmissions of a ring programmed to
	// level l, seen by a channel offset o-(n-1) channels away.
	through [][]float64
	drop    [][]float64
	tuner   ThermalTuner
}

// NewBankModel builds the quantized transfer tables for an n-ring arm with
// b-bit signed weights. Level l in [0, 2^b-1] maps to the logical weight
// w = -1 + 2l/(2^b-1).
func NewBankModel(n, bits int) (*BankModel, error) {
	if n < 1 {
		return nil, fmt.Errorf("photonics: bank size %d < 1", n)
	}
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("photonics: weight bits %d outside [1,8]", bits)
	}
	grid := DefaultGrid(n)
	lams := grid.Wavelengths()
	center := lams[n/2]
	template := WeightBankRing(center)
	min, max := template.WeightRange(center)
	scale := math.Min(-min, max) * 0.999

	levels := 1 << uint(bits)
	bm := &BankModel{
		Grid:        grid,
		Bits:        bits,
		n:           n,
		levels:      levels,
		weightScale: scale,
		shifts:      make([]float64, levels),
		through:     make([][]float64, levels),
		drop:        make([][]float64, levels),
		tuner:       DefaultThermalTuner(),
	}
	for l := 0; l < levels; l++ {
		w := bm.LevelToWeight(l)
		shift, err := template.SolveWeight(center, w*scale)
		if err != nil {
			return nil, fmt.Errorf("photonics: level %d: %w", l, err)
		}
		bm.shifts[l] = shift
		bm.through[l] = make([]float64, 2*n-1)
		bm.drop[l] = make([]float64, 2*n-1)
		for o := -(n - 1); o <= n-1; o++ {
			lam := center + float64(o)*grid.Spacing
			bm.through[l][o+n-1] = template.ThroughTransmission(lam)
			bm.drop[l][o+n-1] = template.DropTransmission(lam)
		}
	}
	return bm, nil
}

// Size returns the arm width (number of rings / channels).
func (bm *BankModel) Size() int { return bm.n }

// Levels returns the number of quantized weight levels (2^bits).
func (bm *BankModel) Levels() int { return bm.levels }

// LevelToWeight maps a quantized level to its logical weight in [-1, 1].
func (bm *BankModel) LevelToWeight(l int) float64 {
	return -1 + 2*float64(l)/float64(bm.levels-1)
}

// WeightToLevel maps a logical weight in [-1, 1] to the nearest level.
func (bm *BankModel) WeightToLevel(w float64) int {
	if w < -1 {
		w = -1
	}
	if w > 1 {
		w = 1
	}
	l := int(math.Round((w + 1) / 2 * float64(bm.levels-1)))
	if l < 0 {
		l = 0
	}
	if l > bm.levels-1 {
		l = bm.levels - 1
	}
	return l
}

// Coefficients writes the effective per-channel differential
// coefficients (crosstalk included, normalised by the weight scale) of an
// arm whose first len(levels) rings are programmed to the given levels
// into dst, one per channel: len(levels) <= len(dst) <= the arm width.
// Remaining rings are parked far off resonance (treated as transparent),
// modelling the unused/gray MRs of Fig. 6; channels past len(dst) are not
// computed. dst is caller-owned, so programming a matrix allocates
// nothing per arm.
func (bm *BankModel) Coefficients(dst []float64, levels []int) error {
	if err := bm.checkArm(dst, levels); err != nil {
		return err
	}
	for j := range dst {
		through := 1.0
		dropped := 0.0
		for k, l := range levels {
			o := j - k + bm.n - 1
			dropped += through * bm.drop[l][o]
			through *= bm.through[l][o]
		}
		dst[j] = (through - dropped) / bm.weightScale
	}
	return nil
}

// IdealCoefficients writes the crosstalk-free coefficients into dst under
// the same shape rules as Coefficients: the exact quantized logical
// weights, and 0 for every parked channel.
func (bm *BankModel) IdealCoefficients(dst []float64, levels []int) error {
	if err := bm.checkArm(dst, levels); err != nil {
		return err
	}
	for k, l := range levels {
		dst[k] = bm.LevelToWeight(l)
	}
	clear(dst[len(levels):])
	return nil
}

// checkArm validates one arm's levels and coefficient destination.
func (bm *BankModel) checkArm(dst []float64, levels []int) error {
	if len(levels) > len(dst) || len(dst) > bm.n {
		return fmt.Errorf("photonics: %d levels into %d channels of a %d-ring arm", len(levels), len(dst), bm.n)
	}
	for _, l := range levels {
		if l < 0 || l >= bm.levels {
			return fmt.Errorf("photonics: level %d outside [0,%d]", l, bm.levels-1)
		}
	}
	return nil
}

// HeaterPower returns the tuning power needed to hold the given levels.
func (bm *BankModel) HeaterPower(levels []int) float64 {
	total := 0.0
	for _, l := range levels {
		if l >= 0 && l < bm.levels {
			total += bm.tuner.PowerForShift(bm.shifts[l])
		}
	}
	return total
}

// MeanHeaterPowerPerRing returns the tuning power averaged over all weight
// levels — the expected per-MR tuning cost for uniformly distributed
// weights, used by the energy model.
func (bm *BankModel) MeanHeaterPowerPerRing() float64 {
	total := 0.0
	for l := 0; l < bm.levels; l++ {
		total += bm.tuner.PowerForShift(bm.shifts[l])
	}
	return total / float64(bm.levels)
}
