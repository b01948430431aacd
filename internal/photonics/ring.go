package photonics

import (
	"fmt"
	"math"
)

// Ring models an add-drop microring resonator (MR), the fundamental weight
// element of Lightator's optical core (paper Fig. 1). Light entering the
// input port couples into the ring in the coupling region; on resonance the
// power exits mostly at the drop port, off resonance mostly at the through
// port. A phase shifter (microheater) moves the resonant wavelength
// lambda_res = neff * L / m, which is how a weight value is "imprinted" on
// the transmitted signal.
//
// The transfer functions are the textbook add-drop expressions (Bogaerts
// 2012): with self-coupling coefficients t1 (input bus) and t2 (drop bus),
// single-pass amplitude transmission a, and round-trip phase phi,
//
//	T_through = (t2^2 a^2 - 2 t1 t2 a cos(phi) + t1^2) / D
//	T_drop    = ((1-t1^2)(1-t2^2) a) / D
//	D         = 1 - 2 t1 t2 a cos(phi) + (t1 t2 a)^2
type Ring struct {
	// Radius of the ring, meters.
	Radius float64
	// Neff is the effective refractive index of the ring waveguide.
	Neff float64
	// NGroup is the group index; it sets the free spectral range.
	NGroup float64
	// SelfCoupling1 (t1) is the through-amplitude coefficient of the input
	// bus coupler. Power coupling kappa^2 = 1 - t1^2.
	SelfCoupling1 float64
	// SelfCoupling2 (t2) is the through-amplitude coefficient of the drop
	// bus coupler.
	SelfCoupling2 float64
	// LossDBPerCm is the propagation loss of the ring waveguide in dB/cm.
	LossDBPerCm float64
	// MaxWeightDetune caps the detuning SolveWeight may apply, meters.
	// Weight banks must keep rings well inside their own WDM channel: a
	// ring detuned past half the channel spacing would sit on a
	// neighbouring channel and destroy it. Zero means no cap (FSR/2).
	MaxWeightDetune float64

	// shift is the current thermo-optic resonance shift in meters of
	// wavelength, applied by Tune.
	shift float64
}

// DefaultRing returns an MR with parameters representative of the
// fabricated devices used by the paper: 5 um radius, moderately
// over-coupled so the through-port extinction is deep enough to imprint
// 4-bit weights, and 2 dB/cm propagation loss.
func DefaultRing() *Ring {
	return &Ring{
		Radius:        5e-6,
		Neff:          DefaultNeff,
		NGroup:        DefaultNGroup,
		SelfCoupling1: 0.87,
		SelfCoupling2: 0.87,
		LossDBPerCm:   2.0,
	}
}

// WeightBankRing returns a ring suited to dense WDM weight banks: 3 um
// radius so the FSR (~30 nm) clears the 9-channel x 2 nm arm span with
// margin, 0.99 self-coupling on both buses so the resonance is narrow
// (Q ~ 8000, FWHM ~ 0.2 nm), and the weight detuning capped at half the
// 2 nm channel spacing so a programmed ring never wanders onto a
// neighbouring channel. Together these keep inter-channel crosstalk at
// the few-percent level, comparable to a 4-bit weight step. Aligned to
// wavelength lam.
func WeightBankRing(lam float64) *Ring {
	r := DefaultRing()
	r.Radius = 3e-6
	r.SelfCoupling1 = 0.99
	r.SelfCoupling2 = 0.99
	r.MaxWeightDetune = 1e-9
	r.AlignTo(lam)
	return r
}

// AlignTo snaps the ring's effective index so an untuned resonance lands
// exactly at wavelength lam, and clears any tuning shift.
func (r *Ring) AlignTo(lam float64) {
	m := r.ResonantOrder(lam)
	if m < 1 {
		m = 1
	}
	r.Neff = float64(m) * lam / r.Circumference()
	r.shift = 0
}

// Circumference returns the ring's round-trip length L in meters.
func (r *Ring) Circumference() float64 {
	return 2 * math.Pi * r.Radius
}

// amplitudeTransmission returns the single-pass amplitude factor a,
// derived from the propagation loss: a = 10^(-alpha_dB * L / 20).
func (r *Ring) amplitudeTransmission() float64 {
	lossDB := r.LossDBPerCm * r.Circumference() * 100 // circumference in cm
	return math.Pow(10, -lossDB/20)
}

// ResonantOrder returns the resonance order m closest to wavelength lam:
// m = round(neff * L / lam).
func (r *Ring) ResonantOrder(lam float64) int {
	return int(math.Round(r.Neff * r.Circumference() / lam))
}

// ResonantWavelength returns lambda_res = neff*L/m for resonance order m,
// including the current tuning shift.
func (r *Ring) ResonantWavelength(m int) float64 {
	if m <= 0 {
		return math.NaN()
	}
	return r.Neff*r.Circumference()/float64(m) + r.shift
}

// NearestResonance returns the resonant wavelength closest to lam,
// including the current tuning shift.
func (r *Ring) NearestResonance(lam float64) float64 {
	m := r.ResonantOrder(lam - r.shift)
	return r.ResonantWavelength(m)
}

// FSR returns the free spectral range at wavelength lam in meters:
// FSR = lam^2 / (n_g * L).
func (r *Ring) FSR(lam float64) float64 {
	return lam * lam / (r.NGroup * r.Circumference())
}

// roundTripPhase returns the round-trip phase at wavelength lam, measured
// relative to the nearest (tuned) resonance so that phi = 2*pi*k exactly on
// resonance. Using the group index for the local dispersion slope keeps the
// FSR physical.
func (r *Ring) roundTripPhase(lam float64) float64 {
	res := r.NearestResonance(lam)
	// Detuning in wavelength converts to phase via the FSR: one FSR of
	// detuning is 2*pi of round-trip phase.
	return 2 * math.Pi * (lam - res) / r.FSR(lam)
}

// ThroughTransmission returns the power transmission from input to through
// port at wavelength lam, in [0,1].
func (r *Ring) ThroughTransmission(lam float64) float64 {
	t1, t2 := r.SelfCoupling1, r.SelfCoupling2
	a := r.amplitudeTransmission()
	phi := r.roundTripPhase(lam)
	cos := math.Cos(phi)
	den := 1 - 2*t1*t2*a*cos + (t1*t2*a)*(t1*t2*a)
	num := t2*t2*a*a - 2*t1*t2*a*cos + t1*t1
	return num / den
}

// DropTransmission returns the power transmission from input to drop port
// at wavelength lam, in [0,1].
func (r *Ring) DropTransmission(lam float64) float64 {
	t1, t2 := r.SelfCoupling1, r.SelfCoupling2
	a := r.amplitudeTransmission()
	phi := r.roundTripPhase(lam)
	cos := math.Cos(phi)
	den := 1 - 2*t1*t2*a*cos + (t1*t2*a)*(t1*t2*a)
	num := (1 - t1*t1) * (1 - t2*t2) * a
	return num / den
}

// FWHM returns the full width at half maximum of the drop-port resonance
// at wavelength lam, in meters: FWHM = (1 - t1 t2 a) * lam^2 /
// (pi * n_g * L * sqrt(t1 t2 a)).
func (r *Ring) FWHM(lam float64) float64 {
	t1, t2 := r.SelfCoupling1, r.SelfCoupling2
	a := r.amplitudeTransmission()
	x := t1 * t2 * a
	return (1 - x) * lam * lam / (math.Pi * r.NGroup * r.Circumference() * math.Sqrt(x))
}

// QFactor returns the loaded quality factor lam/FWHM.
func (r *Ring) QFactor(lam float64) float64 {
	return lam / r.FWHM(lam)
}

// Tune applies a thermo-optic resonance shift of dLambda meters. Positive
// shifts move the resonance to longer wavelengths (heating). Tuning is
// absolute: calling Tune twice replaces the shift rather than accumulating.
func (r *Ring) Tune(dLambda float64) {
	r.shift = dLambda
}

// Shift returns the currently applied resonance shift in meters.
func (r *Ring) Shift() float64 {
	return r.shift
}

// ThermalTuner converts resonance shifts into heater power, modelling the
// microheater/PIN tuning mechanism referenced in the paper. The efficiency
// is expressed in nm of resonance shift per mW of heater power, a standard
// figure of merit for silicon MR heaters.
type ThermalTuner struct {
	// NmPerMW is the tuning efficiency (nm shift per mW heater power).
	// Typical silicon microheaters achieve 0.1-0.4 nm/mW.
	NmPerMW float64
	// SettleTime is the thermal time constant: how long the ring takes to
	// reach a newly programmed resonance, seconds. Thermal tuning is slow
	// (microseconds); this is what makes weight re-mapping the latency
	// bottleneck for large models (see internal/arch).
	SettleTime float64
	// MaxShiftNm bounds the achievable shift (heater power budget).
	MaxShiftNm float64
}

// DefaultThermalTuner returns tuning parameters representative of
// thermally isolated (undercut/trenched) silicon microheaters, the kind
// edge-targeted designs need for their power budget: 7.5 nm/mW efficiency
// and a 4 us thermal settle. With weight detunings capped at 1 nm, the
// mean hold power lands near 50 uW per MR — the TUN slice of the paper's
// power breakdowns.
func DefaultThermalTuner() ThermalTuner {
	return ThermalTuner{NmPerMW: 7.5, SettleTime: 4e-6, MaxShiftNm: 1.2}
}

// PowerForShift returns the heater power in watts needed to hold a
// resonance shift of dLambda meters.
func (t ThermalTuner) PowerForShift(dLambda float64) float64 {
	nm := math.Abs(dLambda) * 1e9
	if t.NmPerMW <= 0 {
		return 0
	}
	return nm / t.NmPerMW * 1e-3
}

// ErrWeightRange is returned by SolveWeight when the requested weight is
// outside the range the ring can realise.
type ErrWeightRange struct {
	Want     float64
	Min, Max float64
}

func (e ErrWeightRange) Error() string {
	return fmt.Sprintf("photonics: weight %.4f outside realisable range [%.4f, %.4f]", e.Want, e.Min, e.Max)
}

// maxDetune returns the largest detuning SolveWeight may apply.
func (r *Ring) maxDetune(lam float64) float64 {
	hi := r.FSR(lam) / 2
	if r.MaxWeightDetune > 0 && r.MaxWeightDetune < hi {
		hi = r.MaxWeightDetune
	}
	return hi
}

// WeightRange returns the (min, max) differential weight the ring can
// imprint at wavelength lam using balanced detection, where the effective
// weight is d = T_through - T_drop. On resonance d is most negative; at
// the maximum allowed detuning it is most positive.
func (r *Ring) WeightRange(lam float64) (min, max float64) {
	saved := r.shift
	defer func() { r.shift = saved }()
	r.shift = 0
	res := r.NearestResonance(lam)
	min = r.ThroughTransmission(res) - r.DropTransmission(res)
	far := res + r.maxDetune(lam)
	max = r.ThroughTransmission(far) - r.DropTransmission(far)
	return min, max
}

// SolveWeight finds the detuning (resonance shift) that makes the ring
// imprint the differential weight w = T_through - T_drop at wavelength lam,
// and applies it with Tune. The weight is monotonically increasing in
// |detuning| over half an FSR, so a bisection search suffices. Returns the
// applied shift in meters.
func (r *Ring) SolveWeight(lam float64, w float64) (float64, error) {
	min, max := r.WeightRange(lam)
	if w < min || w > max {
		return 0, ErrWeightRange{Want: w, Min: min, Max: max}
	}
	// Bisection over shift in [0, maxDetune]. Shifting the resonance away
	// from lam increases d monotonically. The baseline shift "base" places
	// the resonance exactly at lam for s=0, so d(0) = min and
	// d(maxDetune) = max.
	base := lam - r.nearestResonanceUntuned(lam)
	lo, hi := 0.0, r.maxDetune(lam)
	eval := func(s float64) float64 {
		r.shift = base + s
		return r.ThroughTransmission(lam) - r.DropTransmission(lam)
	}
	for i := 0; i < 64; i++ {
		mid := 0.5 * (lo + hi)
		if eval(mid) < w {
			lo = mid
		} else {
			hi = mid
		}
	}
	shift := base + 0.5*(lo+hi)
	r.shift = shift
	return shift, nil
}

// nearestResonanceUntuned returns the closest resonance ignoring the
// current tuning shift.
func (r *Ring) nearestResonanceUntuned(lam float64) float64 {
	m := r.ResonantOrder(lam)
	return r.Neff * r.Circumference() / float64(m)
}

// Spectrum samples the through- and drop-port transmission over
// [lam0, lam1] with n points. Used to regenerate Fig. 1.
type SpectrumPoint struct {
	Wavelength float64
	Through    float64
	Drop       float64
}

// Spectrum returns n samples of the ring's transfer function across the
// given wavelength range.
func (r *Ring) Spectrum(lam0, lam1 float64, n int) []SpectrumPoint {
	if n < 2 {
		n = 2
	}
	out := make([]SpectrumPoint, n)
	for i := 0; i < n; i++ {
		lam := lam0 + (lam1-lam0)*float64(i)/float64(n-1)
		out[i] = SpectrumPoint{
			Wavelength: lam,
			Through:    r.ThroughTransmission(lam),
			Drop:       r.DropTransmission(lam),
		}
	}
	return out
}
