package photonics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRingResonanceCondition(t *testing.T) {
	r := DefaultRing()
	lam := CBandCenter
	m := r.ResonantOrder(lam)
	res := r.ResonantWavelength(m)
	// lambda_res = neff*L/m must hold exactly.
	want := r.Neff * r.Circumference() / float64(m)
	if math.Abs(res-want) > 1e-18 {
		t.Fatalf("resonant wavelength %g != neff*L/m %g", res, want)
	}
	// And it must be within one FSR of the request.
	if math.Abs(res-lam) > r.FSR(lam) {
		t.Fatalf("nearest resonance %g more than one FSR from %g", res, lam)
	}
}

func TestRingAlignTo(t *testing.T) {
	r := DefaultRing()
	r.AlignTo(CBandCenter)
	res := r.NearestResonance(CBandCenter)
	if math.Abs(res-CBandCenter) > 1e-15 {
		t.Fatalf("aligned ring resonance %g, want %g", res, CBandCenter)
	}
}

func TestThroughDipAtResonance(t *testing.T) {
	r := WeightBankRing(CBandCenter)
	onRes := r.ThroughTransmission(CBandCenter)
	off := r.ThroughTransmission(CBandCenter + r.FSR(CBandCenter)/2)
	if onRes >= off {
		t.Fatalf("through transmission should dip at resonance: on=%g off=%g", onRes, off)
	}
	if onRes > 0.01 {
		t.Errorf("on-resonance through transmission %g, want < 0.01 (deep extinction)", onRes)
	}
	if off < 0.95 {
		t.Errorf("off-resonance through transmission %g, want > 0.95", off)
	}
}

func TestDropPeakAtResonance(t *testing.T) {
	r := WeightBankRing(CBandCenter)
	onRes := r.DropTransmission(CBandCenter)
	off := r.DropTransmission(CBandCenter + r.FSR(CBandCenter)/2)
	if onRes <= off {
		t.Fatalf("drop transmission should peak at resonance: on=%g off=%g", onRes, off)
	}
	if onRes < 0.9 {
		t.Errorf("on-resonance drop transmission %g, want > 0.9", onRes)
	}
}

// Property: passive device — through + drop never exceeds unity at any
// wavelength or tuning.
func TestEnergyConservationProperty(t *testing.T) {
	r := WeightBankRing(CBandCenter)
	f := func(detuneFrac, shiftFrac float64) bool {
		fsr := r.FSR(CBandCenter)
		r.Tune(math.Mod(math.Abs(shiftFrac), 1) * fsr / 2)
		lam := CBandCenter + math.Mod(detuneFrac, 1)*fsr
		sum := r.ThroughTransmission(lam) + r.DropTransmission(lam)
		return sum <= 1.0+1e-9 && sum >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	r.Tune(0)
}

func TestFSRFormula(t *testing.T) {
	r := WeightBankRing(CBandCenter)
	fsr := r.FSR(CBandCenter)
	// Locate two adjacent through-port minima numerically and compare.
	res1 := r.NearestResonance(CBandCenter)
	m := r.ResonantOrder(CBandCenter)
	res2 := r.ResonantWavelength(m - 1) // next order up in wavelength
	gap := res2 - res1
	if gap <= 0 {
		t.Fatalf("resonance order spacing not positive: %g", gap)
	}
	// The analytic FSR uses the group index; the order spacing uses neff.
	// They agree within the dispersion ratio neff/ng.
	ratio := gap / fsr
	want := r.NGroup / r.Neff
	if math.Abs(ratio/want-1) > 0.05 {
		t.Errorf("FSR ratio %g, want about %g", ratio, want)
	}
}

func TestQFactorAndFWHMConsistency(t *testing.T) {
	r := WeightBankRing(CBandCenter)
	fwhm := r.FWHM(CBandCenter)
	q := r.QFactor(CBandCenter)
	if math.Abs(q-CBandCenter/fwhm) > 1e-6*q {
		t.Fatalf("Q %g inconsistent with lam/FWHM %g", q, CBandCenter/fwhm)
	}
	if q < 1000 || q > 50000 {
		t.Errorf("weight-bank ring Q = %g, want a realistic 1e3-5e4", q)
	}
	// Verify FWHM against the numerically measured half-max width of the
	// drop resonance.
	peak := r.DropTransmission(CBandCenter)
	half := peak / 2
	// scan outward for the half-max crossing
	var hwhm float64
	for d := 0.0; d < r.FSR(CBandCenter)/2; d += fwhm / 400 {
		if r.DropTransmission(CBandCenter+d) < half {
			hwhm = d
			break
		}
	}
	if hwhm == 0 {
		t.Fatal("no half-max crossing found")
	}
	measured := 2 * hwhm
	if math.Abs(measured/fwhm-1) > 0.1 {
		t.Errorf("measured FWHM %g vs analytic %g (>10%% off)", measured, fwhm)
	}
}

func TestTuneShiftsResonance(t *testing.T) {
	r := WeightBankRing(CBandCenter)
	shift := 0.5e-9
	r.Tune(shift)
	res := r.NearestResonance(CBandCenter)
	if math.Abs(res-(CBandCenter+shift)) > 1e-15 {
		t.Fatalf("tuned resonance %g, want %g", res, CBandCenter+shift)
	}
	// Tuning is absolute, not cumulative.
	r.Tune(shift)
	if math.Abs(r.Shift()-shift) > 1e-18 {
		t.Fatalf("shift accumulated: %g", r.Shift())
	}
}

func TestWeightRangeSigns(t *testing.T) {
	r := WeightBankRing(CBandCenter)
	min, max := r.WeightRange(CBandCenter)
	if min >= 0 {
		t.Errorf("min weight %g, want negative (on-resonance drop dominates)", min)
	}
	if max <= 0.9 {
		t.Errorf("max weight %g, want > 0.9 (off-resonance through dominates)", max)
	}
}

func TestSolveWeightRoundTrip(t *testing.T) {
	r := WeightBankRing(CBandCenter)
	min, max := r.WeightRange(CBandCenter)
	for _, frac := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		want := min + (max-min)*frac
		if _, err := r.SolveWeight(CBandCenter, want); err != nil {
			t.Fatalf("SolveWeight(%g): %v", want, err)
		}
		got := r.ThroughTransmission(CBandCenter) - r.DropTransmission(CBandCenter)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("solved weight %g, want %g", got, want)
		}
	}
}

// Property: SolveWeight converges for any weight inside the realisable
// range, to tight tolerance.
func TestSolveWeightProperty(t *testing.T) {
	r := WeightBankRing(CBandCenter)
	min, max := r.WeightRange(CBandCenter)
	f := func(u float64) bool {
		frac := math.Mod(math.Abs(u), 1)
		want := min + (max-min)*frac
		if _, err := r.SolveWeight(CBandCenter, want); err != nil {
			return false
		}
		got := r.ThroughTransmission(CBandCenter) - r.DropTransmission(CBandCenter)
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveWeightOutOfRange(t *testing.T) {
	r := WeightBankRing(CBandCenter)
	if _, err := r.SolveWeight(CBandCenter, 1.5); err == nil {
		t.Fatal("expected range error for weight 1.5")
	}
	if _, err := r.SolveWeight(CBandCenter, -1.5); err == nil {
		t.Fatal("expected range error for weight -1.5")
	}
}

func TestSpectrumShape(t *testing.T) {
	r := WeightBankRing(CBandCenter)
	fsr := r.FSR(CBandCenter)
	pts := r.Spectrum(CBandCenter-fsr/4, CBandCenter+fsr/4, 401)
	if len(pts) != 401 {
		t.Fatalf("got %d points", len(pts))
	}
	// Find minimum through transmission; it must sit near center.
	minI := 0
	for i, p := range pts {
		if p.Through < pts[minI].Through {
			minI = i
		}
	}
	center := pts[minI].Wavelength
	if math.Abs(center-CBandCenter) > fsr/100 {
		t.Errorf("through dip at %g, want near %g", center, CBandCenter)
	}
}

func TestDB2LinearRoundTrip(t *testing.T) {
	for _, db := range []float64{-30, -3, 0, 3, 10} {
		lin := DB2Linear(db)
		if math.Abs(Linear2DB(lin)-db) > 1e-9 {
			t.Errorf("dB %g round-trips to %g", db, Linear2DB(lin))
		}
	}
}
