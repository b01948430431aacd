// White-box tests of the CGNR loop behind reconstruct-cg: residual
// monotonicity, stopping-rule behavior at loose vs tight tolerances, and
// its optical pass budget.
package kernels

import (
	"math"
	"math/rand"
	"testing"

	"lightator/internal/oc"
	"lightator/internal/sensor"
)

func solverTestCore(t *testing.T, wBits, aBits int, fid oc.Fidelity) *oc.Core {
	t.Helper()
	core, err := oc.NewCore(wBits, aBits, fid)
	if err != nil {
		t.Fatal(err)
	}
	return core
}

// cgOpticalPass builds the same optical pass executor CGOp.Apply uses,
// for driving solve directly in tests.
func cgOpticalPass(o *CGOp) (passFn, func()) {
	fwd, adj := o.fwd.NewApplier(), o.adj.NewApplier()
	apply := func(pm *oc.ProgrammedMatrix, dst, in []float64, seed int64) error {
		if pm == o.fwd {
			return fwd.ApplySeededInto(dst, in, seed)
		}
		return adj.ApplySeededInto(dst, in, seed)
	}
	return apply, func() {
		fwd.Release()
		adj.Release()
	}
}

// TestCGResidualMonotone: the committed residual trace decreases
// strictly monotonically — by construction (a non-improving iterate is
// never committed), but this pins that the construction survives
// refactors — in exact arithmetic and on the noisy optical path.
func TestCGResidualMonotone(t *testing.T) {
	// A tight tolerance and a generous cap force the loop to run until the
	// no-progress rule fires, which is where monotonicity would break.
	core := solverTestCore(t, 4, 4, oc.PhysicalNoisy)
	o, err := NewReconstructCG(core, 4, 32, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	apply, release := cgOpticalPass(o)
	defer release()
	sc := o.getScratch()
	defer sc.release()
	for i, y := range []float64{1, 0.7, 0.31, 0.05} {
		var trace []float64
		if _, err := o.solve(y, sc, oc.DeriveSeed(99, i), apply, &trace); err != nil {
			t.Fatal(err)
		}
		if len(trace) < 2 {
			t.Fatalf("y=%g: no committed iterations (trace %v)", y, trace)
		}
		for j := 1; j < len(trace); j++ {
			if !(trace[j] < trace[j-1]) {
				t.Errorf("y=%g: residual trace not strictly decreasing at step %d: %v", y, j, trace)
			}
		}
	}
	// Exact arithmetic: the rank-1 system converges in exactly one
	// iteration, to zero residual.
	var trace []float64
	if _, err := o.solve(0.8, sc, 0, o.exactPass, &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[1] > 1e-12 {
		t.Errorf("exact CGNR should converge in one iteration to zero residual, trace %v", trace)
	}
}

// TestCGStoppingRule: a loose tolerance stops in fewer optical passes
// than a tight one, the loose stop actually satisfies its tolerance, and
// the iteration cap bounds the pass count when the tolerance is
// unreachable.
func TestCGStoppingRule(t *testing.T) {
	core := solverTestCore(t, 4, 4, oc.PhysicalNoisy)
	runOne := func(maxIters int, tol float64, y float64, seed int64) (passes int, trace []float64) {
		t.Helper()
		o, err := NewReconstructCG(core, 4, maxIters, tol)
		if err != nil {
			t.Fatal(err)
		}
		apply, release := cgOpticalPass(o)
		defer release()
		sc := o.getScratch()
		defer sc.release()
		passes, err = o.solve(y, sc, seed, apply, &trace)
		if err != nil {
			t.Fatal(err)
		}
		return passes, trace
	}
	const y = 0.9
	loosePasses, looseTrace := runOne(32, 0.5, y, 7)
	tightPasses, tightTrace := runOne(32, 1e-12, y, 7)
	if loosePasses >= tightPasses {
		t.Errorf("loose tolerance used %d passes, tight used %d; loose must stop earlier", loosePasses, tightPasses)
	}
	if last := looseTrace[len(looseTrace)-1]; last > 0.5*y {
		t.Errorf("loose stop at |r| = %g does not satisfy tol·|y| = %g", last, 0.5*y)
	}
	if lastT, lastL := tightTrace[len(tightTrace)-1], looseTrace[len(looseTrace)-1]; lastT > lastL {
		t.Errorf("tight tolerance finished at residual %g, worse than loose %g", lastT, lastL)
	}
	// Cap: 1 initial adjoint + per iteration at most 2 forward + 1 adjoint.
	capped, _ := runOne(2, 1e-12, y, 7)
	if max := 1 + 2*3; capped > max {
		t.Errorf("maxIters=2 ran %d passes, cap is %d", capped, max)
	}
	// Degenerate sample: y = 0 is solved exactly by x = 0, zero passes.
	if passes, _ := runOne(4, 1e-3, 0, 7); passes != 0 {
		t.Errorf("y=0 used %d optical passes, want 0", passes)
	}
}

// TestCGHalvesLandweberPasses pins reconstruct-cg's pass budget: it
// averages at most half the 24 optical passes per sample that a fixed
// 12-iteration Landweber loop spends on the same system (in practice it
// sits near 3), and it is no less accurate against the closed-form
// least-squares solution than that loop was. landweberErr is the
// Landweber loop's measured max |error| on this plane and seed (8/8 bits,
// 2 workers), rounded down, recorded when it was retired from the
// registry.
func TestCGHalvesLandweberPasses(t *testing.T) {
	const landweberPasses = 2 * 12
	for _, tc := range []struct {
		fid          oc.Fidelity
		landweberErr float64
	}{
		{oc.Ideal, 0.006358},
		{oc.Physical, 0.01906},
		{oc.PhysicalNoisy, 0.1280},
	} {
		fid := tc.fid
		core := solverTestCore(t, 8, 8, fid)
		cg, err := NewReconstructCG(core, 4, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewReconstruct(core, 4)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		plane := sensor.NewImage(12, 12, 1)
		for i := range plane.Pix {
			plane.Pix[i] = rng.Float64()
		}
		exact, err := rec.Reference(plane)
		if err != nil {
			t.Fatal(err)
		}
		cgOut, err := cg.Apply(plane, 0x5eed, 2)
		if err != nil {
			t.Fatal(err)
		}
		ce := 0.0
		for i := range cgOut.Pix {
			ce = math.Max(ce, math.Abs(cgOut.Pix[i]-exact.Pix[i]))
		}
		// Small slack for noise realizations drawn from different pass
		// streams.
		if ie := tc.landweberErr; ce > ie*1.25+1e-9 {
			t.Errorf("%v: CG error %g exceeds Landweber error %g + 25%%", fid, ce, ie)
		}
		passes, samples := cg.PassTotals()
		if samples != uint64(len(plane.Pix)) {
			t.Fatalf("%v: PassTotals samples = %d, want %d", fid, samples, len(plane.Pix))
		}
		if avg, half := float64(passes)/float64(samples), float64(landweberPasses/2); avg > half {
			t.Errorf("%v: CG averaged %.2f optical passes per sample, acceptance bound is %.0f (half of Landweber's %d)",
				fid, avg, half, landweberPasses)
		}
	}
}
