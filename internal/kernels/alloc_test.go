//go:build !race

// Steady-state allocation pin for the iterative solver loop, in the
// spirit of internal/oc/alloc_test.go: once the scratch arena and the
// Applier pools are warm, solving one compressed sample allocates
// nothing, in Ideal and PhysicalNoisy fidelity. (The single-pass
// kernels' per-window path is LinOp.Apply over Applier.ApplySeededInto,
// whose zero-alloc contract is pinned in internal/oc.) The race detector
// instruments allocations, so this runs only in the plain test pass.
package kernels

import (
	"testing"

	"lightator/internal/oc"
)

func solverAllocCore(t *testing.T, fid oc.Fidelity) *oc.Core {
	t.Helper()
	core, err := oc.NewCore(4, 4, fid)
	if err != nil {
		t.Fatal(err)
	}
	return core
}

// TestCGSolveAllocFree pins the reconstruct-cg steady state: a warmed-up
// CGNR solve performs zero heap allocations per sample.
func TestCGSolveAllocFree(t *testing.T) {
	for _, fid := range []oc.Fidelity{oc.Ideal, oc.PhysicalNoisy} {
		o, err := NewReconstructCG(solverAllocCore(t, fid), 4, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		apply, release := cgOpticalPass(o)
		defer release()
		sc := o.getScratch()
		defer sc.release()
		if _, err := o.solve(0.7, sc, 1, apply, nil); err != nil { // warm the pools
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			i++
			if _, err := o.solve(0.7, sc, oc.DeriveSeed(1, i), apply, nil); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: CGNR solve allocates %.2f/sample, want 0", fid, allocs)
		}
	}
}
