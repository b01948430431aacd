//go:build !race

// Steady-state allocation pins for the MVM hot path. The race detector
// instruments allocations, so these run only in the plain test pass
// (CI runs them as their own non-race step); the -benchmem benchmarks
// report the same contract.
package oc

import "testing"

// TestApplySeededIntoAllocFree pins the headline contract of the flat
// layout + scratch arena: a warmed-up ApplySeededInto performs zero heap
// allocations per call, in Ideal and in PhysicalNoisy fidelity (pooled,
// re-seeded noise sources).
func TestApplySeededIntoAllocFree(t *testing.T) {
	for _, fid := range []Fidelity{Ideal, PhysicalNoisy} {
		pm := poolTestMatrix(t, 16, 23, fid)
		x := poolTestVector(23, 7)
		y := make([]float64, pm.Rows())
		if err := pm.ApplySeededInto(y, x, 1); err != nil { // warm the pools
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			i++
			if err := pm.ApplySeededInto(y, x, DeriveSeed(1, i)); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: ApplySeededInto allocates %.2f/op, want 0", fid, allocs)
		}

		ap := pm.NewApplier()
		allocs = testing.AllocsPerRun(100, func() {
			i++
			if err := ap.ApplySeededInto(y, x, DeriveSeed(1, i)); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: Applier.ApplySeededInto allocates %.2f/op, want 0", fid, allocs)
		}
	}
}
