package kernels_test

import (
	"fmt"
	"testing"

	"lightator/internal/kernels"
	"lightator/internal/oc"
	"lightator/internal/sensor"
)

// reconSolvers is the cross-solver equivalence set: names that must all
// compute the same least-squares reconstruction x̂ = wy/‖w‖² (the alias
// reconstruct-direct resolves to reconstruct).
var reconSolvers = []string{"reconstruct", "reconstruct-direct", "reconstruct-cg"}

// recompressCA applies the CA sensing matrix Φ to a reconstructed plane:
// one weight row w per disjoint pool x pool block. Used to check the
// defining least-squares property Φ x̂ = y.
func recompressCA(t *testing.T, x *sensor.Image, pool int) *sensor.Image {
	t.Helper()
	w, err := oc.CAWeightsBayer(pool)
	if err != nil {
		t.Fatal(err)
	}
	out := sensor.NewImage(x.H/pool, x.W/pool, 1)
	for oy := 0; oy < out.H; oy++ {
		for ox := 0; ox < out.W; ox++ {
			sum, i := 0.0, 0
			for dy := 0; dy < pool; dy++ {
				for dx := 0; dx < pool; dx++ {
					sum += w[i] * x.Pix[(oy*pool+dy)*x.W+ox*pool+dx]
					i++
				}
			}
			out.Pix[oy*out.W+ox] = sum
		}
	}
	return out
}

// TestCrossSolverEquivalence is the tentpole property suite: the
// reconstruction solvers — closed-form and CGNR — compute the same
// least-squares solution. On randomized
// planes with real CA provenance, across CAPool ∈ {4, 8, 16}, all three
// fidelities and multiple worker counts:
//
//  1. the exact references agree pairwise to float precision,
//  2. the reference satisfies Φ x̂ = y to float precision,
//  3. every solver's optical output matches the shared exact solution
//     within the per-fidelity tolerance (which also bounds pairwise
//     optical cross-solver disagreement by twice the tolerance),
//  4. every optical output satisfies the re-compression property
//     Φ x̂ = y within the per-fidelity tolerance.
func TestCrossSolverEquivalence(t *testing.T) {
	// Bounds sit 1.5–2x above the measured worst-case optical-vs-exact
	// error at 8/8 bits (quantization only in Ideal; analog transfer and
	// seeded noise stack on top in the physical fidelities; the noisy
	// bound was set for a 24-pass Landweber loop, whose passes accumulated
	// to ~0.13).
	fidTol := []struct {
		fid oc.Fidelity
		tol float64
	}{
		{oc.Ideal, 0.02},
		{oc.Physical, 0.06},
		{oc.PhysicalNoisy, 0.2},
	}
	for _, ft := range fidTol {
		core := newCore(t, 8, 8, ft.fid)
		for _, pool := range []int{4, 8, 16} {
			t.Run(fmt.Sprintf("%v/pool%d", ft.fid, pool), func(t *testing.T) {
				eng, err := kernels.NewEngine(core, pool)
				if err != nil {
					t.Fatal(err)
				}
				plane := caPlane(t, core, 48, 48, pool, int64(9000+pool))

				// (1) + (2): the exact references all solve the same system.
				refs := make(map[string]*sensor.Image, len(reconSolvers))
				for _, name := range reconSolvers {
					k, err := eng.Kernel(name)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := k.Reference(plane)
					if err != nil {
						t.Fatalf("%s reference: %v", name, err)
					}
					refs[name] = ref
				}
				base := refs[reconSolvers[0]]
				for _, name := range reconSolvers[1:] {
					if d := maxAbsDiff(t, refs[name], base); d > 1e-9 {
						t.Errorf("references diverge: %s vs %s max |diff| = %g > 1e-9",
							name, reconSolvers[0], d)
					}
				}
				if d := maxAbsDiff(t, recompressCA(t, base, pool), plane); d > 1e-9 {
					t.Errorf("reference violates Φx̂ = y: max |diff| = %g > 1e-9", d)
				}

				// (3) + (4): the optical paths agree with the shared exact
				// solution and keep the least-squares property, at every
				// worker count.
				for _, workers := range []int{1, 4} {
					for _, name := range reconSolvers {
						k, err := eng.Kernel(name)
						if err != nil {
							t.Fatal(err)
						}
						got, err := k.Apply(plane, 0x5eed, workers)
						if err != nil {
							t.Fatalf("%s workers=%d: %v", name, workers, err)
						}
						if d := maxAbsDiff(t, got, refs[name]); d > ft.tol {
							t.Errorf("%s workers=%d: optical vs exact max |diff| = %g > %g",
								name, workers, d, ft.tol)
						}
						if d := maxAbsDiff(t, recompressCA(t, got, pool), plane); d > ft.tol {
							t.Errorf("%s workers=%d: Φx̂ vs y max |diff| = %g > %g",
								name, workers, d, ft.tol)
						}
					}
				}
			})
		}
	}
}
