// Compressed-domain reconstruction: inverting the Compressive
// Acquisitor's sensing matrix per measurement.
//
// The CA compresses each N x N Bayer window with one weight row w
// (oc.CAWeightsBayer), so the sensing matrix Φ is block-diagonal with w
// on every block and the least-squares minimum-norm inverse factors per
// window:
//
//	x̂ = Φᵀ (Φ Φᵀ)⁻¹ y  =  w y / ‖w‖²       (per window, since ΦΦᵀ = ‖w‖² I)
//
// "reconstruct" programs that closed form — the adjoint column w over
// the Gram factor — as a (N² x 1) LinOp: one optical pass per compressed
// sample. Since ΦΦᵀ is diagonal that pass is the exact least-squares
// solve, so no iterative solver gets closer; the solver names served on
// the wire are aliases of it (engine.go).
package kernels

import (
	"fmt"

	"lightator/internal/oc"
)

// NewReconstruct builds the closed-form least-squares reconstruction
// kernel for an accelerator whose CA pools N x N windows: each compressed
// sample expands into its N x N block x̂ = w y / ‖w‖², programmed as an
// (N² x 1) operator with the Gram division applied digitally.
func NewReconstruct(core *oc.Core, poolN int) (Kernel, error) {
	w, err := oc.CAWeightsBayer(poolN)
	if err != nil {
		return nil, err
	}
	gram := 0.0
	op := make([][]float64, len(w))
	for i, v := range w {
		gram += v * v
		op[i] = []float64{v}
	}
	return NewLinOp(core, "reconstruct",
		fmt.Sprintf("least-squares reconstruction: each compressed sample expands to its %dx%d block via the CA adjoint over the Gram factor", poolN, poolN),
		op, 1, 1, 0, poolN, 1/gram)
}
