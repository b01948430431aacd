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
// sample. "reconstruct-cg" (cg.go) reaches the same solution by CGNR
// iteration with alternating optical forward and adjoint passes.
package kernels

import (
	"fmt"

	"lightator/internal/oc"
)

// caGeometry derives the per-window CA quantities every reconstruction
// kernel needs: the weight row, its Gram factor ‖w‖² and its largest
// entry.
func caGeometry(poolN int) (w []float64, gram, wmax float64, err error) {
	w, err = oc.CAWeightsBayer(poolN)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, v := range w {
		gram += v * v
		if v > wmax {
			wmax = v
		}
	}
	return w, gram, wmax, nil
}

// NewReconstruct builds the closed-form least-squares reconstruction
// kernel for an accelerator whose CA pools N x N windows: each compressed
// sample expands into its N x N block x̂ = w y / ‖w‖², programmed as an
// (N² x 1) operator with the Gram division applied digitally.
func NewReconstruct(core *oc.Core, poolN int) (Kernel, error) {
	w, gram, _, err := caGeometry(poolN)
	if err != nil {
		return nil, err
	}
	op := make([][]float64, len(w))
	for i, v := range w {
		op[i] = []float64{v}
	}
	return NewLinOp(core, "reconstruct",
		fmt.Sprintf("least-squares reconstruction: each compressed sample expands to its %dx%d block via the CA adjoint over the Gram factor", poolN, poolN),
		op, 1, 1, 0, poolN, 1/gram)
}
