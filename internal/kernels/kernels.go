// Package kernels is Lightator's compressed-domain image-processing
// subsystem: the layer that makes the paper's "versatile image
// processing" claim concrete. Every kernel is a matrix operator composed
// with the Compressive Acquisitor's sensing matrix — it consumes the CA
// measurement plane directly, never a reconstructed frame — and executes
// through the optical core's MVM path (oc.ProgrammedMatrix), so kernels
// inherit the analog fidelity model, the per-window seeded determinism of
// CompressSeeded, and the batch sharding of MatVecBatch.
//
// Two operator shapes cover the built-in kernels:
//
//   - Windowed linear operators (LinOp): a small matrix programmed once
//     onto the MR banks and streamed over sliding windows of the
//     compressed plane — edge detection, denoising, 2x downsampling,
//     arbitrary block convolution, and closed-form least-squares
//     reconstruction (the adjoint of the CA matrix over its Gram factor).
//
//   - Iterative operators (CGOp): conjugate-gradient reconstruction,
//     which alternates optical applications of the CA forward matrix and
//     its adjoint, accumulating digitally between passes.
//
// Determinism contract: Apply(plane, seed, workers) is bit-identical for
// any worker count and any interleaving — window j of the output draws
// its noise from oc.DeriveSeed(seed, j), never from shared state. See
// docs/KERNELS.md for the math and the serving integration.
package kernels

import (
	"fmt"

	"lightator/internal/oc"
	"lightator/internal/sensor"
	"lightator/internal/trace"
)

// Kernel is one compressed-domain operator. Implementations must be safe
// for concurrent use after construction (the programmed MR banks are
// immutable) and must honour the package determinism contract.
type Kernel interface {
	// Name is the registry key (and the /v1/process "kernel" field).
	Name() string
	// Description is a one-line human-readable summary.
	Description() string
	// OutDims returns the output plane dimensions for an h x w compressed
	// plane, or an error when the plane is too small for the operator.
	OutDims(h, w int) (int, int, error)
	// Apply runs the operator through the optical core. The input is a
	// single-channel compressed plane with values in [0, 1]; the output
	// plane holds raw operator results, which may lie outside [0, 1]
	// (e.g. signed edge responses). Window j draws its noise from
	// oc.DeriveSeed(seed, j), so the result is bit-identical for any
	// worker count.
	Apply(plane *sensor.Image, seed int64, workers int) (*sensor.Image, error)
	// Reference computes the same operator in exact float arithmetic (no
	// quantization, no analog effects) for verification.
	Reference(plane *sensor.Image) (*sensor.Image, error)
	// Ops returns the modeled analog op counts of one Apply over an
	// h x w compressed plane — the observability layer's per-request
	// accounting (see internal/trace). Derived from the programmed
	// geometry, never measured, so it is cheap and exact.
	Ops(h, w int) (trace.OpCounts, error)
}

// LinOp is a windowed linear operator: a (block² x k²) matrix applied to
// every k x k window of the compressed plane with the given stride and
// zero padding. Each window produces block x block output samples laid
// out as a block, so block == 1 is an ordinary convolution and block == N
// expands every input sample into an N x N patch (reconstruction).
type LinOp struct {
	name   string
	desc   string
	k      int // window side
	stride int
	pad    int // zero padding on each input edge
	block  int // output block side per window

	// op is the exact real-valued operator (block² rows x k² columns,
	// window-row-major); Reference uses it directly.
	op [][]float64
	// post is the caller's exact digital post-scale (Reference applies
	// exactly this); scale additionally folds in the [-1,1] normalisation
	// factor the MR banks required and is applied to optical readouts.
	post  float64
	scale float64
	pm    *oc.ProgrammedMatrix
}

// NewLinOp programs a windowed linear operator onto the core. op must
// have block² rows of k² columns. The programmed matrix is always
// normalised so its largest magnitude sits at full scale (±1) and the
// factor is restored digitally — the standard split between the analog
// MVM and the digital readout chain, which both admits entries outside
// [-1,1] and keeps small-entry operators (e.g. the CA adjoint, whose
// weights shrink as 1/N²) from drowning in weight quantization.
// postScale is an additional exact digital factor (1 for plain
// convolutions).
func NewLinOp(core *oc.Core, name, desc string, op [][]float64, k, stride, pad, block int, postScale float64) (*LinOp, error) {
	if k < 1 || stride < 1 || pad < 0 || block < 1 {
		return nil, fmt.Errorf("kernels: %s: invalid geometry k=%d stride=%d pad=%d block=%d", name, k, stride, pad, block)
	}
	if len(op) != block*block {
		return nil, fmt.Errorf("kernels: %s: operator has %d rows, want block²=%d", name, len(op), block*block)
	}
	maxAbs := 0.0
	for r, row := range op {
		if len(row) != k*k {
			return nil, fmt.Errorf("kernels: %s: operator row %d has %d columns, want k²=%d", name, r, len(row), k*k)
		}
		for _, v := range row {
			if v < -maxAbs || v > maxAbs {
				if v < 0 {
					maxAbs = -v
				} else {
					maxAbs = v
				}
			}
		}
	}
	if maxAbs == 0 {
		return nil, fmt.Errorf("kernels: %s: all-zero operator", name)
	}
	programmed := make([][]float64, len(op))
	for r, row := range op {
		programmed[r] = make([]float64, len(row))
		for c, v := range row {
			programmed[r][c] = v / maxAbs
		}
	}
	scale := postScale * maxAbs
	pm, err := core.Program(programmed)
	if err != nil {
		return nil, fmt.Errorf("kernels: %s: %w", name, err)
	}
	// Each kernel's programmed bank is a health component: fault plans
	// target it as "kernel:<name>" and its ABFT/recovery counters surface
	// under that label.
	pm.SetLabel("kernel:" + name)
	return &LinOp{
		name: name, desc: desc,
		k: k, stride: stride, pad: pad, block: block,
		op: op, post: postScale, scale: scale, pm: pm,
	}, nil
}

// Name implements Kernel.
func (o *LinOp) Name() string { return o.name }

// Description implements Kernel.
func (o *LinOp) Description() string { return o.desc }

// Degraded reports whether the kernel's programmed bank is serving
// degraded output (rows retired to the digital fallback, or unrecovered
// ABFT detections).
func (o *LinOp) Degraded() bool { return o.pm.Degraded() }

// winDims returns the window-grid dimensions for an h x w plane.
func (o *LinOp) winDims(h, w int) (int, int, error) {
	wh := (h+2*o.pad-o.k)/o.stride + 1
	ww := (w+2*o.pad-o.k)/o.stride + 1
	if wh < 1 || ww < 1 {
		return 0, 0, fmt.Errorf("kernels: %s: plane %dx%d too small for %dx%d windows (pad %d)", o.name, h, w, o.k, o.k, o.pad)
	}
	return wh, ww, nil
}

// OutDims implements Kernel.
func (o *LinOp) OutDims(h, w int) (int, int, error) {
	wh, ww, err := o.winDims(h, w)
	if err != nil {
		return 0, 0, err
	}
	return wh * o.block, ww * o.block, nil
}

// Ops implements Kernel: every window streams through the programmed
// (block² x k²) matrix once — block² row readouts and digitizations,
// each row holding k² runtime-DAC-driven coefficients.
func (o *LinOp) Ops(h, w int) (trace.OpCounts, error) {
	wh, ww, err := o.winDims(h, w)
	if err != nil {
		return trace.OpCounts{}, err
	}
	windows := int64(wh) * int64(ww)
	rows := int64(o.pm.Rows())
	cols := int64(o.pm.Cols())
	return trace.OpCounts{
		MVMRows:        windows * rows,
		DACSettles:     windows * rows * cols,
		ADCConversions: windows * rows,
		MRCoeffHolds:   windows * rows * cols,
		ABFTChecks:     o.pm.ABFTChecksPer(windows),
	}, nil
}

// checkPlane rejects inputs the window walk would misread.
func checkPlane(name string, plane *sensor.Image) error {
	if plane == nil || plane.C != 1 {
		c := 0
		if plane != nil {
			c = plane.C
		}
		return fmt.Errorf("kernels: %s: input must be a single-channel compressed plane, have %d channels", name, c)
	}
	return nil
}

// window extracts the k x k window whose top-left input coordinate is
// (y0, x0) (possibly negative under padding), zero-filling out-of-plane
// taps, into dst.
func (o *LinOp) window(plane *sensor.Image, y0, x0 int, dst []float64) {
	i := 0
	for dy := 0; dy < o.k; dy++ {
		for dx := 0; dx < o.k; dx++ {
			y, x := y0+dy, x0+dx
			if y < 0 || y >= plane.H || x < 0 || x >= plane.W {
				dst[i] = 0
			} else {
				dst[i] = plane.Pix[y*plane.W+x]
			}
			i++
		}
	}
}

// place writes one window's block of outputs (scaled by s) into out.
func (o *LinOp) place(out *sensor.Image, wy, wx int, y []float64, s float64) {
	for by := 0; by < o.block; by++ {
		for bx := 0; bx < o.block; bx++ {
			out.Pix[(wy*o.block+by)*out.W+wx*o.block+bx] = y[by*o.block+bx] * s
		}
	}
}

// Apply implements Kernel: the window walk streams each window through
// the programmed matrix via oc.Applier.ApplySeededInto with the window's
// own child seed — windows shard across workers with per-window noise
// streams (window j draws from oc.DeriveSeed(seed, j)), without building
// the full window table: each shard checks one pooled window,
// destination buffer and Applier out for its whole range, so per-window
// work allocates nothing — one Apply call allocates only the output
// plane and per-shard bookkeeping.
func (o *LinOp) Apply(plane *sensor.Image, seed int64, workers int) (*sensor.Image, error) {
	if err := checkPlane(o.name, plane); err != nil {
		return nil, err
	}
	wh, ww, err := o.winDims(plane.H, plane.W)
	if err != nil {
		return nil, err
	}
	out := sensor.NewImage(wh*o.block, ww*o.block, 1)
	err = oc.ShardRange(wh*ww, workers, func(lo, hi int) error {
		ap := o.pm.NewApplier()
		defer ap.Release()
		win := oc.GetScratch(o.k * o.k)
		y := oc.GetScratch(o.pm.Rows())
		defer oc.PutScratch(win)
		defer oc.PutScratch(y)
		for j := lo; j < hi; j++ {
			wy, wx := j/ww, j%ww
			o.window(plane, wy*o.stride-o.pad, wx*o.stride-o.pad, *win)
			if err := ap.ApplySeededInto(*y, *win, oc.DeriveSeed(seed, j)); err != nil {
				return fmt.Errorf("kernels: %s: window %d: %w", o.name, j, err)
			}
			o.place(out, wy, wx, *y, o.scale)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WindowedOp is the optional capability of kernels whose output
// decomposes into independent windows with a local receptive field —
// the hook the streaming session layer (internal/session) uses for
// block-level temporal reuse: when consecutive compressed planes differ
// only inside some blocks, only the windows whose receptive fields
// touch those blocks need recomputing; every other window's output is
// carried forward bit-exactly (window outputs depend only on their own
// input rectangle, and deterministic fidelities are seed-independent).
type WindowedOp interface {
	Kernel
	// Windows returns the window-grid dimensions for an h x w input
	// plane; window (wy, wx) is index j = wy*ww + wx.
	Windows(h, w int) (wh, ww int, err error)
	// WindowInput returns the half-open input rectangle
	// [y0, y1) x [x0, x1) window (wy, wx) reads. Padding may push the
	// rectangle outside the plane; out-of-plane taps are zero and carry
	// no content, so callers may clip freely.
	WindowInput(wy, wx int) (y0, x0, y1, x1 int)
	// ApplyWindows recomputes only the windows with sel[j] true into
	// out (which must have the OutDims shape for plane), leaving every
	// other output sample untouched. The noise derivation matches
	// Apply exactly — window j draws from oc.DeriveSeed(seed, j) — so
	// recomputed windows are bit-identical to a full Apply for any
	// worker count.
	ApplyWindows(out, plane *sensor.Image, seed int64, workers int, sel []bool) error
}

// Windows implements WindowedOp.
func (o *LinOp) Windows(h, w int) (int, int, error) { return o.winDims(h, w) }

// WindowInput implements WindowedOp.
func (o *LinOp) WindowInput(wy, wx int) (y0, x0, y1, x1 int) {
	y0 = wy*o.stride - o.pad
	x0 = wx*o.stride - o.pad
	return y0, x0, y0 + o.k, x0 + o.k
}

// ApplyWindows implements WindowedOp: the same sharded window walk as
// Apply, skipping unselected windows.
func (o *LinOp) ApplyWindows(out, plane *sensor.Image, seed int64, workers int, sel []bool) error {
	if err := checkPlane(o.name, plane); err != nil {
		return err
	}
	wh, ww, err := o.winDims(plane.H, plane.W)
	if err != nil {
		return err
	}
	if len(sel) != wh*ww {
		return fmt.Errorf("kernels: %s: selection covers %d windows, plane has %d", o.name, len(sel), wh*ww)
	}
	if out == nil || out.C != 1 || out.H != wh*o.block || out.W != ww*o.block {
		return fmt.Errorf("kernels: %s: output plane must be %dx%dx1", o.name, wh*o.block, ww*o.block)
	}
	return oc.ShardRange(wh*ww, workers, func(lo, hi int) error {
		ap := o.pm.NewApplier()
		defer ap.Release()
		win := oc.GetScratch(o.k * o.k)
		y := oc.GetScratch(o.pm.Rows())
		defer oc.PutScratch(win)
		defer oc.PutScratch(y)
		for j := lo; j < hi; j++ {
			if !sel[j] {
				continue
			}
			wy, wx := j/ww, j%ww
			o.window(plane, wy*o.stride-o.pad, wx*o.stride-o.pad, *win)
			if err := ap.ApplySeededInto(*y, *win, oc.DeriveSeed(seed, j)); err != nil {
				return fmt.Errorf("kernels: %s: window %d: %w", o.name, j, err)
			}
			o.place(out, wy, wx, *y, o.scale)
		}
		return nil
	})
}

// Reference implements Kernel with the exact real-valued operator.
func (o *LinOp) Reference(plane *sensor.Image) (*sensor.Image, error) {
	if err := checkPlane(o.name, plane); err != nil {
		return nil, err
	}
	wh, ww, err := o.winDims(plane.H, plane.W)
	if err != nil {
		return nil, err
	}
	out := sensor.NewImage(wh*o.block, ww*o.block, 1)
	win := make([]float64, o.k*o.k)
	y := make([]float64, o.block*o.block)
	for wy := 0; wy < wh; wy++ {
		for wx := 0; wx < ww; wx++ {
			o.window(plane, wy*o.stride-o.pad, wx*o.stride-o.pad, win)
			for r, row := range o.op {
				sum := 0.0
				for c, v := range row {
					sum += v * win[c]
				}
				y[r] = sum
			}
			o.place(out, wy, wx, y, o.post)
		}
	}
	return out, nil
}
