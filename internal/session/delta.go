// Temporal delta reuse in the compressed domain: consecutive CA
// measurement planes of a video stream are diffed on a block grid, and
// kernel/inference work runs only where measurements actually changed.
//
// Soundness rests on two established properties. First, deterministic
// fidelities (Ideal, Physical) are seed-independent — the same property
// that lets the response cache omit seeds from its keys — so a result
// computed for frame i-1 is bit-identical to what frame i would compute
// over the same samples, despite the per-frame seed chain. Second, every
// kernel's window output depends only on its own input rectangle, so with an exact threshold (0), carrying forward windows
// whose receptive fields saw no change reproduces a full Apply
// bit-for-bit. A non-zero threshold deliberately trades that exactness
// for more reuse and is an explicit client opt-in.
package session

import (
	"lightator/internal/kernels"
	"lightator/internal/pipeline"
	"lightator/internal/sensor"
)

// DeltaConfig tunes the temporal reuse engine.
type DeltaConfig struct {
	// Disable turns reuse off: every frame recomputes fully. Reuse is
	// also forced off in non-deterministic fidelities, where stale
	// results would not be bit-identical.
	Disable bool
	// Block is the diff-grid block side over the compressed plane
	// (default 8). A block is dirty when any of its samples moved by
	// more than Threshold against the previous frame.
	Block int
	// Threshold is the per-sample absolute change that marks a block
	// dirty. The default 0 reuses only bit-identical blocks, which keeps
	// streamed output bytes exactly equal to per-frame recompute; larger
	// values are lossy.
	Threshold float64
}

// withDefaults resolves zero values.
func (c DeltaConfig) withDefaults() DeltaConfig {
	if c.Block <= 0 {
		c.Block = 8
	}
	if c.Threshold < 0 {
		c.Threshold = 0
	}
	return c
}

// deltaEngine holds the previous frame's plane and results. It is owned
// by the session's single ordered emitter, so it needs no locking.
type deltaEngine struct {
	cfg     DeltaConfig
	enabled bool

	prevPlane  *sensor.Image
	prevOut    *sensor.Image
	prevLogits []float64
}

// dirtyBlocks diffs cur against prev on the block grid, returning the
// per-block dirty flags (row-major over the bh x bw grid) and how many
// blocks are dirty. Caller guarantees matching dims.
func (d *deltaEngine) dirtyBlocks(cur, prev *sensor.Image) (dirty []bool, bh, bw, n int) {
	b := d.cfg.Block
	bh = (cur.H + b - 1) / b
	bw = (cur.W + b - 1) / b
	dirty = make([]bool, bh*bw)
	for y := 0; y < cur.H; y++ {
		by := y / b
		row := y * cur.W
		for x := 0; x < cur.W; x++ {
			diff := cur.Pix[row+x] - prev.Pix[row+x]
			if diff > d.cfg.Threshold || diff < -d.cfg.Threshold {
				j := by*bw + x/b
				if !dirty[j] {
					dirty[j] = true
					n++
				}
			}
		}
	}
	return dirty, bh, bw, n
}

// selectWindows marks the kernel windows whose (clipped) receptive
// field touches a dirty diff block, returning the selection and its
// cardinality. wh x ww is the kernel's window grid over plane.
func (d *deltaEngine) selectWindows(kern kernels.Kernel, wh, ww int, plane *sensor.Image, dirty []bool, bh, bw int) ([]bool, int) {
	b := d.cfg.Block
	sel := make([]bool, wh*ww)
	n := 0
	for wy := 0; wy < wh; wy++ {
		for wx := 0; wx < ww; wx++ {
			y0, x0, y1, x1 := kern.WindowInput(wy, wx)
			if y0 < 0 {
				y0 = 0
			}
			if x0 < 0 {
				x0 = 0
			}
			if y1 > plane.H {
				y1 = plane.H
			}
			if x1 > plane.W {
				x1 = plane.W
			}
		scan:
			for by := y0 / b; by <= (y1-1)/b && by < bh; by++ {
				for bx := x0 / b; bx <= (x1-1)/b && bx < bw; bx++ {
					if dirty[by*bw+bx] {
						sel[wy*ww+wx] = true
						n++
						break scan
					}
				}
			}
		}
	}
	return sel, n
}

// process runs the kernel stage for one ordered frame, reusing window
// results from the previous frame where the compressed plane is static.
// It returns the output plane plus the frame's reuse accounting: units
// is the frame's kernel window count and reused how many of them were
// carried forward instead of recomputed.
func (d *deltaEngine) process(kern kernels.Kernel, plane *sensor.Image, kernelSeed int64, workers int) (out *sensor.Image, reused, units int, err error) {
	wh, ww, err := kern.Windows(plane.H, plane.W)
	if err != nil {
		return nil, 0, 0, err
	}
	units = wh * ww
	fresh := !d.enabled || d.prevPlane == nil || d.prevOut == nil ||
		d.prevPlane.H != plane.H || d.prevPlane.W != plane.W
	if fresh {
		out, err = kern.Apply(plane, kernelSeed, workers)
		if err != nil {
			return nil, 0, 0, err
		}
		d.remember(plane, out, nil)
		return out, 0, units, nil
	}
	dirty, bh, bw, nDirty := d.dirtyBlocks(plane, d.prevPlane)
	if nDirty == 0 {
		// Fully static frame: the previous output is the answer. Results
		// are never mutated after publication, so sharing the plane
		// across frames is safe.
		d.remember(plane, d.prevOut, nil)
		return d.prevOut, units, units, nil
	}
	sel, nSel := d.selectWindows(kern, wh, ww, plane, dirty, bh, bw)
	// Start from the previous output and recompute only touched windows.
	out = d.prevOut.Clone()
	if err := kern.ApplyWindows(out, plane, kernelSeed, workers, sel); err != nil {
		return nil, 0, 0, err
	}
	d.remember(plane, out, nil)
	return out, units - nSel, units, nil
}

// infer runs the inference stage for one ordered frame. Dense layers
// make model output global over the plane, so reuse is all-or-nothing:
// a fully static plane carries the previous logits forward, any change
// recomputes.
func (d *deltaEngine) infer(model pipeline.InferModel, plane *sensor.Image, inferSeed int64, workers int) (logits []float64, reused, units int, err error) {
	units = 1
	fresh := !d.enabled || d.prevPlane == nil || d.prevLogits == nil ||
		d.prevPlane.H != plane.H || d.prevPlane.W != plane.W
	if !fresh {
		if _, _, _, nDirty := d.dirtyBlocks(plane, d.prevPlane); nDirty == 0 {
			d.remember(plane, nil, d.prevLogits)
			return d.prevLogits, 1, 1, nil
		}
	}
	logits, err = model.Apply(plane, inferSeed, workers)
	if err != nil {
		return nil, 0, 0, err
	}
	d.remember(plane, nil, logits)
	return logits, 0, units, nil
}

// remember retains one frame's plane and results as the next frame's
// reuse source.
func (d *deltaEngine) remember(plane, out *sensor.Image, logits []float64) {
	d.prevPlane = plane
	d.prevOut = out
	d.prevLogits = logits
}
