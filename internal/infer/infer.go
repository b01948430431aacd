// Package infer is Lightator's compressed-domain CNN inference engine:
// the layer that executes trained networks (package nn / models) through
// the optical core's MVM path directly over compressively-acquired
// measurement planes — the paper's headline DNN workload, served with the
// same determinism contract as the kernels package.
//
// A Model is a compiled network: every Conv2D and Dense layer becomes a
// matrix programmed once onto the MR banks with the full-scale weight
// normalisation the kernels package established (the matrix is scaled so
// its largest magnitude sits at ±1 and the factor is restored digitally,
// keeping small weights out of the quantization floor), while activation
// functions, pooling, flattening and activation quantizers stay in the
// electronic domain — exactly how the paper partitions the workload
// between the optical core and the electronic block.
//
// Execution model, per layer L of seed s:
//
//   - Conv2D: the input plane is unrolled into k² x InC patches (im2col)
//     streamed one at a time through the programmed matrix via
//     oc.Applier.ApplySeededInto under DeriveSeed(s, L) — patch j draws
//     its noise from the j-th child stream DeriveSeed(DeriveSeed(s, L),
//     j), so the result is bit-identical for any worker count while the
//     full n·oh·ow patch table is never built (docs/PERF.md).
//
//   - Dense: each batch row is one activation vector through the same
//     seeded streaming path.
//
//   - Everything else runs the layer's own digital Forward in inference
//     mode.
//
// Determinism contract: Apply(plane, seed, workers) is bit-identical for
// any worker count and any interleaving, in every fidelity — the same
// contract as kernels.Kernel.Apply, and the property the serving layer's
// /v1/infer byte-identity rests on. Reference computes the digital
// reference: the same quantized network (bank weight grid, ABits
// activation grid) in exact arithmetic with no analog effects, so the
// optical-vs-reference gap isolates crosstalk and noise — the same split
// kernels.Kernel.Reference draws.
//
// Relationship to nn.PhotonicExec: that executor is the training-eval
// path (per-layer cores for Lightator-MX, a fixed internal seed chain,
// accuracy experiments); this package is the serving path — a
// caller-chosen seed, full-scale weight normalisation, a quantized
// digital reference, and a registry. Both program their matrices with
// oc.Core.ProgramCalibrated, so every optical MVM restores the per-row
// defect calibration. The im2col/scale machinery intentionally mirrors
// it; a fix to the layer mapping likely applies to both.
//
// See docs/INFER.md for the layer mapping, the accuracy-vs-compression
// behaviour and the serving integration.
package infer

import (
	"fmt"
	"sync"

	"lightator/internal/nn"
	"lightator/internal/oc"
	"lightator/internal/sensor"
	"lightator/internal/trace"
)

// stageKind partitions a compiled network between the optical core and
// the electronic block.
type stageKind int

const (
	stageDigital stageKind = iota // electronic: activations, pooling, quantizers
	stageConv                     // optical MVM over im2col patches
	stageDense                    // optical MVM over batch rows
)

// stage is one compiled layer.
type stage struct {
	kind  stageKind
	layer nn.Layer // digital stages only

	// Optical-stage fields: the programmed matrix, the full-scale weight
	// factor sw restored digitally, the calibrated input activation scale
	// sx that normalises inputs into the DMVA's [0,1] drive range, the
	// electronic bias add, and the conv geometry (stageConv only).
	pm   *oc.ProgrammedMatrix
	sw   float64
	sx   float64
	bias []float64
	conv *nn.Conv2D

	// core supplies the activation grid Reference mirrors
	// (QuantizeActivation); Reference reads the weight grid back from pm's
	// programmed levels (GridApplyInto).
	core *oc.Core
}

// Model is a compiled network resident on one optical core. It is
// immutable after Compile and safe for concurrent Apply calls; the
// programmed MR banks are shared, scratch state is per call.
type Model struct {
	name    string
	desc    string
	inH     int
	inW     int
	classes int
	stages  []stage

	// Per-Apply analog op counts, computed once by a shape-only walk on
	// first use (Ops); the sync.Once keeps the Model's concurrent-use
	// guarantee.
	opsOnce sync.Once
	ops     trace.OpCounts
	opsErr  error
}

// Compile programs a trained network onto the core for single-channel
// inH x inW input planes (the CA measurement plane). Every Conv2D and
// Dense layer must have non-zero weights; every ActQuant must be
// calibrated (Scale > 0) so activations can be normalised into the
// optical drive range. The network must end in a [N, classes] logits
// tensor and contain at least one conv/dense layer (otherwise nothing
// would execute optically). The network's weights are captured at
// compile time — training the network afterwards desynchronises the
// programmed matrices from Reference, so compile after training.
func Compile(core *oc.Core, name, desc string, net *nn.Sequential, inH, inW int) (*Model, error) {
	if core == nil {
		return nil, fmt.Errorf("infer: %s: compile needs an optical core", name)
	}
	if name == "" {
		return nil, fmt.Errorf("infer: model name must be non-empty")
	}
	if inH < 1 || inW < 1 {
		return nil, fmt.Errorf("infer: %s: invalid input plane %dx%d", name, inH, inW)
	}
	m := &Model{name: name, desc: desc, inH: inH, inW: inW}
	sx := 1.0 // the compressed plane arrives in the sensor's [0,1] range
	optical := 0
	for _, l := range net.Layers {
		switch layer := l.(type) {
		case *nn.Conv2D:
			st, err := buildMVMStage(core, layer.Name(), layer.W.Data, layer.B.Data, sx)
			if err != nil {
				return nil, fmt.Errorf("infer: %s: %w", name, err)
			}
			st.kind = stageConv
			st.conv = layer
			// Every optical stage is a health component: fault plans target
			// it as "model:<model>/<layer>" and its ABFT/recovery counters
			// surface under that label.
			st.pm.SetLabel("model:" + name + "/" + layer.Name())
			m.stages = append(m.stages, st)
			optical++
		case *nn.Dense:
			st, err := buildMVMStage(core, layer.Name(), layer.W.Data, layer.B.Data, sx)
			if err != nil {
				return nil, fmt.Errorf("infer: %s: %w", name, err)
			}
			st.kind = stageDense
			st.pm.SetLabel("model:" + name + "/" + layer.Name())
			m.stages = append(m.stages, st)
			optical++
		case *nn.ActQuant:
			if layer.Scale <= 0 {
				return nil, fmt.Errorf("infer: %s: activation quantizer %s is not calibrated (Scale <= 0); run a calibration forward pass first", name, layer.Name())
			}
			sx = layer.Scale
			m.stages = append(m.stages, stage{kind: stageDigital, layer: l})
		default:
			m.stages = append(m.stages, stage{kind: stageDigital, layer: l})
		}
	}
	if optical == 0 {
		return nil, fmt.Errorf("infer: %s: network has no conv/dense layers to execute optically", name)
	}
	// Dry digital run pins the output contract (logits) and catches
	// geometry mismatches at compile time instead of first request.
	probe, err := net.Forward(nn.NewTensor(1, 1, inH, inW), false)
	if err != nil {
		return nil, fmt.Errorf("infer: %s: network rejects a 1x%dx%d plane: %w", name, inH, inW, err)
	}
	if len(probe.Shape) != 2 || probe.Shape[0] != 1 {
		return nil, fmt.Errorf("infer: %s: network output shape %v, want [1, classes] logits", name, probe.Shape)
	}
	m.classes = probe.Shape[1]
	return m, nil
}

// buildMVMStage applies the full-scale normalisation split: the matrix is
// programmed at w/sw (largest magnitude at ±1, the grid oc.Program
// quantizes best, with the per-row defect calibration restored on every
// apply) and sw is restored digitally together with the input
// activation scale sx. wData layout: [rows][cols] flattened, rows =
// len(bias); the core programs row views of it with scale sw, so no
// scaled copy of the weights is made.
func buildMVMStage(core *oc.Core, layerName string, wData, bias []float64, sx float64) (stage, error) {
	sw := 0.0
	for _, v := range wData {
		if v < -sw || v > sw {
			if v < 0 {
				sw = -v
			} else {
				sw = v
			}
		}
	}
	if sw == 0 {
		return stage{}, fmt.Errorf("%s: all-zero weights cannot be programmed", layerName)
	}
	rows := len(bias)
	if rows == 0 || len(wData)%rows != 0 {
		return stage{}, fmt.Errorf("%s: weight count %d not divisible by %d output rows", layerName, len(wData), rows)
	}
	cols := len(wData) / rows
	w := make([][]float64, rows)
	for r := range w {
		w[r] = wData[r*cols : (r+1)*cols]
	}
	pm, err := core.ProgramCalibrated(w, sw)
	if err != nil {
		return stage{}, fmt.Errorf("%s: %w", layerName, err)
	}
	return stage{
		pm: pm, sw: sw, sx: sx, bias: append([]float64(nil), bias...),
		core: core,
	}, nil
}

// Name is the registry key (and the /v1/infer "model" field).
func (m *Model) Name() string { return m.name }

// Description is a one-line human-readable summary.
func (m *Model) Description() string { return m.desc }

// InputDims returns the expected compressed-plane dimensions.
func (m *Model) InputDims() (h, w int) { return m.inH, m.inW }

// Classes returns the logit width.
func (m *Model) Classes() int { return m.classes }

// Degraded reports whether any optical stage is serving degraded output
// (rows retired to the digital fallback, or unrecovered ABFT
// detections).
func (m *Model) Degraded() bool {
	for i := range m.stages {
		if pm := m.stages[i].pm; pm != nil && pm.Degraded() {
			return true
		}
	}
	return false
}

// checkPlane rejects inputs the compiled geometry would misread.
func (m *Model) checkPlane(plane *sensor.Image) error {
	if plane == nil || plane.C != 1 {
		c := 0
		if plane != nil {
			c = plane.C
		}
		return fmt.Errorf("infer: %s: input must be a single-channel compressed plane, have %d channels", m.name, c)
	}
	if plane.H != m.inH || plane.W != m.inW {
		return fmt.Errorf("infer: %s: input plane %dx%d, model compiled for %dx%d", m.name, plane.H, plane.W, m.inH, m.inW)
	}
	if len(plane.Pix) != plane.H*plane.W {
		return fmt.Errorf("infer: %s: input plane %dx%d holds %d samples", m.name, plane.H, plane.W, len(plane.Pix))
	}
	return nil
}

// Apply runs the compiled network over a compressed measurement plane
// through the optical core and returns the logits. Layer i draws its
// noise from oc.DeriveSeed(seed, i) and shards its MVM batch across up to
// `workers` goroutines; the result is bit-identical for any worker count
// and any interleaving (package determinism contract).
func (m *Model) Apply(plane *sensor.Image, seed int64, workers int) ([]float64, error) {
	return m.walk(plane, false, seed, workers)
}

// walk is the single stage loop behind Apply (ref false, optical) and
// Reference (ref true, exact quantized digital) — one owner, so the two
// paths can never desynchronise on stage order or dispatch.
func (m *Model) walk(plane *sensor.Image, ref bool, seed int64, workers int) ([]float64, error) {
	if err := m.checkPlane(plane); err != nil {
		return nil, err
	}
	// The walk starts on the caller's samples. Optical stages and the
	// other digital layers only read their input (Flatten passes a view
	// of it on), so the plane is copied only when an elementwise layer
	// would transform it in place before any stage has made a tensor of
	// the walk's own.
	x := &nn.Tensor{Shape: []int{1, 1, m.inH, m.inW}, Data: plane.Pix}
	owned := false
	var err error
	for i := range m.stages {
		st := &m.stages[i]
		layerSeed := oc.DeriveSeed(seed, i)
		switch st.kind {
		case stageDigital:
			// The walk owns every intermediate tensor, so elementwise
			// layers may transform in place instead of cloning a full
			// activation map per layer per frame.
			if ip, ok := st.layer.(nn.InplaceLayer); ok {
				if !owned {
					x, owned = x.Clone(), true
				}
				err = ip.ForwardInplace(x)
			} else {
				x, err = st.layer.Forward(x, false)
			}
			if err != nil {
				err = fmt.Errorf("infer: %s: %s: %w", m.name, st.layer.Name(), err)
			}
		case stageConv:
			x, err = st.applyConv(x, ref, layerSeed, workers)
			owned = true
		case stageDense:
			x, err = st.applyDense(x, ref, layerSeed, workers)
			owned = true
		}
		if err != nil {
			return nil, err
		}
	}
	return append([]float64(nil), x.Data...), nil
}

// applyConv streams im2col patches through the programmed matrix (paper
// Fig. 5 mapping: each 9-tap kernel slice occupies one arm, partial sums
// combine in the summation tree). Patch j of the window-row-major walk
// draws its noise from DeriveSeed(layerSeed, j), but the patch table is
// never built: the layer input is quantized onto the activation grid
// once (quantizedInput), and each shard gathers one patch at a time from
// it into a pooled strip buffer and runs it through a pooled Applier, so
// per-patch work allocates nothing and quantizes nothing — one layer
// pass allocates only the output tensor and per-shard bookkeeping. ref
// selects the exact digital quantized path instead of the optical one;
// both read the same patches.
func (st *stage) applyConv(x *nn.Tensor, ref bool, layerSeed int64, workers int) (*nn.Tensor, error) {
	c := st.conv
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("infer: conv %s wants NCHW input, got rank %d", c.Name(), len(x.Shape))
	}
	n, inC, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if inC != c.InC {
		return nil, fmt.Errorf("infer: conv %s input channels %d, want %d", c.Name(), inC, c.InC)
	}
	oh, ow := c.OutHW(h, w)
	if oh < 1 || ow < 1 {
		return nil, fmt.Errorf("infer: conv %s: empty output for input %dx%d", c.Name(), h, w)
	}
	patchLen := c.InC * c.K * c.K
	out := nn.NewTensor(n, c.OutC, oh, ow)
	restore := st.sw * st.sx
	// Padding taps drive the grid's zero level, what quantizing a zero
	// activation yields.
	q := st.quantizedInput(x.Data)
	defer oc.PutScratch(q)
	src, pad := *q, st.core.QuantizeActivation(0)
	err := oc.ShardRange(n*oh*ow, workers, func(lo, hi int) error {
		var ap *oc.Applier
		if !ref {
			ap = st.pm.NewApplier()
			defer ap.Release()
		}
		patch := oc.GetScratch(patchLen)
		y := oc.GetScratch(st.pm.Rows())
		defer oc.PutScratch(patch)
		defer oc.PutScratch(y)
		// Patch j sits at batch b, output (oy, ox); the walk advances the
		// three counters instead of dividing j per patch.
		b, oy, ox := lo/(oh*ow), (lo/ow)%oh, lo%ow
		for j := lo; j < hi; j++ {
			i := 0
			for ic := 0; ic < c.InC; ic++ {
				chanBase := (b*inC + ic) * h
				for ky := 0; ky < c.K; ky++ {
					iy := oy*c.Stride + ky - c.Pad
					if iy < 0 || iy >= h {
						for kx := 0; kx < c.K; kx++ {
							(*patch)[i] = pad
							i++
						}
						continue
					}
					row := src[(chanBase+iy)*w : (chanBase+iy+1)*w]
					for kx := 0; kx < c.K; kx++ {
						if ix := ox*c.Stride + kx - c.Pad; ix < 0 || ix >= w {
							(*patch)[i] = pad
						} else {
							(*patch)[i] = row[ix]
						}
						i++
					}
				}
			}
			if err := st.mvmInto(ap, *y, *patch, ref, oc.DeriveSeed(layerSeed, j)); err != nil {
				return err
			}
			outBase := (b*c.OutC*oh+oy)*ow + ox
			for k, v := range (*y)[:c.OutC] {
				out.Data[outBase+k*oh*ow] = v*restore + st.bias[k]
			}
			if ox++; ox == ow {
				if ox, oy = 0, oy+1; oy == oh {
					oy, b = 0, b+1
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("infer: conv %s: %w", c.Name(), err)
	}
	return out, nil
}

// applyDense streams each batch row through the programmed matrix; row b
// draws its noise from DeriveSeed(layerSeed, b). The input is quantized
// once (quantizedInput) and each shard hands row views of it to the
// matrix — same shape as applyConv's strip walk. ref selects the exact
// digital quantized path instead of the optical one.
func (st *stage) applyDense(x *nn.Tensor, ref bool, layerSeed int64, workers int) (*nn.Tensor, error) {
	if len(x.Shape) != 2 {
		return nil, fmt.Errorf("infer: dense stage wants [N,D] input (flatten first), got rank %d", len(x.Shape))
	}
	n, d := x.Shape[0], x.Shape[1]
	if d != st.pm.Cols() {
		return nil, fmt.Errorf("infer: dense stage input width %d, want %d", d, st.pm.Cols())
	}
	rows := st.pm.Rows()
	out := nn.NewTensor(n, rows)
	restore := st.sw * st.sx
	q := st.quantizedInput(x.Data)
	defer oc.PutScratch(q)
	src := *q
	err := oc.ShardRange(n, workers, func(lo, hi int) error {
		var ap *oc.Applier
		if !ref {
			ap = st.pm.NewApplier()
			defer ap.Release()
		}
		y := oc.GetScratch(rows)
		defer oc.PutScratch(y)
		for b := lo; b < hi; b++ {
			if err := st.mvmInto(ap, *y, src[b*d:(b+1)*d], ref, oc.DeriveSeed(layerSeed, b)); err != nil {
				return err
			}
			dst := out.Data[b*rows : (b+1)*rows]
			for o, v := range *y {
				dst[o] = v*restore + st.bias[o]
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("infer: dense stage: %w", err)
	}
	return out, nil
}

// Reference computes the digital reference of the compiled model: the
// same stage walk as Apply with the same weight and activation grids,
// but exact arithmetic and no analog effects (no crosstalk, no noise).
// The optical-vs-reference gap therefore isolates the analog model; in
// Ideal fidelity the two agree to float round-off. Safe for concurrent
// use, like Apply.
func (m *Model) Reference(plane *sensor.Image) ([]float64, error) {
	return m.walk(plane, true, 0, 1)
}

// quantizedInput returns a stage input as both paths drive it: every
// activation normalised by sx and snapped to the activation grid once
// (QuantizeActivation, the grid ApplySeededInto would quantize each
// window onto), in a pooled buffer the caller releases.
func (st *stage) quantizedInput(data []float64) *[]float64 {
	q := oc.GetScratch(len(data))
	st.core.QuantizeActivationsInto(*q, data, st.sx)
	return q
}

// mvmInto executes one grid-quantized activation vector (a window of
// quantizedInput) either through the optical core (seeded, via the
// shard's reusable Applier) or through the exact digital quantized
// reference (the programmed levels' grid weights times the activations,
// plain arithmetic; ap may be nil), writing the result into dst
// (len == pm.Rows()).
func (st *stage) mvmInto(ap *oc.Applier, dst, xq []float64, ref bool, seed int64) error {
	if !ref {
		return ap.ApplyQuantizedInto(dst, xq, seed)
	}
	return st.pm.GridApplyInto(dst, xq)
}

// Ops returns the modeled analog op counts of one Apply — the
// observability layer's per-request accounting (see internal/trace).
// Counts come from a one-time shape walk: digital stages run their
// Forward over zero tensors purely to propagate shapes, while each
// optical stage contributes its patch/row geometry analytically — conv
// layers stream oh*ow im2col patches and dense layers one batch row
// through the programmed (rows x cols) matrix, every coefficient
// runtime-DAC-driven. The result is cached; concurrent calls are safe.
func (m *Model) Ops() (trace.OpCounts, error) {
	m.opsOnce.Do(func() { m.ops, m.opsErr = m.countOps() })
	return m.ops, m.opsErr
}

func (m *Model) countOps() (trace.OpCounts, error) {
	x := nn.NewTensor(1, 1, m.inH, m.inW)
	var ops trace.OpCounts
	var err error
	for i := range m.stages {
		st := &m.stages[i]
		switch st.kind {
		case stageDigital:
			// Shape propagation only; InplaceLayers keep the shape, so the
			// plain Forward suffices (and never mutates compiled state).
			x, err = st.layer.Forward(x, false)
			if err != nil {
				return trace.OpCounts{}, fmt.Errorf("infer: %s: ops walk: %s: %w", m.name, st.layer.Name(), err)
			}
		case stageConv:
			c := st.conv
			if len(x.Shape) != 4 {
				return trace.OpCounts{}, fmt.Errorf("infer: %s: ops walk: conv %s wants NCHW input, got rank %d", m.name, c.Name(), len(x.Shape))
			}
			oh, ow := c.OutHW(x.Shape[2], x.Shape[3])
			patches := int64(x.Shape[0]) * int64(oh) * int64(ow)
			rows, cols := int64(st.pm.Rows()), int64(st.pm.Cols())
			ops.MVMRows += patches * rows
			ops.DACSettles += patches * rows * cols
			ops.ADCConversions += patches * rows
			ops.MRCoeffHolds += patches * rows * cols
			ops.ABFTChecks += st.pm.ABFTChecksPer(patches)
			x = nn.NewTensor(x.Shape[0], c.OutC, oh, ow)
		case stageDense:
			if len(x.Shape) != 2 {
				return trace.OpCounts{}, fmt.Errorf("infer: %s: ops walk: dense stage wants [N,D] input, got rank %d", m.name, len(x.Shape))
			}
			batch := int64(x.Shape[0])
			rows, cols := int64(st.pm.Rows()), int64(st.pm.Cols())
			ops.MVMRows += batch * rows
			ops.DACSettles += batch * rows * cols
			ops.ADCConversions += batch * rows
			ops.MRCoeffHolds += batch * rows * cols
			ops.ABFTChecks += st.pm.ABFTChecksPer(batch)
			x = nn.NewTensor(x.Shape[0], st.pm.Rows())
		}
	}
	return ops, nil
}

// Argmax returns the top-1 class of a logit vector (-1 for empty input).
func Argmax(logits []float64) int {
	best := -1
	for i, v := range logits {
		if best < 0 || v > logits[best] {
			best = i
		}
	}
	return best
}
