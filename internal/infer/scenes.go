package infer

import (
	"fmt"
	"math/rand"

	"lightator/internal/nn"
	"lightator/internal/oc"
	"lightator/internal/sensor"
)

// Disks is a sequence of structured RGB test scenes: a bright disk
// jittered across a dim background. Uniform-random scenes average out to
// a near-constant CA plane (every frame lands on the same logits, making
// top-1 agreement degenerate); a moving structure keeps the per-frame
// planes — and classifications — distinct. The bench's agreement sweep,
// the serving-time agreement report and ActQuant calibration all draw
// from this generator so they measure the same input statistics.
//
// Only the disks' geometry is drawn up front; SceneInto renders one
// frame on demand into a caller's buffer, so a sweep holds exactly the
// scene buffers it reuses: one per sweep worker, one per calibration.
type Disks struct {
	rows, cols int
	disks      []disk
}

// disk is one scene's bright disk: centre (cy, cx) and radius r.
type disk struct{ cy, cx, r float64 }

// NewDisks draws the disk geometry of n rows x cols scenes from seed.
func NewDisks(n, rows, cols int, seed int64) *Disks {
	rng := rand.New(rand.NewSource(seed))
	d := &Disks{rows: rows, cols: cols, disks: make([]disk, n)}
	for i := range d.disks {
		cy := float64(rng.Intn(rows))
		cx := float64(rng.Intn(cols))
		r := float64(rows) * (0.1 + 0.2*rng.Float64())
		d.disks[i] = disk{cy, cx, r}
	}
	return d
}

// Scene renders scene i into a fresh image.
func (d *Disks) Scene(i int) *sensor.Image {
	s := sensor.NewImage(d.rows, d.cols, 3)
	d.SceneInto(s, i)
	return s
}

// SceneInto renders scene i in place into dst, which must be a rows x
// cols RGB image; it writes every sample (background included), so
// whatever dst held before never shows through.
func (d *Disks) SceneInto(dst *sensor.Image, i int) {
	k := d.disks[i]
	for j := range dst.Pix {
		dst.Pix[j] = 0.1
	}
	for y := 0; y < d.rows; y++ {
		for x := 0; x < d.cols; x++ {
			dy, dx := float64(y)-k.cy, float64(x)-k.cx
			if dy*dy+dx*dx < k.r*k.r {
				for c := 0; c < 3; c++ {
					dst.Pix[(y*d.cols+x)*3+c] = 0.9
				}
			}
		}
	}
}

// DiskScenes renders every scene of NewDisks(n, rows, cols, seed).
func DiskScenes(n, rows, cols int, seed int64) []*sensor.Image {
	d := NewDisks(n, rows, cols, seed)
	scenes := make([]*sensor.Image, n)
	for i := range scenes {
		scenes[i] = d.Scene(i)
	}
	return scenes
}

// CalibrationPlanes produces batch fidelity-true compressed planes of
// h x w: Disks scenes, rendered one at a time into one reused buffer,
// captured by the ADC-less sensor and compressed by the CA on core —
// exactly the measurement statistics the serving path feeds a model,
// unlike synthetic uniform noise (which concentrates around the window
// mean and under-ranges every activation scale).
func CalibrationPlanes(core *oc.Core, poolN, h, w, batch int, seed int64) ([]*sensor.Image, error) {
	arr, err := sensor.NewArray(h*poolN, w*poolN)
	if err != nil {
		return nil, fmt.Errorf("infer: calibration sensor: %w", err)
	}
	ca, err := oc.NewAcquisitor(core, poolN)
	if err != nil {
		return nil, fmt.Errorf("infer: calibration CA: %w", err)
	}
	scenes := NewDisks(batch, h*poolN, w*poolN, seed)
	// Capture has read the scene by the time it returns its frame, so one
	// buffer serves every scene of the batch.
	scene := sensor.NewImage(h*poolN, w*poolN, 3)
	planes := make([]*sensor.Image, batch)
	for i := range planes {
		scenes.SceneInto(scene, i)
		frame, err := arr.Capture(scene)
		if err != nil {
			return nil, fmt.Errorf("infer: calibration capture: %w", err)
		}
		plane, err := ca.CompressSeeded(frame, oc.DeriveSeed(seed, i+1))
		if err != nil {
			return nil, fmt.Errorf("infer: calibration compress: %w", err)
		}
		planes[i] = plane
	}
	return planes, nil
}

// Agreement reports the fraction of index-aligned logit pairs whose
// top-1 class matches — the label-free fidelity contract the model zoo
// listing reports and the end-to-end bench gates. Ties resolve to
// the first maximum on both sides (Argmax), so a pair of identical
// degenerate logit vectors counts as agreeing. An empty or mismatched
// sweep has no evidence of agreement and reports 0.
func Agreement(optical, reference [][]float64) float64 {
	if len(optical) == 0 || len(optical) != len(reference) {
		return 0
	}
	agree := 0
	for i := range optical {
		if Argmax(optical[i]) == Argmax(reference[i]) {
			agree++
		}
	}
	return float64(agree) / float64(len(optical))
}

// Calibrate runs batch fidelity-true compressed planes (see
// CalibrationPlanes) through the network to set the ActQuant running-max
// scales, then freezes them. Networks trained with package train are
// already calibrated; this is for hand-built or He-initialised networks
// that have never seen data.
//
// The pass is an inference-mode forward in which every unfrozen ActQuant
// first folds its input's batch maximum into its scale — the update a
// training-mode forward makes, with nothing kept for a backward pass —
// and elementwise layers run in place (nn.InplaceLayer). A
// compiled model holds its digital layers for life, so a training
// forward's masks and cached inputs would stay resident beside the
// programmed weights without ever being read.
func Calibrate(net *nn.Sequential, core *oc.Core, poolN, h, w, batch int, seed int64) error {
	if batch < 1 {
		batch = 1
	}
	if core == nil {
		return fmt.Errorf("infer: calibration needs an optical core")
	}
	planes, err := CalibrationPlanes(core, poolN, h, w, batch, seed)
	if err != nil {
		return err
	}
	x := nn.NewTensor(batch, 1, h, w)
	size := h * w
	for i, p := range planes {
		copy(x.Data[i*size:(i+1)*size], p.Pix)
	}
	for _, l := range net.Layers {
		if aq, ok := l.(*nn.ActQuant); ok && !aq.Frozen {
			batchMax := 0.0
			for _, v := range x.Data {
				if v > batchMax {
					batchMax = v
				}
			}
			aq.UpdateScale(batchMax)
		}
		// The pass owns x, so elementwise layers transform it in place, as
		// Model.walk does, instead of cloning the calibration batch.
		if ip, ok := l.(nn.InplaceLayer); ok {
			err = ip.ForwardInplace(x)
		} else {
			x, err = l.Forward(x, false)
		}
		if err != nil {
			return fmt.Errorf("calibration forward: nn: %s forward: %w", l.Name(), err)
		}
	}
	nn.FreezeActQuant(net, true)
	return nil
}
