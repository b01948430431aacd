package dataset

import (
	"fmt"
	"math"

	"lightator/internal/oc"
	"lightator/internal/sensor"
)

// CACompress runs every RGB sample of src through the full acquisition
// front end — Bayer mosaic, photodiode exposure, CRC 4-bit readout, and
// the Compressive Acquisitor's fused grayscale + N x N average pooling —
// producing the dataset the DNN actually sees when Lightator's CA stage is
// enabled (paper §5: "We leverage CA banks for a light compression of
// input images as the proof-of-concept before feeding them into the
// model"). The returned dataset has shape [1, H/N, W/N].
func CACompress(src *Synth, poolN int) (*Synth, error) {
	if len(src.shape) != 3 || src.shape[0] != 3 {
		return nil, fmt.Errorf("dataset: CA compression needs RGB input, have shape %v", src.shape)
	}
	h, w := src.shape[1], src.shape[2]
	if h%poolN != 0 || w%poolN != 0 {
		return nil, fmt.Errorf("dataset: %dx%d not divisible by pool %d", h, w, poolN)
	}
	arr, err := sensor.NewArray(h, w)
	if err != nil {
		return nil, err
	}
	core, err := oc.NewCore(4, 4, oc.Ideal)
	if err != nil {
		return nil, err
	}
	ca, err := oc.NewAcquisitor(core, poolN)
	if err != nil {
		return nil, err
	}
	oh, ow := h/poolN, w/poolN
	out := &Synth{
		TaskName: src.TaskName + "+ca",
		Classes:  src.Classes,
		shape:    []int{1, oh, ow},
		images:   make([]uint8, src.Len()*oh*ow),
		labels:   append([]int(nil), src.labels...),
	}
	sample := make([]float64, 3*h*w)
	scene := sensor.NewImage(h, w, 3)
	for i := 0; i < src.Len(); i++ {
		src.Sample(i, sample)
		// CHW -> HWC scene.
		for ch := 0; ch < 3; ch++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					scene.Set(y, x, ch, sample[(ch*h+y)*w+x])
				}
			}
		}
		frame, err := arr.Capture(scene)
		if err != nil {
			return nil, err
		}
		// The core is noise-free (Ideal), so the seed never draws.
		comp, err := ca.CompressSeeded(frame, 0)
		if err != nil {
			return nil, err
		}
		dst := out.images[i*oh*ow : (i+1)*oh*ow]
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				dst[y*ow+x] = uint8(math.Round(comp.At(y, x, 0) * 255))
			}
		}
	}
	return out, nil
}
