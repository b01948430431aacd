package main

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"lightator"
)

// A unique input rewrites the first three float64 samples of a
// pre-encoded image: 24 bytes are exactly 32 base64 characters, so the
// patch never straddles a base64 group and the rest of the multi-megabyte
// body is shared, never re-encoded.
const (
	patchSamples = 3
	patchChars   = 32
)

// Counter ranges keep the three kinds of patched inputs apart: measured
// requests count up from 1, the hot set and the fixed probe inputs sit
// above them, so no measured request ever repeats a probe or hot input.
const (
	hotCounter   = uint64(1) << 49
	probeCounter = uint64(1) << 50
)

// patchValues spreads the low 51 bits of n over three samples in [0,1):
// distinct counters give distinct bytes, and the values span the whole
// range, so the patched pixel's readout code moves too.
func patchValues(n uint64) [patchSamples]float64 {
	var v [patchSamples]float64
	for k := range v {
		v[k] = float64((n>>(17*k))&(1<<17-1)) / (1 << 17)
	}
	return v
}

// patchB64 is the base64 form of patchValues(n), patchChars long.
func patchB64(n uint64) string {
	var raw [8 * patchSamples]byte
	for k, x := range patchValues(n) {
		binary.LittleEndian.PutUint64(raw[8*k:], math.Float64bits(x))
	}
	return base64.StdEncoding.EncodeToString(raw[:])
}

// template is a pre-encoded request body over one image. Each request
// patches the image's first samples with a counter (see patchValues),
// which makes every counter a distinct input for the server's
// content-hash cache without re-encoding the image.
type template struct {
	path  string
	base  *lightator.Image
	head  []byte // body bytes before the image's base64 samples
	pix   string // the base image's base64 samples
	tail  []byte // body bytes after them
	check []byte // prefix every 200 response body starts with
}

// pixMarker stands in for the samples while the body is marshalled.
const pixMarker = "PIX-MARKER"

// newTemplate marshals req, whose image field must hold pixMarker as its
// samples, around base's encoded samples.
func newTemplate(path string, req any, base *lightator.Image, check string) (*template, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	head, tail, ok := bytes.Cut(body, []byte(pixMarker))
	if !ok {
		return nil, fmt.Errorf("bench: %s template has no image marker", path)
	}
	return &template{
		path: path, base: base, head: head, tail: tail,
		pix:   lightator.EncodeImage(base).Pix,
		check: []byte(check),
	}, nil
}

// size is the length of every body the template produces.
func (t *template) size() int64 { return int64(len(t.head) + len(t.pix) + len(t.tail)) }

// reader streams the body for counter n without copying the image.
func (t *template) reader(n uint64) io.Reader {
	return io.MultiReader(bytes.NewReader(t.head), strings.NewReader(patchB64(n)),
		strings.NewReader(t.pix[patchChars:]), bytes.NewReader(t.tail))
}

// body materialises the body for counter n.
func (t *template) body(n uint64) []byte {
	b := make([]byte, 0, t.size())
	b = append(b, t.head...)
	b = append(b, patchB64(n)...)
	b = append(b, t.pix[patchChars:]...)
	return append(b, t.tail...)
}

// image is the decoded image the body for counter n carries.
func (t *template) image(n uint64) *lightator.Image {
	im := t.base.Clone()
	v := patchValues(n)
	copy(im.Pix, v[:])
	return im
}

// markedImage is a wire image whose samples are pixMarker.
func markedImage(im *lightator.Image) lightator.ImageWire {
	return lightator.ImageWire{H: im.H, W: im.W, C: im.C, Pix: pixMarker}
}

// processTemplate is a /v1/process body for kernel over scene.
func processTemplate(scene *lightator.Image, kernel string) (*template, error) {
	return newTemplate("/v1/process", lightator.NewProcessRequest(markedImage(scene), kernel, nil), scene, `{"plane":{`)
}

// inferTemplate is a /v1/infer body for model over a scene, or over a
// pre-compressed plane when plane is set.
func inferTemplate(im *lightator.Image, model string, plane bool) (*template, error) {
	w := markedImage(im)
	req := lightator.InferRequest{Model: model}
	if plane {
		req.Plane = &w
	} else {
		req.Scene = &w
	}
	return newTemplate("/v1/infer", req, im, `{"model":"`+model+`","logits":[`)
}

// randomScene is a seeded RGB scene of independent uniform samples.
func randomScene(seed int64, rows, cols int) *lightator.Image {
	rng := rand.New(rand.NewSource(seed))
	s := lightator.NewImage(rows, cols, 3)
	for i := range s.Pix {
		s.Pix[i] = rng.Float64()
	}
	return s
}

// videoPositions is how many distinct square positions the session
// sequence cycles through.
const videoPositions = 7

// videoFrame is frame i of the mostly-static session sequence over base:
// a bright square of side rows/8 that jumps one side along the diagonal
// every 4 frames and wraps after videoPositions jumps.
func videoFrame(base *lightator.Image, i int) *lightator.Image {
	side := base.H / 8
	pos := (i / 4 % videoPositions) * side
	s := base.Clone()
	for y := pos; y < pos+side; y++ {
		for x := pos; x < pos+side; x++ {
			for c := 0; c < 3; c++ {
				s.Pix[(y*base.W+x)*3+c] = 1
			}
		}
	}
	return s
}

// videoLines pre-encodes the NDJSON line of every distinct video frame;
// frame i is line (i/4) % videoPositions.
func videoLines(base *lightator.Image) ([][]byte, error) {
	lines := make([][]byte, videoPositions)
	for p := range lines {
		b, err := json.Marshal(lightator.SessionFrame{Scene: lightator.EncodeImage(videoFrame(base, 4*p))})
		if err != nil {
			return nil, err
		}
		lines[p] = append(b, '\n')
	}
	return lines, nil
}
