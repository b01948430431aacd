// The response appenders (encode.go) held to encoding/json: every image-
// and frame-bearing body they build is the bytes json.Marshal (or, for a
// session record, json.Encoder) gives for the same response built from
// the reference wire encoders below.
package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"lightator/internal/sensor"
	"lightator/internal/session"
)

// floatBytes is the little-endian byte form of xs, the reference for
// the stride-at-a-time writers (appendSamples, writeSamplePart).
func floatBytes(xs []float64) []byte {
	buf := make([]byte, 8*len(xs))
	samplesToBytes(buf, xs)
	return buf
}

// refImageWire is EncodeImage as the whole-value encode: the samples'
// bytes, then their base64 string.
func refImageWire(im *sensor.Image) ImageWire {
	return ImageWire{H: im.H, W: im.W, C: im.C, Pix: base64.StdEncoding.EncodeToString(floatBytes(im.Pix))}
}

// refFrameWire is EncodeFrame's whole-value encode.
func refFrameWire(f *sensor.Frame) FrameWire {
	return FrameWire{Rows: f.Rows, Cols: f.Cols, Codes: base64.StdEncoding.EncodeToString(f.Codes)}
}

// marshalRef is json.Marshal, failing the test on an error.
func marshalRef(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeRef is json.Encoder's record, newline included.
func encodeRef(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameResponses fails unless every appender gives encoding/json's bytes
// for im and f. Each appends after a prefix it must leave alone.
func sameResponses(t *testing.T, im *sensor.Image, f *sensor.Frame, fr session.FrameResult, degraded bool) {
	t.Helper()
	iw, fw := refImageWire(im), refFrameWire(f)
	if got := EncodeImage(im); got != iw {
		t.Fatalf("EncodeImage differs from the whole-value encode (%d vs %d characters)", len(got.Pix), len(iw.Pix))
	}
	prefix := []byte("prefix")
	for _, c := range []struct {
		name     string
		got, ref []byte
	}{
		{"process", appendImageResponse(prefix, "plane", im, degraded), marshalRef(t, ProcessResponse{Plane: iw, Degraded: degraded})},
		{"compress", appendImageResponse(prefix, "image", im, degraded), marshalRef(t, CompressResponse{Image: iw, Degraded: degraded})},
		{"capture", appendCaptureResponse(prefix, f, degraded), marshalRef(t, CaptureResponse{Frame: fw, Degraded: degraded})},
		{"session process", appendSessionImage(prefix, "plane", im, fr, degraded), encodeRef(t, SessionResult{
			Index: fr.Index, Plane: &iw, BlocksTotal: fr.Blocks, BlocksReused: fr.Reused, Degraded: degraded,
		})},
		{"session compress", appendSessionImage(prefix, "image", im, fr, degraded), encodeRef(t, SessionResult{
			Index: fr.Index, Image: &iw, BlocksTotal: fr.Blocks, BlocksReused: fr.Reused, Degraded: degraded,
		})},
	} {
		got, ok := bytes.CutPrefix(c.got, prefix)
		if !ok {
			t.Fatalf("%s: the appender overwrote what dst held", c.name)
		}
		if !bytes.Equal(got, c.ref) {
			t.Fatalf("%s (%d samples, degraded %v): appended\n%.200s\nencoding/json\n%.200s", c.name, len(im.Pix), degraded, got, c.ref)
		}
	}
}

// specialSamples are the float64 values whose bytes a text encoder could
// mangle: NaNs, infinities, negative zero and subnormals.
var specialSamples = []float64{
	math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2.2250738585072e-310, -math.MaxFloat64,
}

// responseCase is an n-sample plane (1×n×1; 0×0×1 when empty), with
// special samples spread through it, and an n-code frame.
func responseCase(n int) (*sensor.Image, *sensor.Frame) {
	rng := rand.New(rand.NewSource(int64(n)))
	im := &sensor.Image{H: min(n, 1), W: n, C: 1, Pix: make([]float64, n)}
	for i := range im.Pix {
		im.Pix[i] = 2*rng.Float64() - 0.5
	}
	for i, v := range specialSamples {
		if n > 0 {
			im.Pix[(i*7919)%n] = v
		}
	}
	f := &sensor.Frame{Rows: min(n, 1), Cols: n, Codes: make([]uint8, n)}
	for i := range f.Codes {
		f.Codes[i] = uint8(rng.Intn(16))
	}
	return im, f
}

// TestImageResponsesMatchEncodingJSON holds every appender to
// encoding/json at sample counts around the 384-sample stride, with
// special samples, degraded on and off.
func TestImageResponsesMatchEncodingJSON(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 383, 384, 385, 767, 768, 769, 16384, 65536} {
		im, f := responseCase(n)
		for _, degraded := range []bool{false, true} {
			fr := session.FrameResult{Index: n, Blocks: n / 64, Reused: n / 128}
			sameResponses(t, im, f, fr, degraded)
		}
	}
	// A 256x256x3 plane, dims other than 1×n, and a session's first
	// record.
	im := sensor.NewImage(256, 256, 3)
	rng := rand.New(rand.NewSource(3))
	for i := range im.Pix {
		im.Pix[i] = rng.NormFloat64()
	}
	f := &sensor.Frame{Rows: 256, Cols: 256, Codes: make([]uint8, 256*256)}
	sameResponses(t, im, f, session.FrameResult{}, false)
}

// FuzzImageResponse holds the appenders to encoding/json on arbitrary
// sample bytes (every bit pattern is a float64), frame codes, record
// counters and degraded flags.
func FuzzImageResponse(f *testing.F) {
	f.Add([]byte{}, false, 0, 0, 0)
	f.Add(floatBytes([]float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 5e-324}), true, 7, 64, 63)
	f.Add(floatBytes(make([]float64, 385)), false, 1<<40, 1, 0)
	f.Add([]byte("\x00\xff\x10 not a whole sample"), true, -1, -5, 9)
	f.Fuzz(func(t *testing.T, data []byte, degraded bool, index, blocks, reused int) {
		im := &sensor.Image{H: 1, W: len(data) / 8, C: 1, Pix: make([]float64, len(data)/8)}
		samplesFromBytes(im.Pix, data)
		fr := &sensor.Frame{Rows: 1, Cols: len(data), Codes: data}
		sameResponses(t, im, fr, session.FrameResult{Index: index, Blocks: blocks, Reused: reused}, degraded)
	})
}

// BenchmarkImageResponse encodes one 256x256 /v1/process reconstruct
// body: appended into a reused buffer as the server does, and by the
// encode it replaced (the samples' bytes, their base64 string, then
// json.Marshal).
func BenchmarkImageResponse(b *testing.B) {
	im := sensor.NewImage(256, 256, 1)
	rng := rand.New(rand.NewSource(1))
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for range b.N {
			buf = appendImageResponse(buf[:0], "plane", im, false)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		var body []byte
		for range b.N {
			var err error
			if body, err = json.Marshal(ProcessResponse{Plane: refImageWire(im)}); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(body)))
	})
}
