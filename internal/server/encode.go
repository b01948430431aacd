// Image- and frame-bearing response bodies, appended straight into one
// pooled buffer. A 256x256 plane's body is ~0.7 MB, nearly all of it the
// base64 of the samples, so the samples are encoded a b64Stride at a
// time into a buffer grown once, with no sample bytes, base64 string or
// JSON encoder buffer between them and the body
// (docs/PERF.md#pooled-response-encode). The appenders write the bytes
// json.Marshal (json.Encoder for session records) gives for the same
// values. Small payloads (infer logits, errors, listings) keep
// encoding/json.
package server

import (
	"encoding/base64"
	"slices"
	"strconv"
	"sync"

	"lightator/internal/sensor"
	"lightator/internal/session"
)

// respPool holds response buffers: a frame endpoint's body, which the
// request's ingest returns once the body is written, and a session
// stream's record buffer, which the stream returns at its end.
var respPool sync.Pool

// respSlack is room for a body's bytes besides its base64 payload: keys,
// dims, the session index and block counts, the degraded flag.
const respSlack = 256

// growFor grows dst once for a body whose payload is n raw bytes.
func growFor(dst []byte, n int) []byte {
	return slices.Grow(dst, base64.StdEncoding.EncodedLen(n)+respSlack)
}

// appendSamples appends the base64 (StdEncoding) of xs' little-endian
// bytes, a stride's 3072 bytes at a time. A stride is whole 3-byte
// groups, so the strides' encodings join into the encoding of all the
// bytes, padding only at the end.
func appendSamples(dst []byte, xs []float64) []byte {
	dst = slices.Grow(dst, base64.StdEncoding.EncodedLen(8*len(xs)))
	var raw [b64Stride / 4 * 3]byte
	for len(xs) > 0 {
		k := min(len(xs), len(raw)/8)
		samplesToBytes(raw[:], xs[:k])
		dst = base64.StdEncoding.AppendEncode(dst, raw[:8*k])
		xs = xs[k:]
	}
	return dst
}

// appendKey appends sep (an object's '{' or a ',') and "name":.
func appendKey(dst []byte, sep byte, name string) []byte {
	dst = append(dst, sep, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

// appendInt appends sep, "name": and v.
func appendInt(dst []byte, sep byte, name string, v int) []byte {
	return strconv.AppendInt(appendKey(dst, sep, name), int64(v), 10)
}

// appendClose ends a response object: "degraded":true when degraded
// (the field is omitempty), then the brace.
func appendClose(dst []byte, degraded bool) []byte {
	if degraded {
		dst = append(appendKey(dst, ',', "degraded"), "true"...)
	}
	return append(dst, '}')
}

// appendImageWire appends the JSON of EncodeImage(im).
func appendImageWire(dst []byte, im *sensor.Image) []byte {
	dst = appendInt(dst, '{', "h", im.H)
	dst = appendInt(dst, ',', "w", im.W)
	dst = appendInt(dst, ',', "c", im.C)
	dst = append(appendKey(dst, ',', "pix_b64"), '"')
	dst = appendSamples(dst, im.Pix)
	return append(dst, '"', '}')
}

// appendImageResponse appends the JSON of a response whose one image
// field is name: CompressResponse ("image") or ProcessResponse
// ("plane").
func appendImageResponse(dst []byte, name string, im *sensor.Image, degraded bool) []byte {
	dst = growFor(dst, 8*len(im.Pix))
	dst = appendImageWire(appendKey(dst, '{', name), im)
	return appendClose(dst, degraded)
}

// appendCaptureResponse appends the JSON of a CaptureResponse carrying
// EncodeFrame(f).
func appendCaptureResponse(dst []byte, f *sensor.Frame, degraded bool) []byte {
	dst = growFor(dst, len(f.Codes))
	dst = appendInt(appendKey(dst, '{', "frame"), '{', "rows", f.Rows)
	dst = appendInt(dst, ',', "cols", f.Cols)
	dst = append(appendKey(dst, ',', "codes_b64"), '"')
	dst = base64.StdEncoding.AppendEncode(dst, f.Codes)
	return appendClose(append(dst, '"', '}'), degraded)
}

// appendSessionImage appends the record json.Encoder writes for a
// compress (name "image") or process (name "plane") session frame that
// did not fail, its newline included.
func appendSessionImage(dst []byte, name string, im *sensor.Image, fr session.FrameResult, degraded bool) []byte {
	dst = growFor(dst, 8*len(im.Pix))
	dst = appendInt(dst, '{', "index", fr.Index)
	dst = appendImageWire(appendKey(dst, ',', name), im)
	dst = appendInt(dst, ',', "blocks_total", fr.Blocks)
	dst = appendInt(dst, ',', "blocks_reused", fr.Reused)
	return append(appendClose(dst, degraded), '\n')
}
