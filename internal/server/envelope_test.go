// Tests of the envelope decoder (envelope.go) from inside the package:
// the fast path is held against the strict encoding/json decode on the
// same bytes, for every request type that carries wire images.
package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lightator/internal/sensor"
)

// wireScene encodes a deterministic h×w×c scene.
func wireScene(h, w, c int) ImageWire {
	rng := rand.New(rand.NewSource(int64(h*w + c)))
	im := sensor.NewImage(h, w, c)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	return EncodeImage(im)
}

// processBody marshals a /v1/process body around an h×w×3 scene.
func processBody(tb testing.TB, h, w int, kernel string) []byte {
	tb.Helper()
	body, err := json.Marshal(NewProcessRequest(wireScene(h, w, 3), kernel, nil))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// sameDecode decodes body as a T on the fast path and strictly, and
// fails unless both give the same value (the cut value restored into its
// Pix) and the same pixels, or the same error. It reports whether the
// fast path ran.
func sameDecode[T any](t *testing.T, body []byte) bool {
	t.Helper()
	var fast, strict T
	in, ferr := decodeEnvelope(body, &fast)
	defer in.release()
	serr := decodeStrict(body, &strict)
	if (ferr == nil) != (serr == nil) || (ferr != nil && ferr.Error() != serr.Error()) {
		t.Fatalf("%T decode of %q: fast path error %v, strict error %v", strict, body, ferr, serr)
	}
	if ferr != nil {
		return false
	}
	// pixels consumes the cut value, so keep it to restore into Pix.
	fastPath, cut := in.at != nil, string(in.cut)
	fimgs := any(&fast).(imageCarrier).wireImages()
	simgs := any(&strict).(imageCarrier).wireImages()
	for i, f := range fimgs {
		s := simgs[i]
		if (f == nil) != (s == nil) {
			t.Fatalf("%T decode of %q: image %d present on one path only", strict, body, i)
		}
		if f == nil {
			continue
		}
		fraw, ferr := in.pixels(f)
		sraw, serr := validateImageWire(*s)
		if (ferr == nil) != (serr == nil) || (ferr != nil && ferr.Error() != serr.Error()) {
			t.Fatalf("%T pixels of %q: fast path error %v, strict error %v", strict, body, ferr, serr)
		}
		if !bytes.Equal(fraw, sraw) {
			t.Fatalf("%T pixels of %q differ between the paths", strict, body)
		}
		if f == in.at {
			f.Pix = cut
		}
	}
	if !reflect.DeepEqual(fast, strict) {
		t.Fatalf("%T decode of %q: fast path %+v, strict %+v", strict, body, fast, strict)
	}
	return fastPath
}

// envelopeCases are bodies around the fast path's preconditions: name →
// body and whether the fast path must take it.
var envelopeCases = []struct {
	name string
	body string
	fast bool
}{
	{"plain", `{"scene":{"h":1,"w":1,"c":1,"pix_b64":"AAAAAAAA8D8="},"kernel":"edge"}`, true},
	{"session line", `{"scene":{"h":1,"w":1,"c":1,"pix_b64":"AAAAAAAA8D8="}}`, true},
	{"plane", `{"plane":{"h":1,"w":1,"c":1,"pix_b64":"AAAAAAAA8D8="},"model":"tiny-cnn","seed":3}`, true},
	{"trailing bytes", `{"scene":{"h":1,"w":1,"c":1,"pix_b64":"AAAAAAAA8D8="}} trailing {`, true},
	{"bad base64", `{"scene":{"h":1,"w":1,"c":1,"pix_b64":"AAA!"},"kernel":"edge"}`, true},
	{"bad dims", `{"scene":{"h":-1,"w":1,"c":1,"pix_b64":"AAAAAAAA8D8="}}`, true},
	{"escaped slash in value", `{"scene":{"h":1,"w":1,"c":1,"pix_b64":"AAAAAAAA\/D8="}}`, false},
	{"escaped key", `{"scene":{"h":1,"w":1,"c":1,"pix\u005fb64":"AAAAAAAA8D8="}}`, false},
	{"escaped key beside exact", `{"scene":{"h":1,"w":1,"c":1,"pix_b64":"AAAAAAAA8D8=","pix\u005fb64":"AAAAAAAA/D8="}}`, false},
	{"duplicate key", `{"scene":{"h":1,"w":1,"c":1,"pix_b64":"AAAAAAAA8D8=","pix_b64":"AAAAAAAA/D8="}}`, false},
	{"upper-case duplicate", `{"scene":{"h":1,"w":1,"c":1,"PIX_B64":"AAAAAAAA/D8=","pix_b64":"AAAAAAAA8D8="}}`, false},
	{"upper-case key only", `{"scene":{"h":1,"w":1,"c":1,"PIX_B64":"AAAAAAAA8D8="}}`, false},
	{"key only in trailing bytes", `{"scene":{"h":1,"w":1,"c":1}} {"scene":{"pix_b64":"AAAAAAAA8D8="}}`, false},
	{"key in first and trailing", `{"scene":{"h":1,"w":1,"c":1,"pix_b64":"AAAAAAAA8D8="}} {"pix_b64":"AAAA"}`, false},
	{"dotless-i key", `{"scene":{"h":1,"w":1,"c":1,"p` + "ı" + `x_b64":"AAAAAAAA8D8="}}`, false},
	{"long-s field beside key", `{"` + "ſ" + `cene":{"h":1,"w":1,"c":1,"pix_b64":"AAAAAAAA8D8="}}`, false},
	{"non-ASCII value", `{"scene":{"h":1,"w":1,"c":1,"pix_b64":"AAAAAAAA8D8` + "é" + `"}}`, false},
	{"control byte in value", "{\"scene\":{\"h\":1,\"w\":1,\"c\":1,\"pix_b64\":\"AAAAAAAA\n8D8=\"}}", false},
	{"spaced colon", `{"scene":{"h":1,"w":1,"c":1,"pix_b64" : "AAAAAAAA8D8="}}`, false},
	{"key as a value", `{"kernel":"pix_b64":"AAAA"}`, false},
	{"unknown field", `{"scene":{"h":1,"w":1,"c":1,"pix_b64":"AAAAAAAA8D8="},"extra":1}`, false},
	{"unterminated value", `{"scene":{"h":1,"w":1,"c":1,"pix_b64":"AAAA`, false},
	{"value in unknown object", `{"other":{"pix_b64":"AAAAAAAA8D8="}}`, false},
}

// TestEnvelopeFastPath pins which bodies take the fast path, and that
// each decodes exactly as the strict decode does, for every request
// type that carries images.
func TestEnvelopeFastPath(t *testing.T) {
	for _, tc := range envelopeCases {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			// A body may fit only some of the types; the fast path must
			// take it for at least one exactly when the case says so.
			got := sameDecode[ProcessRequest](t, body)
			got = sameDecode[CaptureRequest](t, body) || got
			got = sameDecode[InferRequest](t, body) || got
			got = sameDecode[SessionFrame](t, body) || got
			if got != tc.fast {
				t.Errorf("fast path taken = %v, want %v", got, tc.fast)
			}
		})
	}
	// The committed golden request bodies are what clients send: each
	// must take the fast path.
	for name, decode := range map[string]func(*testing.T, []byte) bool{
		"process_request.json":     sameDecode[ProcessRequest],
		"capture_request.json":     sameDecode[CaptureRequest],
		"compress_request.json":    sameDecode[CompressRequest],
		"infer_scene_request.json": sameDecode[InferRequest],
		"infer_plane_request.json": sameDecode[InferRequest],
		"session_frame.json":       sameDecode[SessionFrame],
	} {
		body, err := os.ReadFile(filepath.Join("testdata", "wire", name))
		if err != nil {
			t.Fatal(err)
		}
		if !decode(t, body) {
			t.Errorf("%s: fast path not taken", name)
		}
	}
}

// FuzzEnvelopeDecode: on any bytes, the fast path and the strict decode
// give the same request and pixels, or the same error. The seed corpus
// is FuzzProcessRequest's plus the precondition cases above.
func FuzzEnvelopeDecode(f *testing.F) {
	for _, kernel := range []string{"reconstruct", "reconstruct-direct", "reconstruct-cg", "edge"} {
		f.Add(processBody(f, 16, 16, kernel))
	}
	for _, body := range []string{
		`{`,
		`{"scene":{"h":1,"w":1,"c":1,"pix_b64":"zzz"},"kernel":"edge"}`,
		`{"scene":{"h":-4,"w":70000,"c":3,"pix_b64":""},"kernel":"reconstruct"}`,
		`{"kernel":"no-such-kernel"}`,
		`{"unknown_field":1}`,
	} {
		f.Add([]byte(body))
	}
	for _, tc := range envelopeCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameDecode[ProcessRequest](t, body)
		sameDecode[InferRequest](t, body)
		sameDecode[SessionFrame](t, body)
	})
}

// BenchmarkEnvelopeDecode times one 256×256×3 /v1/process body from
// bytes to raw samples, on the fast path and on the strict decode the
// fast path replaces.
func BenchmarkEnvelopeDecode(b *testing.B) {
	body := processBody(b, 256, 256, "edge")
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for range b.N {
			var req ProcessRequest
			in, err := decodeEnvelope(body, &req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := in.pixels(&req.Scene); err != nil {
				b.Fatal(err)
			}
			in.release()
		}
	})
	b.Run("strict", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for range b.N {
			var req ProcessRequest
			if err := decodeStrict(body, &req); err != nil {
				b.Fatal(err)
			}
			if _, err := validateImageWire(req.Scene); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestReadEnvelopeIgnoresClaimedLength: the buffer a body is read into
// grows with the bytes that arrive, not with the Content-Length the
// client claims. A request that claims the whole 64 MB cap and sends a
// few bytes must not make the server allocate anything near 64 MB.
func TestReadEnvelopeIgnoresClaimedLength(t *testing.T) {
	const body = `{"model":"tiny-cnn"}`
	r := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(body))
	r.ContentLength = maxBodyBytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req SimulateRequest
	_, err := readEnvelope(r, &req)
	runtime.ReadMemStats(&after)
	if err != nil || req.Model != "tiny-cnn" {
		t.Fatalf("decode: %+v, %v", req, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a %d-byte body claiming %d bytes allocated %d bytes", len(body), maxBodyBytes, got)
	}
}
