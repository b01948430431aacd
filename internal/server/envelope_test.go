// Tests of the envelope decoder (envelope.go) from inside the package:
// the fast path is held against the strict encoding/json decode on the
// same bytes, for every request type that carries wire images.
package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
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
// Pix) and, image by image, what sameScene compares, or the same error.
// It reports whether the fast path ran.
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
	// scene consumes the cut value, so keep it to restore into Pix.
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
		sameScene(t, &in, f, *s)
		if f == in.at {
			f.Pix = cut
		}
	}
	if !reflect.DeepEqual(fast, strict) {
		t.Fatalf("%T decode of %q: fast path %+v, strict %+v", strict, body, fast, strict)
	}
	return fastPath
}

// sameScene fails unless in.scene on f and the strict path on s
// (validateImageWire, then imageFromRaw) give the same image, sample for
// sample bit-equal, and the same cache-key part, or the same error text.
func sameScene(t *testing.T, in *ingest, f *ImageWire, s ImageWire) {
	t.Helper()
	fh, sh := keyHash("test", 0), keyHash("test", 0)
	fimg, ferr := in.scene(f, fh)
	raw, serr := validateImageWire(s)
	if (ferr == nil) != (serr == nil) || (ferr != nil && ferr.Error() != serr.Error()) {
		t.Fatalf("scene %dx%dx%d: fast path error %v, strict error %v", s.H, s.W, s.C, ferr, serr)
	}
	if ferr != nil {
		return
	}
	simg := imageFromRaw(s, raw)
	defer putScene(fimg)
	defer putScene(simg)
	if fimg.H != simg.H || fimg.W != simg.W || fimg.C != simg.C || len(fimg.Pix) != len(simg.Pix) {
		t.Fatalf("scene is %dx%dx%d (%d samples) on the fast path, %dx%dx%d (%d) strictly",
			fimg.H, fimg.W, fimg.C, len(fimg.Pix), simg.H, simg.W, simg.C, len(simg.Pix))
	}
	for i := range fimg.Pix {
		if math.Float64bits(fimg.Pix[i]) != math.Float64bits(simg.Pix[i]) {
			t.Fatalf("sample %d is %x on the fast path, %x strictly", i, math.Float64bits(fimg.Pix[i]), math.Float64bits(simg.Pix[i]))
		}
	}
	writePart(sh, raw)
	if sumKey(fh) != sumKey(sh) {
		t.Fatalf("scene %dx%dx%d: the streamed key part differs from the raw bytes' part", s.H, s.W, s.C)
	}
}

// sceneLine is a session frame line around a wire image with the given
// dims and pix_b64 value, which need not be valid.
func sceneLine(h, w, c int, pix string) string {
	return fmt.Sprintf(`{"scene":{"h":%d,"w":%d,"c":%d,"pix_b64":"%s"}}`, h, w, c, pix)
}

// strideCases cross the b64Stride boundaries the fast path decodes in,
// where a stride can decode cleanly while the whole value fails. Each
// must decide exactly as the whole-value decode does.
var strideCases = func() []struct{ name, body string } {
	const s = b64Stride
	a := func(n int) string { return strings.Repeat("A", n) }
	// 1x256x3 samples are 6144 bytes: 8192 characters, two strides.
	valid := wireScene(1, 256, 3).Pix
	bang := []byte(valid)
	bang[s+904] = '!'
	// 1x385x1 samples are 3080 bytes: one padding character after the
	// first stride.
	padded := wireScene(1, 385, 1).Pix
	// 1x386x1 samples are 3088 bytes: two padding characters.
	padded2 := wireScene(1, 386, 1).Pix
	// 1x390x1 samples are 3120 bytes and need no padding; padding the
	// last quantum leaves the value two bytes short.
	short := wireScene(1, 390, 1).Pix
	short = short[:len(short)-2] + "=="
	return []struct{ name, body string }{
		{"two strides", sceneLine(1, 256, 3, valid)},
		{"padded last stride", sceneLine(1, 385, 1, padded)},
		{"two pads in the last stride", sceneLine(1, 386, 1, padded2)},
		{"value of one exact stride", sceneLine(1, 128, 3, a(s))},
		{"padding ends the first stride", sceneLine(1, 256, 3, a(s-4)+"AA=="+a(s))},
		{"one pad ends the first stride", sceneLine(1, 256, 3, a(s-4)+"AAA="+a(s))},
		{"padding ends the first stride, dims short", sceneLine(1, 2, 1, a(s-4)+"AA=="+a(s))},
		{"padding ends the value on a stride", sceneLine(1, 255, 3, a(2*s-4)+"AA==")},
		{"padding mid second stride", sceneLine(1, 256, 3, a(s+8)+"AA=="+a(s-12))},
		{"padding leaves the value short", sceneLine(1, 390, 1, short)},
		{"corrupt byte in the second stride", sceneLine(1, 256, 3, string(bang))},
		{"corrupt byte in the second stride, dims short", sceneLine(1, 1, 1, string(bang))},
		{"partial quantum after a stride", sceneLine(1, 256, 3, a(s+2))},
		{"dims claim 65536x65536x3", sceneLine(65536, 65536, 3, "AAAA")},
	}
}()

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
	// Full 16x16 bodies, one per kernel: unit cases rather than fuzz
	// seeds, since bodies this large slow the fuzzer's mutation loop to a
	// few execs a second.
	for _, kernel := range []string{"reconstruct", "reconstruct-direct", "reconstruct-cg", "edge"} {
		if !sameDecode[ProcessRequest](t, processBody(t, 16, 16, kernel)) {
			t.Errorf("16x16 %s body: fast path not taken", kernel)
		}
	}
}

// TestEnvelopeStrides holds the fast path's stride-wise decode against
// the whole-value decode where the two could part: padding, corrupt
// bytes and short values on either side of a stride boundary, and dims
// the value cannot fill.
func TestEnvelopeStrides(t *testing.T) {
	for _, tc := range strideCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, body := range []string{tc.body, strings.Replace(tc.body, `"scene"`, `"plane"`, 1)} {
				fast := sameDecode[SessionFrame](t, []byte(body))
				if !sameDecode[InferRequest](t, []byte(body)) && !fast {
					t.Fatalf("fast path not taken")
				}
			}
		})
	}
}

// TestSceneAllocBoundedByBody: a small body whose dims claim a
// 65536x65536x3 scene is refused without allocating by its dims; the
// value's length rules the scene out before one is taken.
func TestSceneAllocBoundedByBody(t *testing.T) {
	body := []byte(sceneLine(65536, 65536, 3, "AAAA"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var f SessionFrame
	in, err := decodeEnvelope(body, &f)
	if err != nil || in.at != &f.Scene {
		t.Fatalf("decode: %v (fast path %v)", err, in.at != nil)
	}
	_, err = in.scene(&f.Scene, keyHash("test", 0))
	runtime.ReadMemStats(&after)
	const want = "server: image pixel data is 3 bytes, want 103079215104 (12884901888 float64 samples)"
	if err == nil || err.Error() != want {
		t.Fatalf("scene error %v, want %s", err, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a %d-byte body claiming 65536x65536x3 allocated %d bytes", len(body), got)
	}
}

// TestDecodeStridesMatchesWholeDecode: on values up to three strides
// long, around each stride boundary, with up to three bytes replaced by
// padding, a byte outside the alphabet or an alphabet byte, the
// stride-wise decode gives what base64.StdEncoding.Decode over the
// whole value gives: the same bytes and length, or the same error.
func TestDecodeStridesMatchesWholeDecode(t *testing.T) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	rng := rand.New(rand.NewSource(1))
	// near picks one of a stride's last two bytes, a position within 6
	// of a stride boundary, or any position.
	near := func(n int) int {
		k := b64Stride * rng.Intn(n/b64Stride+1)
		switch rng.Intn(3) {
		case 0:
			return min(max(k-1-rng.Intn(2), 0), n-1)
		case 1:
			return min(max(k+rng.Intn(13)-6, 0), n-1)
		}
		return rng.Intn(n)
	}
	for range 3000 {
		n := b64Stride*rng.Intn(3) + rng.Intn(b64Stride+9) - 4
		if n <= 0 {
			continue
		}
		v := make([]byte, n)
		for i := range v {
			v[i] = alphabet[rng.Intn(len(alphabet))]
		}
		for range rng.Intn(4) {
			v[near(n)] = "==!A"[rng.Intn(4)]
		}
		switch rng.Intn(3) { // end in padding two times in three
		case 0:
			v[n-1] = '='
		case 1:
			v[n-1], v[max(n-2, 0)] = '=', '='
		}
		whole := make([]byte, base64.StdEncoding.DecodedLen(n))
		wn, werr := base64.StdEncoding.Decode(whole, v)
		var got []byte
		gn, gerr := decodeStrides(v, func(b []byte) { got = append(got, b...) })
		if gerr != werr || (werr == nil && (gn != wn || !bytes.Equal(got, whole[:wn]))) {
			t.Fatalf("value of %d bytes %q...%q: strides give %d, %v; whole decode %d, %v", n, v[:min(n, 8)], v[max(n-8, 0):], gn, gerr, wn, werr)
		}
		if werr == nil && decodedLen(v) != wn {
			t.Fatalf("decodedLen %d, whole decode %d", decodedLen(v), wn)
		}
	}
}

// FuzzEnvelopeDecode: on any bytes, the fast path and the strict decode
// give the same request and images, or the same error. The seeds are
// small (no scene above 2x2), so the mutator runs tens of thousands of
// execs a second rather than a few; the large bodies, which cross decode
// strides, are the unit cases of TestEnvelopeFastPath and
// TestEnvelopeStrides, and TestDecodeStridesMatchesWholeDecode
// randomises around the stride boundaries.
func FuzzEnvelopeDecode(f *testing.F) {
	for _, kernel := range []string{"reconstruct", "reconstruct-direct", "reconstruct-cg", "edge"} {
		f.Add(processBody(f, 2, 2, kernel))
	}
	for _, body := range []string{
		`{`,
		`{"scene":{"h":1,"w":1,"c":1,"pix_b64":"zzz"},"kernel":"edge"}`,
		`{"scene":{"h":-4,"w":70000,"c":3,"pix_b64":""},"kernel":"reconstruct"}`,
		`{"kernel":"no-such-kernel"}`,
		`{"unknown_field":1}`,
		sceneLine(2, 2, 1, "AAAAAAAAAAAAAAAAAADQPwAAAAAAAOA/AAAAAAAA6D8="),
		sceneLine(65536, 65536, 3, "AAAA"),
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
// bytes to a pooled scene, on the fast path and on the strict decode the
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
			img, err := in.scene(&req.Scene, nil)
			if err != nil {
				b.Fatal(err)
			}
			putScene(img)
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
			raw, err := validateImageWire(req.Scene)
			if err != nil {
				b.Fatal(err)
			}
			putScene(imageFromRaw(req.Scene, raw))
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
