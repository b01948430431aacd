// The envelope decoder: the one path every request body and every
// session frame line takes from bytes to a typed request.
//
// A scene body is ~2 MB, and all but a few hundred bytes of it are one
// base64 string, the "pix_b64" value. Running encoding/json's scanner
// over that string byte by byte cost more than capture, CA and the
// kernel together (docs/PERF.md#request-ingest). The fast path cuts the
// value out, strict-decodes the small remainder with a sentinel string
// in the value's place, and base64-decodes the cut slice in fixed
// strides straight into the pooled scene, feeding the cache key's hash
// on the same pass, so the scene's samples are never held as raw bytes.
// It runs only when cheap checks prove that the remainder decodes
// exactly as the whole body would; every other body takes the strict
// encoding/json decode, so both paths accept and reject the same bodies
// and images (FuzzEnvelopeDecode holds them against each other).
package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"

	"lightator/internal/sensor"
)

// pixKey is the key of the one JSON string the fast path cuts out.
const pixKey = `"pix_b64"`

// sentinel stands in for the cut value in the remainder. It decodes to
// "\x00", which no body can spell without a backslash or a raw control
// byte, and the fast path refuses both: a wire image holding "\x00"
// after the remainder decode is the cut value's image and no other.
const (
	sentinel      = `\u0000`
	sentinelValue = "\x00"
)

// maxPooled caps the buffers returned to the pools (8x a 256x256 RGB
// scene body), so one outsized body does not stay pinned in a pool.
const maxPooled = 16 << 20

// bodyPool holds request-body buffers.
var bodyPool sync.Pool

// getBuf checks out a buffer of length n, reusing a pooled one with the
// capacity.
func getBuf(pool *sync.Pool, n int) *[]byte {
	if p, ok := pool.Get().(*[]byte); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n)
	return &b
}

// putBuf returns a buffer to its pool; nil and oversized buffers are
// dropped.
func putBuf(pool *sync.Pool, p *[]byte) {
	if p != nil && cap(*p) <= maxPooled {
		pool.Put(p)
	}
}

// imageCarrier is implemented by the requests that carry wire images;
// only their bodies are eligible for the fast path.
type imageCarrier interface {
	wireImages() [2]*ImageWire
}

func (e *Envelope) wireImages() [2]*ImageWire     { return [2]*ImageWire{&e.Scene} }
func (r *InferRequest) wireImages() [2]*ImageWire { return [2]*ImageWire{r.Scene, r.Plane} }
func (f *SessionFrame) wireImages() [2]*ImageWire { return [2]*ImageWire{&f.Scene} }

// ingest is one decoded body. After the fast path, at is the wire image
// whose pix_b64 value was cut out: at.Pix is empty and cut is the
// value's bytes, still inside the body buffer until scene decodes it.
type ingest struct {
	body *[]byte
	at   *ImageWire
	cut  []byte
}

// release returns the body buffer to its pool, if scene has not
// already.
func (in *ingest) release() {
	putBuf(&bodyPool, in.body)
	in.body, in.cut = nil, nil
}

// readEnvelope reads r's body whole into a pooled buffer and decodes it
// into v. The 64 MB cap (instrument's MaxBytesReader) covers the whole
// body: bytes after the first JSON value are ignored, as they always
// were, but they count towards the cap. The body buffer stays checked
// out only while the fast path's cut value lives in it, that is until
// scene decodes the cut; callers release the ingest once done with it.
func readEnvelope[T any](r *http.Request, v *T) (ingest, error) {
	body, err := readBody(r.Body, r.ContentLength)
	if err != nil {
		return ingest{}, fmt.Errorf("server: request body: %w", err)
	}
	in, err := decodeEnvelope(*body, v)
	if err != nil {
		putBuf(&bodyPool, body)
		return ingest{}, fmt.Errorf("server: request body: %w", err)
	}
	if in.cut == nil {
		putBuf(&bodyPool, body)
	} else {
		in.body = body
	}
	return in, nil
}

// minRead is the first capacity readBody gives an empty buffer.
const minRead = 512

// readBody reads r to EOF into a pooled buffer. The buffer grows only as
// bytes arrive, doubling, so a client makes the server hold at most about
// twice what it has sent. The Content-Length hint only caps a step, so a
// body that declares its length ends in a buffer of that size and is
// not copied once more at EOF.
func readBody(r io.Reader, hint int64) (*[]byte, error) {
	p := getBuf(&bodyPool, 0)
	b := *p
	for {
		if len(b) == cap(b) {
			n := max(2*cap(b), minRead)
			if hint >= int64(len(b)) && hint < int64(n) {
				// +1 leaves room for a read that reports EOF on its own.
				n = int(hint) + 1
			}
			b = slices.Grow(b, n-len(b))
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*p = b
			if err == io.EOF {
				return p, nil
			}
			putBuf(&bodyPool, p)
			return nil, err
		}
	}
}

// decodeEnvelope decodes one body held in data into v: the fast path
// when it applies, the strict decode otherwise. The ingest refers into
// data, which must outlive its scene call.
func decodeEnvelope[T any](data []byte, v *T) (ingest, error) {
	if in, ok := cutPixels(data, v); ok {
		return in, nil
	}
	// A fast-path attempt may have decoded fields before it gave up.
	*v = *new(T)
	return ingest{}, decodeStrict(data, v)
}

// decodeStrict is the reference decode: encoding/json over the whole
// body, unknown fields rejected, the first JSON value taken and the
// bytes after it ignored.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// cutPixels is the fast path. It applies when v carries wire images and
//   - the exact key "pix_b64" occurs and its first occurrence opens a
//     string value (valueStart), and an ASCII case-folded
//     pix_b64" occurs exactly once in the remainder, so no other key can
//     map to the field (the value holds no quote, so it holds neither);
//   - the value is printable ASCII without a backslash, so as a JSON
//     string it decodes to exactly its bytes;
//   - the remainder is ASCII without a backslash, so no escaped or
//     Unicode-folded spelling of the key hides in it;
//   - the remainder decodes, and exactly one of v's wire images holds the
//     sentinel, which places the value inside the first JSON value.
//
// Under these the whole body decodes to the same v with the value in
// that image's Pix. ok is false, and v possibly half-filled, otherwise.
func cutPixels[T any](data []byte, v *T) (in ingest, ok bool) {
	c, ok := any(v).(imageCarrier)
	if !ok {
		return ingest{}, false
	}
	start, ok := valueStart(data)
	if !ok {
		return ingest{}, false
	}
	n := bytes.IndexByte(data[start:], '"')
	if n < 0 {
		return ingest{}, false
	}
	end := start + n
	value := data[start:end]
	if !plainASCII(value, 0x20) {
		return ingest{}, false
	}
	head, tail := data[:start], data[end:]
	if !plainASCII(head, 0) || !plainASCII(tail, 0) {
		return ingest{}, false
	}
	rem := make([]byte, 0, len(head)+len(sentinel)+len(tail))
	rem = append(append(append(rem, head...), sentinel...), tail...)
	if foldedKeys(rem) != 1 || decodeStrict(rem, v) != nil {
		return ingest{}, false
	}
	for _, w := range c.wireImages() {
		if w != nil && w.Pix == sentinelValue {
			if in.at != nil {
				return ingest{}, false
			}
			in.at = w
		}
	}
	if in.at == nil {
		return ingest{}, false
	}
	in.at.Pix = ""
	in.cut = value
	return in, true
}

// valueStart returns the offset just past the quote that opens the value
// of the first "pix_b64" in data: the key, JSON whitespace, the colon,
// whitespace, then the quote, as encoders spell it with or without
// spacing (Python's json.dumps writes "pix_b64": "). ok is false when the
// first "pix_b64" is not so followed. The bytes up to the value are the
// remainder's head, which cutPixels proves decodes as in the whole body.
func valueStart(data []byte) (int, bool) {
	k := bytes.Index(data, []byte(pixKey))
	if k < 0 {
		return 0, false
	}
	i := skipSpace(data, k+len(pixKey))
	if i == len(data) || data[i] != ':' {
		return 0, false
	}
	i = skipSpace(data, i+1)
	if i == len(data) || data[i] != '"' {
		return 0, false
	}
	return i + 1, true
}

// skipSpace returns the offset of the first byte at or after i that is
// not JSON whitespace (space, tab, CR, LF).
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// plainASCII reports whether every byte of b is at least lo, below 0x80
// and not a backslash. With lo 0x20, b as the body of a JSON string
// decodes to exactly its bytes.
func plainASCII(b []byte, lo byte) bool {
	for _, c := range b {
		if c < lo || c >= 0x80 || c == '\\' {
			return false
		}
	}
	return true
}

// foldedKeys counts the ASCII case-insensitive occurrences of pix_b64"
// in b.
func foldedKeys(b []byte) int {
	const key, tail = `pix_b64"`, `64"`
	n := 0
	for i := 0; ; {
		j := bytes.Index(b[i:], []byte(tail))
		if j < 0 {
			return n
		}
		i += j + len(tail)
		if i >= len(key) && bytes.EqualFold(b[i-len(key):i], []byte(key)) {
			n++
		}
	}
}

// scene validates w and returns its samples in a pooled image, exactly
// as validateImageWire and imageFromRaw would: the same samples, or the
// same error with no image. When h is non-nil it also writes the raw
// little-endian sample bytes to h as one writePart part, so the cache
// key needs no copy of them. For the image the fast path cut out, the
// cut value is decoded in b64Stride strides straight into the image and
// h, and the body buffer it lay in goes back to its pool.
func (in *ingest) scene(w *ImageWire, h hash.Hash) (*sensor.Image, error) {
	if w != in.at {
		raw, err := validateImageWire(*w)
		if err != nil {
			return nil, err
		}
		if h != nil {
			writePart(h, raw)
		}
		return imageFromRaw(*w, raw), nil
	}
	defer in.release()
	if err := checkImageDims(*w); err != nil {
		return nil, err
	}
	want := 8 * w.H * w.W * w.C
	if decodedLen(in.cut) != want {
		// The value cannot decode to the claimed samples. Scan it, output
		// discarded, for the error the whole-value decode would give;
		// no image is taken, so a small body claiming huge dims
		// allocates nothing by them.
		n, err := decodeStrides(in.cut, nil)
		return nil, checkImagePix(*w, n, err)
	}
	im := getScene(w.H, w.W, w.C)
	if h != nil {
		writeUint64(h, uint64(want))
	}
	pix := im.Pix
	_, err := decodeStrides(in.cut, func(b []byte) {
		if h != nil {
			h.Write(b)
		}
		dst := pix[:len(b)/8]
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		pix = pix[len(dst):]
	})
	if err != nil {
		putScene(im)
		return nil, checkImagePix(*w, 0, err)
	}
	return im, nil
}

// b64Stride is the span of a cut value decoded at once: 4096 base64
// characters, 3072 bytes, 384 float64 samples.
const b64Stride = 4096

// decodedLen is the length the whole-value decode of v gives when it
// succeeds; -1 when v's length alone rules success out.
func decodedLen(v []byte) int {
	if len(v)%4 != 0 {
		return -1
	}
	n := len(v) / 4 * 3
	for i := len(v) - 1; i >= len(v)-2 && i >= 0 && v[i] == '='; i-- {
		n--
	}
	return n
}

// decodeStrides base64-decodes v stride by stride, handing each decoded
// stride to emit (when non-nil), and returns what
// base64.StdEncoding.Decode over all of v returns: the decoded length,
// or the same CorruptInputError at the same offset into v. v holds no
// '\r' or '\n' (the fast path admits only printable ASCII), so every
// stride starts on a quantum of the whole value and decodes as that
// span of the whole decode does, with two exceptions handled here:
// offsets count from the stride, and a padded quantum may end a stride
// cleanly while the whole value goes on after it.
func decodeStrides(v []byte, emit func([]byte)) (int, error) {
	var buf [b64Stride / 4 * 3]byte
	n := 0
	for off := 0; off < len(v); off += b64Stride {
		end := min(off+b64Stride, len(v))
		m, err := base64.StdEncoding.Decode(buf[:], v[off:end])
		if err != nil {
			return n, err.(base64.CorruptInputError) + base64.CorruptInputError(off)
		}
		if end < len(v) && v[end-1] == '=' {
			// The whole decode reads the padding as the end of the data
			// and the next stride as trailing garbage.
			return n, base64.CorruptInputError(end)
		}
		if emit != nil {
			emit(buf[:m])
		}
		n += m
	}
	return n, nil
}
