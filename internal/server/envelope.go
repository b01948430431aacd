// The envelope decoder: the one path every request body and every
// session frame line takes from bytes to a typed request.
//
// A scene body is ~2 MB, and all but a few hundred bytes of it are one
// base64 string, the "pix_b64" value. Running encoding/json's scanner
// over that string byte by byte cost more than capture, CA and the
// kernel together (docs/PERF.md#request-ingest), and holding the body
// whole to cut the string out was the largest item left resident on the
// scene endpoints (docs/PERF.md#streamed-scene-ingest). So a body that
// carries wire images is streamed. The decoder buffers its head until
// the pix_b64 value opens, base64-decodes the value in fixed strides
// through a fixed read window as it arrives, straight into a pooled
// scene, and reads the tail to EOF. A sentinel string stands in for the
// value in head + tail, the remainder, which is strict-decoded once
// cheap checks prove that it decodes exactly as the whole body would.
// A body that fails the proof is rebuilt byte for byte and takes the
// strict encoding/json decode, so both paths accept and reject the same
// bodies and images (FuzzEnvelopeDecode and FuzzEnvelopeStream hold
// them against each other). Every other body is read whole into a
// pooled buffer and strict-decoded. A session frame line is such a body:
// the stream's line reader (frameLines, session.go) hands the decoder one
// line at a time and ends it at its newline, so a line is never held
// whole either.
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

// pixKey is the key of the one JSON string the decoder streams.
const pixKey = `"pix_b64"`

// sentinel stands in for the streamed value in the remainder. It
// decodes to "\x00", which no body can spell without a backslash or a
// raw control byte, and the proof refuses both: a wire image holding
// "\x00" after the remainder decode is the streamed value's image and no
// other.
const (
	sentinel      = `\u0000`
	sentinelValue = "\x00"
)

// maxPooled caps the buffers returned to the pools (8x a 256x256 RGB
// scene body), so one outsized body does not stay pinned in a pool.
const maxPooled = 16 << 20

// readWindow is the span of a streamed value read at once: eight
// b64Stride strides.
const readWindow = 8 * b64Stride

// hintLead bounds how far ahead of the body the declared length may size
// a sample buffer: to at most hintLead times the bytes received. A
// 256x256x3 scene's 1.5 MB of samples is 48 times the first read window.
const hintLead = 64

// bodyPool holds request-body buffers: whole bodies, streamed bodies'
// remainders and kept value bytes. windowPool holds read windows.
var bodyPool, windowPool sync.Pool

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
// only their bodies are streamed.
type imageCarrier interface {
	wireImages() [2]*ImageWire
}

func (e *Envelope) wireImages() [2]*ImageWire     { return [2]*ImageWire{&e.Scene} }
func (r *InferRequest) wireImages() [2]*ImageWire { return [2]*ImageWire{r.Scene, r.Plane} }
func (f *SessionFrame) wireImages() [2]*ImageWire { return [2]*ImageWire{&f.Scene} }

// ingest is one decoded body, the request's one owner of its pooled
// buffers. After the fast path, at is the wire image whose pix_b64 value
// was streamed and at.Pix is empty. The value's leading strides, base
// characters of it, were decoded on arrival into pix's samples (nil when
// none were); body holds its raw bytes from there on (for a valid value,
// its last partial stride, if any), which scene decodes into pix. resp
// is the response body a frame endpoint appends (handleFrame).
type ingest struct {
	at   *ImageWire
	pix  *sensor.Image
	body *[]byte
	base int
	resp *[]byte
}

// release returns the ingest's buffers to their pools: the body, the
// scene, unless take handed the scene on, and the response body.
func (in *ingest) release() {
	putBuf(&bodyPool, in.body)
	if in.pix != nil {
		putScene(in.pix)
	}
	putBuf(&respPool, in.resp)
	in.body, in.pix, in.resp = nil, nil, nil
}

// take hands the ingest's scene to a new owner, which returns it to the
// pool once nothing reads it.
func (in *ingest) take() *sensor.Image {
	im := in.pix
	in.pix = nil
	return im
}

// readEnvelope decodes r's body into v: streamed when v carries wire
// images, read whole otherwise. The 64 MB cap (instrument's
// MaxBytesReader) covers the whole body: bytes after the first JSON
// value are ignored, as they always were, but they are read and count
// towards the cap. Callers release the ingest once done with it.
func readEnvelope[T any](r *http.Request, v *T) (ingest, error) {
	in, err := decodeStream(r.Body, r.ContentLength, v)
	if err != nil {
		return ingest{}, fmt.Errorf("server: request body: %w", err)
	}
	return in, nil
}

// decodeStream decodes the body r delivers into v; hint is its declared
// length, or -1. When v carries wire images and the remainder proves
// sound, the ingest holds the streamed value's image; otherwise the
// body takes the strict decode.
func decodeStream[T any](r io.Reader, hint int64, v *T) (ingest, error) {
	if _, ok := any(v).(imageCarrier); !ok {
		body, err := readBody(r, hint)
		if err != nil {
			return ingest{}, err
		}
		defer putBuf(&bodyPool, body)
		return ingest{}, decodeStrict(*body, v)
	}
	s := bodyStream{r: r, hint: hint}
	defer s.free()
	start, ok, err := s.readHead()
	if err != nil {
		return ingest{}, err
	}
	if !ok {
		return ingest{}, decodeStrict(*s.rem, v)
	}
	closed, err := s.readValue(start)
	if err != nil {
		return ingest{}, err
	}
	if closed {
		if at := s.prove(v); at != nil {
			in := ingest{at: at, pix: s.pix, body: s.kept, base: s.base}
			s.pix, s.kept = nil, nil
			return in, nil
		}
		// The proof may have decoded fields before it failed.
		*v = *new(T)
	}
	body := s.rebuild(closed)
	defer putBuf(&bodyPool, body)
	return ingest{}, decodeStrict(*body, v)
}

// decodeStrict is the reference decode: encoding/json over the whole
// body, unknown fields rejected, the first JSON value taken and the
// bytes after it ignored.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// minRead is the first capacity an empty body buffer is given.
const minRead = 512

// readBody reads r to EOF into a pooled buffer.
func readBody(r io.Reader, hint int64) (*[]byte, error) {
	p := getBuf(&bodyPool, 0)
	for {
		if _, err := readMore(r, p, hint, maxBodyBytes); err != nil {
			if err == io.EOF {
				return p, nil
			}
			putBuf(&bodyPool, p)
			return nil, err
		}
	}
}

// readMore reads once from r onto the end of *p, at most limit bytes.
// The buffer grows only as bytes arrive, doubling, so a client makes
// the server hold at most about twice what it has sent. When *p holds a
// body from its first byte, hint is the body's declared length (-1
// otherwise): it only caps a step, so a body that declares its length
// ends in a buffer of that size and is not copied once more at EOF.
func readMore(r io.Reader, p *[]byte, hint int64, limit int) (int, error) {
	b := *p
	if len(b) == cap(b) {
		n := max(2*cap(b), minRead)
		if hint >= int64(len(b)) && hint < int64(n) {
			// +1 leaves room for a read that reports EOF on its own.
			n = int(hint) + 1
		}
		b = slices.Grow(b, n-len(b))
	}
	n, err := r.Read(b[len(b):min(cap(b), len(b)+limit)])
	*p = b[:len(b)+n]
	return n, err
}

// bodyStream is one image-carrying body on its way through the decoder.
type bodyStream struct {
	r    io.Reader
	hint int64 // declared body length; -1 when unknown
	read int64 // body bytes received

	// rem holds the head, the body up to the pix_b64 value, head bytes
	// long; once the value has closed, the remainder: head, sentinel,
	// tail.
	rem  *[]byte
	head int
	win  *[]byte

	// The value: its leading strides, base characters, decoded into
	// pix's samples; kept holds its raw bytes from the first stride not
	// so decoded on.
	pix  *sensor.Image
	base int
	kept *[]byte
}

// free returns the stream's buffers to their pools.
func (s *bodyStream) free() {
	putBuf(&bodyPool, s.rem)
	putBuf(&windowPool, s.win)
	putBuf(&bodyPool, s.kept)
	if s.pix != nil {
		putScene(s.pix)
	}
}

// readMore reads once onto the end of *p, counting the bytes received.
func (s *bodyStream) readMore(p *[]byte, hint int64, limit int) error {
	n, err := readMore(s.r, p, hint, limit)
	s.read += int64(n)
	return err
}

// readRest reads the rest of the body onto the end of s.rem; hint as
// readMore takes it.
func (s *bodyStream) readRest(hint int64) error {
	for {
		if err := s.readMore(s.rem, hint, maxBodyBytes); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// readHead reads the body into s.rem until the value of its first
// "pix_b64" opens, and returns the offset the value starts at. ok is
// false when that key does not open a string value or the body ends
// first; the whole body is then in s.rem. A read takes at most one
// window, so the value bytes read with the head fit the read window.
func (s *bodyStream) readHead() (start int, ok bool, err error) {
	s.rem = getBuf(&bodyPool, 0)
	key, from, eof := -1, 0, false
	for {
		b := *s.rem
		if key < 0 {
			if k := bytes.Index(b[from:], []byte(pixKey)); k >= 0 {
				key = from + k
			} else {
				from = max(len(b)-len(pixKey)+1, 0)
			}
		}
		if key >= 0 {
			switch start := valueStart(b, key); {
			case start > 0:
				return start, true, nil
			case start == 0:
				return 0, false, s.readRest(s.hint)
			}
		}
		if eof {
			return 0, false, nil
		}
		if err := s.readMore(s.rem, s.hint, readWindow); err == io.EOF {
			eof = true
		} else if err != nil {
			return 0, false, err
		}
	}
}

// valueStart returns the offset just past the quote that opens the value
// of the "pix_b64" key at data[k:]: the key, JSON whitespace, the colon,
// whitespace, then the quote, as encoders spell it with or without
// spacing (Python's json.dumps writes "pix_b64": "). It returns 0 when
// the key is not so followed, and -1 when data ends before that is
// decided.
func valueStart(data []byte, k int) int {
	i := skipSpace(data, k+len(pixKey))
	if i == len(data) {
		return -1
	}
	if data[i] != ':' {
		return 0
	}
	i = skipSpace(data, i+1)
	if i == len(data) {
		return -1
	}
	if data[i] != '"' {
		return 0
	}
	return i + 1
}

// skipSpace returns the offset of the first byte at or after i that is
// not JSON whitespace (space, tab, CR, LF).
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// readValue streams the value that opens at s.rem[start:], up to the
// first quote after it, through the read window. Each whole stride
// decodes on arrival (stride); the value's last partial stride, and
// everything from a stride that does not decode whole on, is kept raw
// in s.kept. At the closing quote s.rem becomes head +
// sentinel, and the tail is read onto it to EOF. closed is false when
// the body ends inside the value.
func (s *bodyStream) readValue(start int) (closed bool, err error) {
	s.win = getBuf(&windowPool, readWindow)
	w := *s.win
	lo, hi := 0, copy(w, (*s.rem)[start:])
	*s.rem = (*s.rem)[:start]
	s.head = start
	eof := false
	for {
		end := hi
		q := bytes.IndexByte(w[lo:hi], '"')
		if q >= 0 {
			end = lo + q
		}
		for s.kept == nil && end-lo >= b64Stride {
			s.stride(w[lo : lo+b64Stride])
			lo += b64Stride
		}
		if q >= 0 || eof || s.kept != nil {
			s.keep(w[lo:end])
			lo = end
		}
		if q >= 0 {
			*s.rem = append(append(*s.rem, sentinel...), w[end:hi]...)
			return true, s.readRest(-1)
		}
		if eof {
			return false, nil
		}
		hi = copy(w, w[lo:hi])
		lo = 0
		// Fill the window, so strides decode a window at a time.
		for hi < len(w) && !eof {
			n, err := s.r.Read(w[hi:])
			s.read += int64(n)
			hi += n
			if err == io.EOF {
				eof = true
			} else if err != nil {
				return false, err
			}
		}
	}
}

// stride decodes one whole stride of the value into s.pix. A stride
// that does not decode to all 3072 bytes (a byte outside the alphabet,
// padding, which may end only the value) starts s.kept instead: the
// value from there on stays raw, and scene's decode of it gives what
// the whole-value decode gives.
func (s *bodyStream) stride(v []byte) {
	var raw [b64Stride / 4 * 3]byte
	if m, err := base64.StdEncoding.Decode(raw[:], v); err != nil || m != len(raw) {
		s.keep(v)
		return
	}
	const k = len(raw) / 8
	s.room(k)
	n := len(s.pix.Pix)
	s.pix.Pix = s.pix.Pix[:n+k]
	samplesFromBytes(s.pix.Pix[n:], raw[:])
	s.base += b64Stride
}

// keep appends value bytes to s.kept.
func (s *bodyStream) keep(v []byte) {
	if s.kept == nil {
		s.kept = getBuf(&bodyPool, 0)
	}
	*s.kept = append(*s.kept, v...)
}

// room makes space in s.pix, a pooled scene, for k more samples. Past
// its capacity the buffer doubles, so it holds at most about twice the
// samples received. The declared body length may instead size it at
// once to every sample the body has room for, sparing the copies, but
// only up to hintLead times the bytes received: a client that declares
// a large body and sends a little of it cannot make the server hold
// much.
func (s *bodyStream) room(k int) {
	if s.pix == nil {
		s.pix, _ = scenePool.Get().(*sensor.Image)
		if s.pix == nil {
			s.pix = new(sensor.Image)
		}
		s.pix.Pix = s.pix.Pix[:0]
	}
	pix := s.pix.Pix
	need := len(pix) + k
	if need <= cap(pix) {
		return
	}
	n := max(2*cap(pix), need)
	// A value is at most the body after the head; 4 characters are 3
	// bytes, 8 bytes a sample.
	if all := (s.hint - int64(s.head)) / 4 * 3 / 8; all >= int64(need) && 8*all <= hintLead*s.read {
		n = int(all)
	}
	grown := make([]float64, len(pix), n)
	copy(grown, pix)
	s.pix.Pix = grown
}

// prove decodes the remainder into v and returns the wire image that
// holds the sentinel, which then stands for the streamed value, or nil
// when the remainder might decode otherwise than the whole body. It
// returns the image when
//   - head and tail are ASCII without a backslash, so no escaped or
//     Unicode-folded spelling of the key hides in them, and the value is
//     printable ASCII without a backslash, so as a JSON string it
//     decodes to exactly its bytes (the strides decoded on arrival hold
//     only base64 alphabet);
//   - an ASCII case-folded pix_b64" occurs exactly once in the
//     remainder, so no other key can map to the field (the value holds
//     no quote, so it holds neither);
//   - the remainder decodes, and exactly one of v's wire images holds
//     the sentinel, which places the value inside the first JSON value.
//
// Under these the whole body decodes to the same v with the value in
// that image's Pix. v may be half-filled when prove returns nil.
func (s *bodyStream) prove(v any) *ImageWire {
	rem := *s.rem
	if !plainASCII(rem[:s.head], 0) || !plainASCII(rem[s.head+len(sentinel):], 0) || !plainASCII(*s.kept, 0x20) {
		return nil
	}
	if foldedKeys(rem) != 1 || decodeStrict(rem, v) != nil {
		return nil
	}
	var at *ImageWire
	for _, w := range v.(imageCarrier).wireImages() {
		if w != nil && w.Pix == sentinelValue {
			if at != nil {
				return nil
			}
			at = w
		}
	}
	if at != nil {
		at.Pix = ""
	}
	return at
}

// rebuild returns the body exactly as it arrived, in a pooled buffer:
// the head, the strides decoded on arrival re-encoded (a whole unpadded
// quantum decodes one to one), the kept value bytes and, when the value
// closed, the tail.
func (s *bodyStream) rebuild(closed bool) *[]byte {
	rem := *s.rem
	var tail, kept []byte
	if closed {
		tail = rem[s.head+len(sentinel):]
	}
	if s.kept != nil {
		kept = *s.kept
	}
	p := getBuf(&bodyPool, s.head+s.base+len(kept)+len(tail))
	b := *p
	n := copy(b, rem[:s.head])
	if s.pix != nil {
		var raw [b64Stride / 4 * 3]byte
		for pix := s.pix.Pix; len(pix) > 0; pix = pix[len(raw)/8:] {
			samplesToBytes(raw[:], pix[:len(raw)/8])
			base64.StdEncoding.Encode(b[n:], raw[:])
			n += b64Stride
		}
	}
	n += copy(b[n:], kept)
	copy(b[n:], tail)
	return p
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
// little-endian sample bytes to h as one writePart part. For the image
// whose value was streamed, the samples decoded on arrival are joined
// by the kept bytes' decode. The body goes back to its pool; the ingest
// keeps the image, so release returns it too unless take hands it on.
func (in *ingest) scene(w *ImageWire, h hash.Hash) (im *sensor.Image, err error) {
	defer func() { in.release(); in.pix = im }()
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
	if err := checkImageDims(*w); err != nil {
		return nil, err
	}
	want := 8 * w.H * w.W * w.C
	rest, done := *in.body, in.base/4*3
	if n := decodedLen(rest); n < 0 || done+n != want {
		// The value cannot decode to the claimed samples. Scan the kept
		// bytes, output discarded, for the error the whole-value decode
		// would give; no image is grown, so a small body claiming huge
		// dims allocates nothing by them.
		n, err := decodeStrides(rest, nil)
		return nil, checkImagePix(*w, done+n, in.offset(err))
	}
	im, in.pix = in.pix, nil
	if im == nil {
		im = getScene(w.H, w.W, w.C)
	} else {
		if n := want / 8; cap(im.Pix) < n {
			im.Pix = append(make([]float64, 0, n), im.Pix...)
		}
		im.H, im.W, im.C, im.Pix = w.H, w.W, w.C, im.Pix[:want/8]
	}
	pix := im.Pix[done/8:]
	_, err = decodeStrides(rest, func(b []byte) {
		samplesFromBytes(pix, b)
		pix = pix[len(b)/8:]
	})
	if err != nil {
		putScene(im)
		return nil, checkImagePix(*w, 0, in.offset(err))
	}
	if h != nil {
		writeSamplePart(h, im.Pix)
	}
	return im, nil
}

// offset places a decode error of the kept bytes in the whole value.
func (in *ingest) offset(err error) error {
	if e, ok := err.(base64.CorruptInputError); ok {
		return e + base64.CorruptInputError(in.base)
	}
	return err
}

// samplesFromBytes fills dst with the little-endian float64 samples in
// b, len(b)/8 of them.
func samplesFromBytes(dst []float64, b []byte) {
	dst = dst[:len(b)/8]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// samplesToBytes writes xs little-endian into dst, 8*len(xs) bytes.
func samplesToBytes(dst []byte, xs []float64) {
	for i, x := range xs {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

// writeSamplePart writes the little-endian bytes of xs to h as one
// writePart part, a stride's worth at a time.
func writeSamplePart(h hash.Hash, xs []float64) {
	writeUint64(h, uint64(8*len(xs)))
	var raw [b64Stride / 4 * 3]byte
	for len(xs) > 0 {
		k := min(len(xs), len(raw)/8)
		samplesToBytes(raw[:], xs[:k])
		h.Write(raw[:8*k])
		xs = xs[k:]
	}
}

// b64Stride is the span of a value decoded at once: 4096 base64
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
// '\r' or '\n' (the proof admits only printable ASCII), so every stride
// starts on a quantum of the whole value and decodes as that span of
// the whole decode does, with two exceptions handled here: offsets
// count from the stride, and a padded quantum may end a stride cleanly
// while the whole value goes on after it.
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
