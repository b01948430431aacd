// Native Go fuzz targets for the wire codecs and the server's JSON
// decoding: malformed base64, dimension, body and frame-stream payloads
// must come back as errors (HTTP 4xx at the handler, or an in-stream
// error record), never as panics. FuzzEnvelopeDecode, which holds the
// envelope decoder's fast path against strict encoding/json, lives in
// envelope_test.go because it reaches unexported code. Seed
// corpora live under testdata/fuzz/<FuzzName>/ and run as ordinary unit
// cases during `go test`; `make fuzz` (and the ci.yml fuzz-smoke job)
// runs each target through the coverage-guided fuzzer for a short burst.
//
// Like every server test this is package server_test: the process
// target drives a real accelerator through the public facade. The
// handler is invoked directly via httptest.NewRecorder — not through a
// live listener — so a handler panic reaches the fuzzer instead of being
// swallowed by net/http's connection-level recover.
package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lightator"
	"lightator/internal/server"
)

// FuzzDecodeImage: DecodeImage either rejects the wire form with an
// error or produces an image that re-encodes to the same canonical wire
// form (the codec is lossless, bit-for-bit, including NaN payloads).
func FuzzDecodeImage(f *testing.F) {
	valid := server.EncodeImage(testScene(1, 2, 3))
	f.Add(valid.H, valid.W, valid.C, valid.Pix)
	f.Add(0, 4, 1, "")                   // zero dim
	f.Add(-1, 4, 3, valid.Pix)           // negative dim
	f.Add(1<<20, 1<<20, 3, valid.Pix)    // dims beyond maxWireDim
	f.Add(2, 3, 2, valid.Pix)            // invalid channel count
	f.Add(2, 3, 1, "!!! not base64 !!!") // undecodable payload
	f.Add(2, 3, 1, "AAAA")               // wrong payload length
	f.Fuzz(func(t *testing.T, h, w, c int, pix string) {
		im, err := server.DecodeImage(server.ImageWire{H: h, W: w, C: c, Pix: pix})
		if err != nil {
			return
		}
		if im.H != h || im.W != w || im.C != c || len(im.Pix) != h*w*c {
			t.Fatalf("decoded image %dx%dx%d (%d samples) from wire %dx%dx%d", im.H, im.W, im.C, len(im.Pix), h, w, c)
		}
		back, err := server.DecodeImage(server.EncodeImage(im))
		if err != nil {
			t.Fatalf("re-encoded image failed to decode: %v", err)
		}
		for i := range im.Pix {
			if math.Float64bits(back.Pix[i]) != math.Float64bits(im.Pix[i]) {
				t.Fatalf("sample %d not bit-identical through the codec: %x vs %x",
					i, math.Float64bits(back.Pix[i]), math.Float64bits(im.Pix[i]))
			}
		}
	})
}

// FuzzDecodeFrame: same contract for the 4-bit frame codec.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(2, 2, "AAAA")              // 4 bytes decode to 3 — wrong length
	f.Add(2, 3, "AAAAAAAA")          // 8 bytes decode to 6 codes: valid
	f.Add(0, 2, "")                  // zero dim
	f.Add(-3, -3, "AAAA")            // negative dims
	f.Add(1<<20, 2, "AAAA")          // beyond maxWireDim
	f.Add(2, 2, "not base64 at all") // undecodable payload
	f.Fuzz(func(t *testing.T, rows, cols int, codes string) {
		fr, err := server.DecodeFrame(server.FrameWire{Rows: rows, Cols: cols, Codes: codes})
		if err != nil {
			return
		}
		if fr.Rows != rows || fr.Cols != cols || len(fr.Codes) != rows*cols {
			t.Fatalf("decoded frame %dx%d (%d codes) from wire %dx%d", fr.Rows, fr.Cols, len(fr.Codes), rows, cols)
		}
		again, err := server.DecodeFrame(server.EncodeFrame(fr))
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		for i := range fr.Codes {
			if again.Codes[i] != fr.Codes[i] {
				t.Fatalf("code %d changed through the codec: %d vs %d", i, again.Codes[i], fr.Codes[i])
			}
		}
	})
}

// fuzzHandler lazily stands up one shared accelerator + server per
// process for the process-endpoint target. No Drain: the fuzz process
// exits with the server's goroutines still serving, which is fine — the
// target never shuts the server down mid-run.
var (
	fuzzOnce    sync.Once
	fuzzProcess http.Handler
	fuzzErr     error
)

func fuzzProcessHandler() (http.Handler, error) {
	fuzzOnce.Do(func() {
		cfg := lightator.DefaultConfig()
		cfg.SensorRows, cfg.SensorCols = 16, 16
		acc, err := lightator.New(cfg)
		if err != nil {
			fuzzErr = err
			return
		}
		srv, err := acc.NewServer(lightator.ServeOptions{
			Workers: 1, BatchSize: 1, BatchDelay: time.Millisecond,
			AgreementFrames: -1, CacheEntries: -1,
		})
		if err != nil {
			fuzzErr = err
			return
		}
		fuzzProcess = srv.Handler()
	})
	return fuzzProcess, fuzzErr
}

// FuzzProcessRequest throws arbitrary bodies at POST /v1/process: every
// response must be a well-formed status < 500 — malformed JSON, bad
// dimensions, undecodable pixels, and unknown kernels are all client
// errors — and a 200 must carry a decodable ProcessResponse plane.
//
// The seeds hold no scene above 2x2, which the 16x16 sensor refuses, so
// the mutator is not slowed by large inputs; TestProcessRequestBodies
// runs the same check on full 16x16 bodies that answer 200.
func FuzzProcessRequest(f *testing.F) {
	small := server.EncodeImage(testScene(3, 2, 2))
	for _, kernel := range []string{"reconstruct", "reconstruct-direct", "reconstruct-cg", "edge"} {
		body, err := json.Marshal(server.NewProcessRequest(small, kernel, nil))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{`))
	f.Add([]byte(`{"scene":{"h":1,"w":1,"c":1,"pix_b64":"zzz"},"kernel":"edge"}`))
	f.Add([]byte(`{"scene":{"h":-4,"w":70000,"c":3,"pix_b64":""},"kernel":"reconstruct"}`))
	f.Add([]byte(`{"kernel":"no-such-kernel"}`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Fuzz(func(t *testing.T, body []byte) { checkProcessBody(t, body) })
}

// TestProcessRequestBodies runs FuzzProcessRequest's check on one full
// 16x16 body per kernel; each must answer 200.
func TestProcessRequestBodies(t *testing.T) {
	scene := server.EncodeImage(testScene(3, 16, 16))
	for _, kernel := range []string{"reconstruct", "reconstruct-direct", "reconstruct-cg", "edge"} {
		body, err := json.Marshal(server.NewProcessRequest(scene, kernel, nil))
		if err != nil {
			t.Fatal(err)
		}
		if code := checkProcessBody(t, body); code != http.StatusOK {
			t.Errorf("%s: status %d", kernel, code)
		}
	}
}

// checkProcessBody posts body to /v1/process and fails unless the
// answer is well formed; it returns the status.
func checkProcessBody(t *testing.T, body []byte) int {
	t.Helper()
	h, err := fuzzProcessHandler()
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/process", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code >= 500 {
		t.Fatalf("server error %d for body %q: %s", rec.Code, body, rec.Body.String())
	}
	if rec.Code == http.StatusOK {
		var resp server.ProcessResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with undecodable body: %v", err)
		}
		if _, err := server.DecodeImage(resp.Plane); err != nil {
			t.Fatalf("200 with undecodable plane: %v", err)
		}
	} else {
		// Every non-200 must carry the structured error shape: a
		// non-empty stable code, a message, and the legacy "error"
		// string old clients decode.
		checkErrorShape(t, rec.Code, rec.Body.Bytes())
	}
	return rec.Code
}

// duplexRecorder runs the frame-stream handler against a recorder: the
// handler asks for full-duplex mode, which a recorder has no reason to
// refuse.
type duplexRecorder struct{ *httptest.ResponseRecorder }

func (duplexRecorder) EnableFullDuplex() error { return nil }

// serveRecorded runs one request through h and returns the recorder.
func serveRecorded(h http.Handler, method, target string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(duplexRecorder{rec}, httptest.NewRequest(method, target, body))
	return rec
}

// FuzzSessionFrames throws arbitrary NDJSON streams at
// POST /v1/session/{id}/frames on a fresh process session: truncated,
// blank, malformed-then-valid and \r\n-terminated lines. Nothing may
// panic or answer 5xx. A failure before any result is a status with an
// ErrorResponse body; once results flow, every line is a result, an
// ErrorResponse record, or the closing summary, and the stream ends
// with the summary or an index -1 error record.
//
// The seed lines hold 2x2 scenes, which the 16x16 sensor refuses frame
// by frame, so the mutator is not slowed by large inputs;
// TestSessionFrameStreams runs the same check on streams of full 16x16
// frames.
func FuzzSessionFrames(f *testing.F) {
	for _, body := range sessionStreams(f, sessionLine(f, 2, 2)) {
		f.Add([]byte(body))
	}
	f.Fuzz(checkSessionStream)
}

// TestSessionFrameStreams runs FuzzSessionFrames's check on its stream
// shapes built from full 16x16 frames.
func TestSessionFrameStreams(t *testing.T) {
	for _, body := range sessionStreams(t, sessionLine(t, 16, 16)) {
		checkSessionStream(t, []byte(body))
	}
}

// sessionLine marshals one frame line around an h×w scene.
func sessionLine(tb testing.TB, h, w int) string {
	b, err := json.Marshal(server.SessionFrame{Scene: server.EncodeImage(testScene(5, h, w))})
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// sessionStreams are frame-stream shapes around the line valid.
func sessionStreams(tb testing.TB, valid string) []string {
	return []string{
		"",
		valid + "\n",
		valid + "\n" + valid + "\n",
		valid,                             // last line without a newline
		valid[:len(valid)/2],              // truncated mid-value
		valid + "\n" + valid[:40],         // truncated second line
		"\n\n" + valid + "\n\n",           // blank lines
		"{\"scene\":17}\n" + valid + "\n", // malformed, then valid
		valid + "\r\n" + valid + "\r\n",   // CRLF endings
		valid + "\n" + sessionLine(tb, 8, 8) + "\n",
		valid + "\n{\"scene\":{\"h\":1,\"w\":1,\"c\":1,\"pix_b64\":\"zzz\"}}\n",
	}
}

// checkSessionStream streams body into a fresh process session and
// fails unless the answer is well formed.
func checkSessionStream(t *testing.T, body []byte) {
	t.Helper()
	h, err := fuzzProcessHandler()
	if err != nil {
		t.Fatal(err)
	}
	open := serveRecorded(h, http.MethodPost, "/v1/session", strings.NewReader(`{"kind":"process","kernel":"edge","seed":7}`))
	var sr server.SessionResponse
	if open.Code != http.StatusOK || json.Unmarshal(open.Body.Bytes(), &sr) != nil {
		t.Fatalf("open session: %d %s", open.Code, open.Body.String())
	}
	defer serveRecorded(h, http.MethodDelete, "/v1/session/"+sr.ID, nil)

	rec := serveRecorded(h, http.MethodPost, "/v1/session/"+sr.ID+"/frames", bytes.NewReader(body))
	if rec.Code >= 500 {
		t.Fatalf("server error %d for stream %q: %s", rec.Code, body, rec.Body.String())
	}
	if rec.Code != http.StatusOK {
		checkErrorShape(t, rec.Code, rec.Body.Bytes())
		return
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	for i, ln := range lines {
		var record struct {
			server.SessionResult
			server.SessionSummary
		}
		if err := json.Unmarshal([]byte(ln), &record); err != nil {
			t.Fatalf("stream line %q does not decode: %v", ln, err)
		}
		if record.Error != nil && (record.Error.Code == "" || record.Error.Message == "" || record.Error.Error == "") {
			t.Fatalf("incomplete in-stream error %+v", record.Error)
		}
		if last := i == len(lines)-1; last != (record.Done || record.Index == -1) {
			t.Fatalf("line %d of %d is %q: the stream must end, and only end, with a summary or an index -1 error", i, len(lines), ln)
		}
		if record.Index == -1 && record.Error == nil {
			t.Fatalf("index -1 record without an error: %q", ln)
		}
	}
}

// checkErrorShape fails unless body is a complete ErrorResponse.
func checkErrorShape(t *testing.T, status int, body []byte) {
	t.Helper()
	var resp server.ErrorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("non-200 (%d) without an ErrorResponse body: %q", status, body)
	}
	if resp.Code == "" || resp.Message == "" || resp.Error == "" {
		t.Fatalf("non-200 (%d) with incomplete error shape %+v: %q", status, resp, body)
	}
}
