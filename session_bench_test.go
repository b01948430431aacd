package lightator_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lightator"
)

// repeatedLines delivers n copies of line, then EOF, without holding
// them: a frame stream of any length at the memory of one line.
type repeatedLines struct {
	line  []byte
	n, at int
}

func (r *repeatedLines) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	k := copy(p, r.line[r.at:])
	if r.at += k; r.at == len(r.line) {
		r.at, r.n = 0, r.n-1
	}
	return k, nil
}

// streamSink is a frame stream's response writer that counts the
// records written and keeps nothing. Its EnableFullDuplex and
// SetReadDeadline stand in for net/http's.
type streamSink struct {
	header http.Header
	lines  int
}

func (w *streamSink) Header() http.Header             { return w.header }
func (w *streamSink) WriteHeader(int)                 {}
func (w *streamSink) Flush()                          {}
func (w *streamSink) EnableFullDuplex() error         { return nil }
func (w *streamSink) SetReadDeadline(time.Time) error { return nil }
func (w *streamSink) Write(p []byte) (int, error) {
	w.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// BenchmarkSessionFrames streams b.N 256x256 frames through one
// /v1/session edge stream at DefaultConfig, in process: each NDJSON line
// from bytes to a pooled scene, through capture, CA and the edge kernel,
// and its result line encoded. Run with -benchmem: B/op is the memory
// one frame costs the server, frames/sec its rate.
func BenchmarkSessionFrames(b *testing.B) {
	acc, err := lightator.New(lightator.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := acc.NewServer(lightator.ServeOptions{Workers: 2, AgreementFrames: -1, CacheEntries: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Drain(context.Background())
	h := srv.Handler()
	scene := lightator.NewImage(256, 256, 3)
	for i := range scene.Pix {
		scene.Pix[i] = float64(i%251) / 251
	}
	line, err := json.Marshal(lightator.SessionFrame{Scene: lightator.EncodeImage(scene)})
	if err != nil {
		b.Fatal(err)
	}
	open := httptest.NewRecorder()
	h.ServeHTTP(open, httptest.NewRequest(http.MethodPost, "/v1/session", strings.NewReader(`{"kind":"process","kernel":"edge","seed":7}`)))
	var sr lightator.SessionResponse
	if open.Code != http.StatusOK || json.Unmarshal(open.Body.Bytes(), &sr) != nil {
		b.Fatalf("open session: %d %s", open.Code, open.Body.String())
	}
	body := &repeatedLines{line: append(line, '\n'), n: b.N}
	w := &streamSink{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/session/"+sr.ID+"/frames", body))
	b.StopTimer()
	if w.lines != b.N+1 {
		b.Fatalf("%d frames: %d records, want %d and the summary", b.N, w.lines, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
}
