// The 64 MB body cap at both doors: a request body and a session frame
// line over it answer payload_too_large. Each test streams a little over
// 64 MB through a 16×16 server, so the buffers it builds stay in memory
// only briefly.
package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"lightator"
	"lightator/internal/server"
)

// overCap is a little more than the 64 MB body cap.
const overCap = 64<<20 + 1<<20

// spaces reads n spaces and then EOF, without holding them in memory.
type spaces struct{ n int }

func (s *spaces) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	n := min(len(p), s.n)
	for i := range p[:n] {
		p[i] = ' '
	}
	s.n -= n
	return n, nil
}

// TestBodyCapCoversTrailingBytes pins how bytes after a request's first
// JSON value count: they are ignored while the body stays under the
// 64 MB cap, and a body over the cap answers 413 payload_too_large even
// when its first JSON value ended long before the cap.
func TestBodyCapCoversTrailingBytes(t *testing.T) {
	h, err := fuzzProcessHandler()
	if err != nil {
		t.Fatal(err)
	}
	valid, err := json.Marshal(server.NewProcessRequest(server.EncodeImage(testScene(3, 16, 16)), "edge", nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		trailing int
		status   int
	}{
		{"trailing bytes under the cap", 1 << 20, http.StatusOK},
		{"trailing bytes over the cap", overCap, http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// No length is known up front, as with a chunked upload.
			body := io.MultiReader(bytes.NewReader(valid), &spaces{tc.trailing})
			rec := serveRecorded(h, http.MethodPost, "/v1/process", body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %.200s", rec.Code, tc.status, rec.Body.String())
			}
			if tc.status != http.StatusOK {
				assertErrShape(t, rec.Body.Bytes(), server.CodePayloadTooLarge)
			}
		})
	}
}

// TestSessionLineOverCapIsPayloadTooLarge: a frame line longer than the
// cap ends the stream with the code a request body over the same cap
// gets, in-stream once results have been written.
func TestSessionLineOverCapIsPayloadTooLarge(t *testing.T) {
	cfg := lightator.DefaultConfig()
	cfg.SensorRows, cfg.SensorCols = 16, 16
	acc, err := lightator.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, BatchSize: 1, BatchDelay: time.Millisecond, AgreementFrames: -1})
	sr := openSession(t, ts.URL, server.SessionRequest{Kind: "process", Kernel: "edge"})

	fs := startFrames(t, ts.URL, sr.ID)
	defer fs.close()
	fs.send(testScene(4, 16, 16))
	if ln, ok := fs.next(); !ok || ln.Index != 0 || ln.Error != nil {
		t.Fatalf("first frame: %+v ok=%v", ln, ok)
	}
	// One line of 1 MB chunks without a newline. The server stops
	// reading at the cap and ends the response, so the writer may fail
	// on the closed connection; that is expected.
	written := make(chan struct{})
	go func() {
		defer close(written)
		chunk := []byte("100000\r\n" + strings.Repeat("x", 1<<20) + "\r\n")
		for sent := 0; sent < overCap; sent += 1 << 20 {
			if _, err := fs.conn.Write(chunk); err != nil {
				return
			}
		}
	}()
	defer func() {
		fs.close()
		<-written
	}()
	for {
		ln, ok := fs.next()
		if !ok {
			t.Fatal("stream ended without an index -1 error record")
		}
		if ln.Index == -1 {
			if ln.Error == nil || ln.Error.Code != server.CodePayloadTooLarge {
				t.Fatalf("stream-fatal record %+v, want code %q", ln.Error, server.CodePayloadTooLarge)
			}
			return
		}
	}
}
