//go:build !race

// Allocation pins for session frame streams. The race detector drops
// pooled values at random, so these run only in the plain test pass
// (CI's non-race allocation step).
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"lightator"
	"lightator/internal/server"
)

// sceneBytes is one 256x256 RGB scene's float64 samples.
const sceneBytes = 256 * 256 * 3 * 8

// repeatLines delivers n copies of line, each ending in '\n', then blocks
// until ctx is done when block is set (a client that stops sending but
// keeps the stream open), or ends.
type repeatLines struct {
	line  []byte
	n, at int
	block bool
	ctx   context.Context
}

func (r *repeatLines) Read(p []byte) (int, error) {
	if r.n == 0 {
		if r.block {
			<-r.ctx.Done()
			return 0, r.ctx.Err()
		}
		return 0, io.EOF
	}
	k := copy(p, r.line[r.at:])
	if r.at += k; r.at == len(r.line) {
		r.at, r.n = 0, r.n-1
	}
	return k, nil
}

// lineCounter is a frame stream's response writer that keeps nothing:
// it counts the records written, calls onLine after each, and fails
// every write once fail records are in (when fail > 0).
type lineCounter struct {
	header http.Header
	lines  int
	onLine func(n int)
	fail   int
}

func (w *lineCounter) Header() http.Header { return w.header }
func (w *lineCounter) WriteHeader(int)     {}
func (w *lineCounter) Flush()              {}

// EnableFullDuplex and SetReadDeadline stand in for net/http's: the
// frame reader is joined once the body read returns.
func (w *lineCounter) EnableFullDuplex() error         { return nil }
func (w *lineCounter) SetReadDeadline(time.Time) error { return nil }

func (w *lineCounter) Write(p []byte) (int, error) {
	if w.fail > 0 && w.lines >= w.fail {
		return 0, io.ErrClosedPipe
	}
	for range bytes.Count(p, []byte{'\n'}) {
		w.lines++
		if w.onLine != nil {
			w.onLine(w.lines)
		}
	}
	return len(p), nil
}

// sessionStreamer opens process sessions of one kernel (edge unless
// set) on a 256x256 server and streams frame bodies through the handler
// in process.
type sessionStreamer struct {
	t      *testing.T
	h      http.Handler
	line   []byte
	kernel string
}

func newSessionStreamer(t *testing.T) *sessionStreamer {
	acc, err := lightator.New(lightator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := acc.Config()
	if cfg.SensorRows != 256 || cfg.SensorCols != 256 {
		t.Fatalf("DefaultConfig sensor is %dx%d, want 256x256", cfg.SensorRows, cfg.SensorCols)
	}
	srv, err := acc.NewServer(lightator.ServeOptions{Workers: 2, AgreementFrames: -1, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Drain(context.Background()) })
	line, err := json.Marshal(server.SessionFrame{Scene: server.EncodeImage(testScene(21, 256, 256))})
	if err != nil {
		t.Fatal(err)
	}
	return &sessionStreamer{t: t, h: srv.Handler(), line: append(line, '\n'), kernel: "edge"}
}

// stream opens a session with the given in-flight window (0 for
// the server's) and posts body as its frame stream through w.
func (s *sessionStreamer) stream(ctx context.Context, window int, body io.Reader, w *lineCounter) {
	s.t.Helper()
	open := serveRecorded(s.h, http.MethodPost, "/v1/session", strings.NewReader(fmt.Sprintf(`{"kind":"process","kernel":%q,"seed":7,"window":%d}`, s.kernel, window)))
	var sr server.SessionResponse
	if open.Code != http.StatusOK || json.Unmarshal(open.Body.Bytes(), &sr) != nil {
		s.t.Fatalf("open session: %d %s", open.Code, open.Body.String())
	}
	defer serveRecorded(s.h, http.MethodDelete, "/v1/session/"+sr.ID, nil)
	w.header = http.Header{}
	s.h.ServeHTTP(w, httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/session/"+sr.ID+"/frames", body))
}

// frames streams n frames to a clean end and checks that every result
// and the summary were written.
func (s *sessionStreamer) frames(n int) {
	s.t.Helper()
	var w lineCounter
	if s.stream(context.Background(), 0, &repeatLines{line: s.line, n: n}, &w); w.lines != n+1 {
		s.t.Fatalf("%d frames: %d records, want %d and the summary", n, w.lines, n)
	}
}

// TestSessionFramesAllocFree pins a session stream's memory. Once the
// pools are warm, streaming 256x256 frames allocates less than one
// scene (1.5 MB) per frame: each line streams through the envelope
// decoder into a pooled scene, which goes back to the pool once its
// frame's result is out, and no line is held whole. The Scanner reader
// it replaced grew a 4 MB line buffer per stream and left a fresh scene
// behind on every line. A stream that ends early, cancelled by its
// client, at a failed response write or at a malformed line, hands
// back every scene it took from the pool, those still in flight and
// the one its reader had decoded but not sent among them: scenes parked
// in the pool before the stream are all found there after it.
func TestSessionFramesAllocFree(t *testing.T) {
	// One P and no GC: the pool's per-P slot and its contents stay put.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := newSessionStreamer(t)
	s.frames(4)
	const n = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.frames(n)
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= sceneBytes {
		t.Fatalf("a 256x256 session frame allocated %d bytes, want under one scene's %d", per, sceneBytes)
	}

	expectParked := func(name string, stream func()) {
		t.Helper()
		for server.PooledScene() != nil {
		}
		parked := map[*lightator.Image]bool{}
		for range 8 {
			im := lightator.NewImage(256, 256, 3)
			parked[im] = true
			server.PoolScene(im)
		}
		stream()
		for im := server.PooledScene(); im != nil; im = server.PooledScene() {
			delete(parked, im)
		}
		if len(parked) != 0 {
			t.Fatalf("%s: %d of 8 parked scenes did not come back to the pool", name, len(parked))
		}
	}
	expectParked("client gone", func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The client keeps the stream open after 8 lines and goes away
		// once 3 results are in. With one frame in flight, the reader
		// has decoded a scene the session has not taken.
		body := &repeatLines{line: s.line, n: 8, block: true, ctx: ctx}
		s.stream(ctx, 1, body, &lineCounter{onLine: func(n int) {
			if n == 3 {
				cancel()
			}
		}})
	})
	expectParked("response write fails", func() {
		// Frames in flight when the write fails emit no result.
		s.stream(context.Background(), 0, &repeatLines{line: s.line, n: 8}, &lineCounter{fail: 2})
	})
	expectParked("malformed line", func() {
		body := io.MultiReader(&repeatLines{line: s.line, n: 5}, strings.NewReader("{\"scene\":17}\n"), &repeatLines{line: s.line, n: 2})
		// Up to five results (those the session took before the
		// reader failed), then the index -1 error record.
		var w lineCounter
		if s.stream(context.Background(), 0, body, &w); w.lines < 1 || w.lines > 6 {
			t.Fatalf("malformed line: %d records, want 1 to 6", w.lines)
		}
	})
}
