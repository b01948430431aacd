// End-to-end tests of the /v1/session streaming API over a live
// listener: NDJSON frame streams, byte-identity against the per-frame
// endpoints, delta-reuse counters, and the failure paths (busy,
// disconnect, drain, idle expiry, limit).
package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"lightator"
	"lightator/internal/server"
)

// e2eScenes builds n mostly-static 32x32 frames: a fixed background
// with a bright square that jumps every period frames (period 0 keeps
// it pinned — a fully static stream).
func e2eScenes(n, period int) []*lightator.Image {
	base := testScene(42, 32, 32)
	frames := make([]*lightator.Image, n)
	for f := range frames {
		s := base.Clone()
		pos := 0
		if period > 0 {
			pos = (f / period) % 24
		}
		for y := pos; y < pos+6; y++ {
			for x := pos; x < pos+6; x++ {
				for c := 0; c < 3; c++ {
					s.Pix[(y*32+x)*3+c] = 1
				}
			}
		}
		frames[f] = s
	}
	return frames
}

// openSession opens a session and fails the test on any non-200.
func openSession(t *testing.T, base string, req server.SessionRequest) server.SessionResponse {
	t.Helper()
	var sr server.SessionResponse
	status, body := postJSON(t, base+"/v1/session", req, &sr)
	if status != http.StatusOK {
		t.Fatalf("open session: status %d: %s", status, body)
	}
	if sr.ID == "" {
		t.Fatalf("open session: empty id in %+v", sr)
	}
	return sr
}

// streamLine is one NDJSON response line: a frame result or, on the
// last line of a clean stream, the summary record.
type streamLine struct {
	server.SessionResult
	server.SessionSummary
}

// frameStream drives one POST /v1/session/{id}/frames request with
// full control over when frames are written and results read. It
// speaks HTTP/1.1 chunked framing over a raw TCP connection because
// net/http's HTTP/1.1 client is half-duplex: it buffers request-body
// writes and stops uploading once response headers arrive — exactly
// what an interactive frame stream cannot tolerate.
type frameStream struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	resp *http.Response
	sc   *bufio.Scanner
}

func startFrames(t *testing.T, base, id string) *frameStream {
	t.Helper()
	host := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	req := "POST /v1/session/" + id + "/frames HTTP/1.1\r\n" +
		"Host: " + host + "\r\n" +
		"Content-Type: application/x-ndjson\r\n" +
		"Transfer-Encoding: chunked\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	return &frameStream{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// writeChunk frames one body chunk; every NDJSON line is one chunk, so
// the server always sees whole lines promptly.
func (fs *frameStream) writeChunk(p []byte) {
	fs.t.Helper()
	if _, err := fmt.Fprintf(fs.conn, "%x\r\n%s\r\n", len(p), p); err != nil {
		fs.t.Fatalf("write frame chunk: %v", err)
	}
}

func (fs *frameStream) send(img *lightator.Image) {
	fs.t.Helper()
	line, err := json.Marshal(server.SessionFrame{Scene: server.EncodeImage(img)})
	if err != nil {
		fs.t.Fatal(err)
	}
	fs.writeChunk(append(line, '\n'))
}

func (fs *frameStream) sendRaw(line string) {
	fs.t.Helper()
	fs.writeChunk([]byte(line + "\n"))
}

// response waits for the response headers (committed by the first
// result line, or immediately on a pre-stream failure).
func (fs *frameStream) response() *http.Response {
	fs.t.Helper()
	if fs.resp == nil {
		resp, err := http.ReadResponse(fs.br, nil)
		if err != nil {
			fs.t.Fatalf("read frame stream response: %v", err)
		}
		fs.resp = resp
		fs.sc = bufio.NewScanner(resp.Body)
		fs.sc.Buffer(make([]byte, 64<<10), 64<<20)
	}
	return fs.resp
}

// next reads one NDJSON line, blocking until the server emits it.
func (fs *frameStream) next() (streamLine, bool) {
	fs.t.Helper()
	fs.response()
	if !fs.sc.Scan() {
		if err := fs.sc.Err(); err != nil {
			fs.t.Fatalf("read stream: %v", err)
		}
		return streamLine{}, false
	}
	var ln streamLine
	if err := json.Unmarshal(fs.sc.Bytes(), &ln); err != nil {
		fs.t.Fatalf("decode stream line %q: %v", fs.sc.Text(), err)
	}
	return ln, true
}

// finish ends the request body cleanly (terminal chunk).
func (fs *frameStream) finish() {
	fs.t.Helper()
	if _, err := io.WriteString(fs.conn, "0\r\n\r\n"); err != nil {
		fs.t.Fatalf("finish frame stream: %v", err)
	}
}

// abort tears the connection down mid-stream, like a vanished client.
func (fs *frameStream) abort() { fs.conn.Close() }

// close releases client-side resources at test end.
func (fs *frameStream) close() { fs.conn.Close() }

// streamAll sends every scene, closes the input, and collects the
// ordered results plus the trailing summary.
func streamAll(t *testing.T, base, id string, scenes []*lightator.Image) ([]server.SessionResult, server.SessionSummary) {
	t.Helper()
	fs := startFrames(t, base, id)
	defer fs.close()
	for _, s := range scenes {
		fs.send(s)
	}
	fs.finish()
	if resp := fs.response(); resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("frame stream: status %d: %s", resp.StatusCode, body)
	}
	var results []server.SessionResult
	for {
		ln, ok := fs.next()
		if !ok {
			t.Fatalf("stream ended after %d results without a summary", len(results))
		}
		if ln.Done {
			return results, ln.SessionSummary
		}
		if ln.Error != nil {
			t.Fatalf("frame %d failed in-stream: %+v", ln.Index, ln.Error)
		}
		results = append(results, ln.SessionResult)
	}
}

// assertErrShape decodes body as the structured error and checks the
// stable code plus the legacy "error" field.
func assertErrShape(t *testing.T, body []byte, wantCode string) {
	t.Helper()
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body %q does not decode: %v", body, err)
	}
	if er.Code != wantCode {
		t.Fatalf("error code %q, want %q (body %q)", er.Code, wantCode, body)
	}
	if er.Message == "" || er.Error == "" {
		t.Fatalf("incomplete error shape %+v", er)
	}
}

// TestSessionStreamMatchesPerFrame is the tentpole acceptance check at
// the wire: for every kind, streamed result bytes are identical to the
// corresponding per-frame endpoint called with seed
// DeriveSeed(sessionSeed, i) — across fidelities and worker counts,
// with the delta engine live on a mostly-static stream.
func TestSessionStreamMatchesPerFrame(t *testing.T) {
	const frames = 6
	sessSeed := int64(0xbeef)
	scenes := e2eScenes(frames, 2)
	for _, fid := range []lightator.Fidelity{lightator.Ideal, lightator.PhysicalNoisy} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", fid, workers), func(t *testing.T) {
				acc := testAccelerator(t, fid)
				_, ts := testServer(t, acc, lightator.ServeOptions{
					Workers: workers, BatchSize: 4, BatchDelay: time.Millisecond,
				})
				for _, kind := range []string{"compress", "process", "infer"} {
					sr := openSession(t, ts.URL, server.SessionRequest{
						Kind: kind, Kernel: "edge", Model: "tiny-cnn", Seed: &sessSeed,
					})
					results, summary := streamAll(t, ts.URL, sr.ID, scenes)
					if len(results) != frames {
						t.Fatalf("kind %s: %d results, want %d", kind, len(results), frames)
					}
					if summary.Stats.Frames != frames {
						t.Fatalf("kind %s: summary frames %d, want %d", kind, summary.Stats.Frames, frames)
					}
					for i, rec := range results {
						if rec.Index != i {
							t.Fatalf("kind %s: result %d has index %d", kind, i, rec.Index)
						}
						seed := lightator.DeriveSeed(sessSeed, i)
						wire := server.EncodeImage(scenes[i])
						switch kind {
						case "compress":
							var ref server.CompressResponse
							status, body := postJSON(t, ts.URL+"/v1/compress", server.NewCompressRequest(wire, &seed), &ref)
							if status != http.StatusOK {
								t.Fatalf("per-frame compress: %d: %s", status, body)
							}
							if rec.Image == nil || rec.Image.Pix != ref.Image.Pix {
								t.Fatalf("compress frame %d: streamed bytes differ from per-frame call", i)
							}
						case "process":
							var ref server.ProcessResponse
							status, body := postJSON(t, ts.URL+"/v1/process", server.NewProcessRequest(wire, "edge", &seed), &ref)
							if status != http.StatusOK {
								t.Fatalf("per-frame process: %d: %s", status, body)
							}
							if rec.Plane == nil || rec.Plane.Pix != ref.Plane.Pix {
								t.Fatalf("process frame %d: streamed bytes differ from per-frame call", i)
							}
						case "infer":
							req := server.InferRequest{Scene: &wire, Model: "tiny-cnn"}
							req.Seed = &seed
							var ref server.InferResponse
							status, body := postJSON(t, ts.URL+"/v1/infer", req, &ref)
							if status != http.StatusOK {
								t.Fatalf("per-frame infer: %d: %s", status, body)
							}
							if len(rec.Logits) != len(ref.Logits) {
								t.Fatalf("infer frame %d: %d logits, want %d", i, len(rec.Logits), len(ref.Logits))
							}
							for j := range ref.Logits {
								if rec.Logits[j] != ref.Logits[j] {
									t.Fatalf("infer frame %d: logit %d differs: %g vs %g", i, j, rec.Logits[j], ref.Logits[j])
								}
							}
							if rec.Class == nil || *rec.Class != ref.Class {
								t.Fatalf("infer frame %d: class %v, want %d", i, rec.Class, ref.Class)
							}
						}
					}
				}
			})
		}
	}
}

// TestSessionKernelAlias: a process session opened under an alias echoes
// the name it was opened with and streams reconstruct's bytes.
func TestSessionKernelAlias(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, BatchDelay: time.Millisecond})
	sessSeed := int64(11)
	scenes := e2eScenes(2, 1)
	for _, alias := range kernelAliases {
		sr := openSession(t, ts.URL, server.SessionRequest{Kind: "process", Kernel: alias, Seed: &sessSeed})
		if sr.Kernel != alias {
			t.Errorf("session opened as %q echoes kernel %q", alias, sr.Kernel)
		}
		results, _ := streamAll(t, ts.URL, sr.ID, scenes)
		if len(results) != len(scenes) {
			t.Fatalf("%s: %d results, want %d", alias, len(results), len(scenes))
		}
		for i, rec := range results {
			seed := lightator.DeriveSeed(sessSeed, i)
			var ref server.ProcessResponse
			if status, body := postJSON(t, ts.URL+"/v1/process", server.NewProcessRequest(server.EncodeImage(scenes[i]), "reconstruct", &seed), &ref); status != http.StatusOK {
				t.Fatalf("per-frame process: %d: %s", status, body)
			}
			if rec.Plane == nil || rec.Plane.Pix != ref.Plane.Pix {
				t.Fatalf("%s frame %d: streamed bytes differ from reconstruct's", alias, i)
			}
		}
	}
}

// TestSessionDeltaReuseCounters: a static stream reuses compute, the
// counters surface it through GET, DELETE, and /metrics, and noisy
// fidelity reports delta inactive.
func TestSessionDeltaReuseCounters(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 2, BatchSize: 2, BatchDelay: time.Millisecond})

	sr := openSession(t, ts.URL, server.SessionRequest{Kind: "process", Kernel: "edge"})
	if !sr.DeltaActive {
		t.Fatalf("delta inactive on a deterministic process session: %+v", sr)
	}
	const frames = 5
	results, summary := streamAll(t, ts.URL, sr.ID, e2eScenes(frames, 0))
	if summary.Stats.BlocksReused <= 0 {
		t.Fatalf("static stream reused %d blocks, want > 0", summary.Stats.BlocksReused)
	}
	var reused int64
	for _, rec := range results[1:] {
		reused += int64(rec.BlocksReused)
	}
	if reused != summary.Stats.BlocksReused {
		t.Fatalf("per-record reuse %d does not add up to summary %d", reused, summary.Stats.BlocksReused)
	}

	var stats server.SessionStatsResponse
	status, body := getJSON(t, ts.URL+"/v1/session/"+sr.ID, &stats)
	if status != http.StatusOK {
		t.Fatalf("session stats: %d: %s", status, body)
	}
	if stats.Stats != summary.Stats {
		t.Fatalf("GET stats %+v differ from stream summary %+v", stats.Stats, summary.Stats)
	}

	var m struct {
		Sessions struct {
			Open         int   `json:"open"`
			Frames       int64 `json:"frames_total"`
			BlocksReused int64 `json:"blocks_reused_total"`
		} `json:"sessions"`
	}
	status, body = getJSON(t, ts.URL+"/metrics?format=json", &m)
	if status != http.StatusOK {
		t.Fatalf("metrics: %d: %s", status, body)
	}
	if m.Sessions.Open != 1 || m.Sessions.Frames < frames || m.Sessions.BlocksReused <= 0 {
		t.Fatalf("metrics sessions %+v: want open 1, frames >= %d, reuse > 0", m.Sessions, frames)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+sr.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var final server.SessionStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || final.Stats != summary.Stats {
		t.Fatalf("close: status %d stats %+v, want 200 with %+v", resp.StatusCode, final.Stats, summary.Stats)
	}
	if status, body = getJSON(t, ts.URL+"/v1/session/"+sr.ID, nil); status != http.StatusNotFound {
		t.Fatalf("closed session still resolvable: %d: %s", status, body)
	} else {
		assertErrShape(t, body, server.CodeSessionNotFound)
	}

	// Noisy fidelity: reuse is off by construction, and the open
	// response says so.
	nacc := testAccelerator(t, lightator.PhysicalNoisy)
	_, nts := testServer(t, nacc, lightator.ServeOptions{Workers: 1, BatchSize: 1, BatchDelay: time.Millisecond})
	nsr := openSession(t, nts.URL, server.SessionRequest{Kind: "process", Kernel: "edge"})
	if nsr.DeltaActive {
		t.Fatal("delta active under PhysicalNoisy")
	}
	_, nsum := streamAll(t, nts.URL, nsr.ID, e2eScenes(3, 0))
	if nsum.Stats.BlocksReused != 0 {
		t.Fatalf("noisy session reused %d blocks, want 0", nsum.Stats.BlocksReused)
	}

	// Explicit opt-out: delta.disable wins even when deterministic.
	dsr := openSession(t, ts.URL, server.SessionRequest{Kind: "process", Kernel: "edge", Delta: &server.DeltaWire{Disable: true}})
	if dsr.DeltaActive {
		t.Fatal("delta active despite delta.disable")
	}
}

// TestSessionErrorShapes: every non-200 on the session surface carries
// the structured {"code","message","detail"} body.
func TestSessionErrorShapes(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, BatchSize: 1, BatchDelay: time.Millisecond})

	status, body := postJSON(t, ts.URL+"/v1/session", server.SessionRequest{Kind: "transmogrify"}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("bad kind: %d", status)
	}
	assertErrShape(t, body, server.CodeBadRequest)

	status, body = postJSON(t, ts.URL+"/v1/session", server.SessionRequest{Kind: "process", Kernel: "no-such"}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown kernel: %d", status)
	}
	assertErrShape(t, body, server.CodeUnknownKernel)

	status, body = postJSON(t, ts.URL+"/v1/session", server.SessionRequest{Kind: "infer", Model: "no-such"}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown model: %d", status)
	}
	assertErrShape(t, body, server.CodeUnknownModel)

	if status, body = getJSON(t, ts.URL+"/v1/session/s-nope", nil); status != http.StatusNotFound {
		t.Fatalf("unknown id stats: %d", status)
	} else {
		assertErrShape(t, body, server.CodeSessionNotFound)
	}

	resp, err := http.Post(ts.URL+"/v1/session/s-nope/frames", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id frames: %d: %s", resp.StatusCode, body)
	}
	assertErrShape(t, body, server.CodeSessionNotFound)

	// A malformed first line fails the whole request with a proper
	// status — nothing has been streamed yet.
	sr := openSession(t, ts.URL, server.SessionRequest{Kind: "compress"})
	resp, err = http.Post(ts.URL+"/v1/session/"+sr.ID+"/frames", "application/x-ndjson", strings.NewReader("{\"scene\":17}\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed first line: %d: %s", resp.StatusCode, body)
	}
	assertErrShape(t, body, server.CodeBadRequest)

	// A bad frame after good output arrives as a final index -1 record
	// on the already-committed 200 stream.
	fs := startFrames(t, ts.URL, sr.ID)
	defer fs.close()
	fs.send(e2eScenes(1, 0)[0])
	if ln, ok := fs.next(); !ok || ln.Index != 0 || ln.Error != nil {
		t.Fatalf("first frame: %+v ok=%v", ln, ok)
	}
	fs.sendRaw(`{"scene":{"h":1,"w":1,"c":1,"pix_b64":"zzz"}}`)
	sawFatal := false
	for {
		ln, ok := fs.next()
		if !ok {
			break
		}
		if ln.Index == -1 && ln.Error != nil {
			if ln.Error.Code != server.CodeInvalidImage {
				t.Fatalf("stream-fatal code %q, want %q", ln.Error.Code, server.CodeInvalidImage)
			}
			sawFatal = true
		}
	}
	if !sawFatal {
		t.Fatal("bad mid-stream frame produced no index -1 error record")
	}
}

// TestSessionBusyDisconnectResume: one stream at a time (409 busy), a
// vanished client leaves the session open, and the next stream resumes
// the seed chain at the next frame index.
func TestSessionBusyDisconnectResume(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	srv, ts := testServer(t, acc, lightator.ServeOptions{Workers: 2, BatchSize: 1, BatchDelay: time.Millisecond})
	sessSeed := int64(777)
	sr := openSession(t, ts.URL, server.SessionRequest{Kind: "compress", Seed: &sessSeed})
	scenes := e2eScenes(3, 1)

	fs := startFrames(t, ts.URL, sr.ID)
	fs.send(scenes[0])
	if ln, ok := fs.next(); !ok || ln.Index != 0 {
		t.Fatalf("first frame: %+v ok=%v", ln, ok)
	}

	// Second concurrent stream: 409 with the session_busy code.
	resp, err := http.Post(ts.URL+"/v1/session/"+sr.ID+"/frames", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent stream: %d: %s", resp.StatusCode, body)
	}
	assertErrShape(t, body, server.CodeSessionBusy)

	// Client vanishes mid-stream. The session survives, and settles once
	// the aborted stream has let go of it...
	fs.abort()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var stats server.SessionStatsResponse
		if status, _ := getJSON(t, ts.URL+"/v1/session/"+sr.ID, &stats); status != http.StatusOK {
			t.Fatalf("session gone after client disconnect: %d", status)
		} else if !server.SessionBusy(srv, sr.ID) {
			if stats.Stats.Frames != 1 {
				t.Fatalf("aborted stream left %d frames, want 1", stats.Stats.Frames)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never settled after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// ...and the next stream picks up at index 1 with the same bytes a
	// per-frame call at DeriveSeed(sessionSeed, 1) produces.
	results, _ := streamAll(t, ts.URL, sr.ID, scenes[1:])
	if len(results) != 2 || results[0].Index != 1 || results[1].Index != 2 {
		t.Fatalf("resumed stream results %+v, want indices 1,2", results)
	}
	seed := lightator.DeriveSeed(sessSeed, 1)
	var ref server.CompressResponse
	if status, body := postJSON(t, ts.URL+"/v1/compress", server.NewCompressRequest(server.EncodeImage(scenes[1]), &seed), &ref); status != http.StatusOK {
		t.Fatalf("per-frame compress: %d: %s", status, body)
	}
	if results[0].Image == nil || results[0].Image.Pix != ref.Image.Pix {
		t.Fatal("resumed frame 1 bytes differ from the per-frame call")
	}
}

// TestSessionDrainDuringStream: draining closes active sessions — the
// in-flight stream ends with an in-stream draining record, and new
// opens are refused with 503.
func TestSessionDrainDuringStream(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	srv, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, BatchSize: 1, BatchDelay: time.Millisecond})
	sr := openSession(t, ts.URL, server.SessionRequest{Kind: "compress"})

	fs := startFrames(t, ts.URL, sr.ID)
	defer fs.close()
	fs.send(e2eScenes(1, 0)[0])
	if ln, ok := fs.next(); !ok || ln.Index != 0 {
		t.Fatalf("first frame: %+v ok=%v", ln, ok)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	sawDraining := false
	for {
		ln, ok := fs.next()
		if !ok {
			break
		}
		if ln.Index == -1 && ln.Error != nil && ln.Error.Code == server.CodeDraining {
			sawDraining = true
		}
	}
	if !sawDraining {
		t.Fatal("drain did not surface an in-stream draining record")
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if status, body := postJSON(t, ts.URL+"/v1/session", server.SessionRequest{Kind: "compress"}, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("open while drained: %d: %s", status, body)
	} else {
		assertErrShape(t, body, server.CodeDraining)
	}
}

// TestSessionIdleExpiryAndLimit: idle sessions expire server-side, and
// the open-session cap returns 429 session_limit.
func TestSessionIdleExpiryAndLimit(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	_, ts := testServer(t, acc, lightator.ServeOptions{
		Workers: 1, BatchSize: 1, BatchDelay: time.Millisecond,
		MaxSessions: 2, SessionIdleTimeout: 50 * time.Millisecond,
	})
	sr := openSession(t, ts.URL, server.SessionRequest{Kind: "compress"})
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, body := getJSON(t, ts.URL+"/v1/session/"+sr.ID, nil)
		if status == http.StatusNotFound {
			assertErrShape(t, body, server.CodeSessionNotFound)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Long-lived sessions for the cap check.
	idle := int64(60_000)
	openSession(t, ts.URL, server.SessionRequest{Kind: "compress", IdleTimeoutMS: idle})
	openSession(t, ts.URL, server.SessionRequest{Kind: "compress", IdleTimeoutMS: idle})
	status, body := postJSON(t, ts.URL+"/v1/session", server.SessionRequest{Kind: "compress", IdleTimeoutMS: idle}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-cap open: %d: %s", status, body)
	}
	assertErrShape(t, body, server.CodeSessionLimit)
}

// getJSON fetches url, decoding a 200 body into out when non-nil.
func getJSON(t *testing.T, url string, out any) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v (body %q)", url, err, body)
		}
	}
	return resp.StatusCode, body
}
