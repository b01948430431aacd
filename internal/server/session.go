// The streaming-session endpoints: open, frame stream, stats, close.
//
// The frame stream is one long-lived chunked request: NDJSON
// SessionFrame lines in, NDJSON SessionResult lines out (in frame
// order), a SessionSummary record on clean end. Flow control is
// connection-level: the session keeps at most Window frames in flight,
// and a full window pauses the body read, which TCP propagates to the
// client as backpressure — never a 429
// (docs/SERVER.md#backpressure-and-overload).
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"lightator/internal/infer"
	"lightator/internal/kernels"
	"lightator/internal/sensor"
	"lightator/internal/session"
)

// instrumentStream wraps a streaming handler with the same accounting
// as instrument, but without the MaxBytesReader cap: a frame stream
// legitimately carries an unbounded body (each NDJSON line is still
// bounded by maxBodyBytes). Errors returned after the handler has
// started streaming are reported in-stream, so writeError only fires
// for pre-stream failures.
func (s *Server) instrumentStream(endpoint string, h func(http.ResponseWriter, *http.Request) (int, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		start := time.Now()
		status, err := h(w, r)
		if err != nil {
			writeError(w, errStatus(err, status), err)
		}
		switch status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			s.m.reject(endpoint)
		default:
			s.m.observe(endpoint, time.Since(start), status >= 400 && status != statusClientClosed)
		}
	}
}

// handleSessionOpen opens a streaming session (POST /v1/session).
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) (int, error) {
	if s.sessions == nil {
		return http.StatusNotImplemented, apiErr(http.StatusNotImplemented, CodeNotImplemented, "streaming sessions disabled (CAPool = 0)")
	}
	var req SessionRequest
	if _, err := readEnvelope(r, &req); err != nil {
		return decodeStatus(err), err
	}
	// Session traffic survives until the last shed tier.
	if err := s.admitSession(); err != nil {
		return errStatus(err, http.StatusServiceUnavailable), err
	}
	cfg := session.Config{
		Kind:          session.Kind(req.Kind),
		Pipe:          s.routes["compress"].b.pipe,
		Seed:          s.effectiveSeed(req.Seed),
		Window:        s.cfg.SessionWindow,
		Deterministic: s.backend.Deterministic,
	}
	switch cfg.Kind {
	case session.KindCompress:
	case session.KindProcess:
		// The response echoes the name as sent; an alias runs as its
		// kernel.
		rt := s.routes["process:"+kernels.Canonical(req.Kernel)]
		if rt == nil {
			return http.StatusBadRequest, apiErr(http.StatusBadRequest, CodeUnknownKernel, "unknown kernel %q (GET /v1/kernels lists the registry)", req.Kernel)
		}
		cfg.Kernel = rt.b.pipe.Config().Kernel
	case session.KindInfer:
		rt := s.routes["infer:"+req.Model]
		if rt == nil {
			return http.StatusBadRequest, apiErr(http.StatusBadRequest, CodeUnknownModel, "unknown model %q (GET /v1/models lists the registry)", req.Model)
		}
		cfg.Model = rt.b.pipe.Config().Infer
	default:
		return http.StatusBadRequest, apiErr(http.StatusBadRequest, CodeBadRequest, "unknown session kind %q (want compress, process or infer)", req.Kind)
	}
	if req.Window > 0 {
		cfg.Window = req.Window
	}
	if req.Delta != nil {
		cfg.Delta = session.DeltaConfig{Disable: req.Delta.Disable, Block: req.Delta.Block, Threshold: req.Delta.Threshold}
	}
	if req.IdleTimeoutMS != 0 {
		cfg.IdleTimeout = time.Duration(req.IdleTimeoutMS) * time.Millisecond
	}
	sess, err := s.sessions.Open(cfg)
	switch {
	case err == nil:
	case errors.Is(err, session.ErrClosed):
		return http.StatusServiceUnavailable, errDraining
	case errors.Is(err, session.ErrLimit):
		return http.StatusTooManyRequests, wrapErr(http.StatusTooManyRequests, CodeSessionLimit, "session limit reached", err)
	default:
		return http.StatusBadRequest, wrapErr(http.StatusBadRequest, CodeBadRequest, "invalid session config", err)
	}
	ecfg := sess.Config()
	body, err := json.Marshal(SessionResponse{
		ID:            sess.ID(),
		Kind:          string(ecfg.Kind),
		Kernel:        req.Kernel,
		Model:         req.Model,
		Seed:          ecfg.Seed,
		Window:        ecfg.Window,
		IdleTimeoutMS: ecfg.IdleTimeout.Milliseconds(),
		Delta:         DeltaWire{Disable: ecfg.Delta.Disable, Block: ecfg.Delta.Block, Threshold: ecfg.Delta.Threshold},
		DeltaActive:   sess.DeltaEnabled(),
	})
	if err != nil {
		return http.StatusInternalServerError, err
	}
	writeJSON(w, http.StatusOK, body)
	return http.StatusOK, nil
}

// lookupSession resolves the {id} path segment.
func (s *Server) lookupSession(r *http.Request) (*session.Session, error) {
	if s.sessions == nil {
		return nil, apiErr(http.StatusNotImplemented, CodeNotImplemented, "streaming sessions disabled (CAPool = 0)")
	}
	id := r.PathValue("id")
	sess, ok := s.sessions.Get(id)
	if !ok {
		return nil, apiErr(http.StatusNotFound, CodeSessionNotFound, "unknown session %q", id)
	}
	return sess, nil
}

// handleSessionFrames runs one frame stream
// (POST /v1/session/{id}/frames). The response status is committed by
// the first result line, so anything that goes wrong after that is
// reported as an in-stream record with index -1 and the stream ends.
func (s *Server) handleSessionFrames(w http.ResponseWriter, r *http.Request) (int, error) {
	sess, err := s.lookupSession(r)
	if err != nil {
		return errStatus(err, http.StatusNotFound), err
	}
	if s.draining.Load() {
		return http.StatusServiceUnavailable, errDraining
	}
	if err := s.admitSession(); err != nil {
		return errStatus(err, http.StatusServiceUnavailable), err
	}

	// An HTTP/1.x handler that writes while still reading needs explicit
	// full-duplex mode — otherwise the first result write closes the
	// request body under the frame reader.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		return http.StatusInternalServerError, wrapErr(http.StatusInternalServerError, CodeInternal, "full-duplex streaming unsupported", err)
	}

	ctx, cancel := context.WithCancel(r.Context())
	// The reader must be gone before the handler returns: net/http reads
	// the connection itself afterwards, and two readers on one connection
	// panic.
	body := &frameBody{body: r.Body, rc: rc}
	readerDone := make(chan struct{})
	var sent sceneQueue
	defer func() {
		cancel()
		// A writer without read deadlines cannot unblock the read; the
		// reader then ends with the body.
		if body.stop() == nil {
			<-readerDone
		}
		sent.drain()
	}()

	// The reader decodes NDJSON lines into pooled scenes. It owns readErr
	// (a buffered channel, so the send never blocks): a malformed line or
	// a transport read failure is stream-fatal — the seed chain cannot
	// skip the bad frame without renumbering everything behind it. Each
	// scene goes back to its pool once its frame's result is out.
	in := make(chan *sensor.Image)
	readErr := make(chan error, 1)
	go func() {
		defer close(readerDone)
		defer close(in)
		lines := newFrameLines(body, maxBodyBytes)
		for {
			img, err := lines.frame()
			if err == io.EOF {
				return
			}
			if err != nil {
				readErr <- err
				cancel()
				return
			}
			// Queued before it is sent, so the queue holds every scene
			// the session may read; an unsent one goes back with the
			// rest once the stream is over.
			sent.push(img)
			select {
			case in <- img:
			case <-ctx.Done():
				return
			}
		}
	}()

	// The status is committed lazily: the first encoded record writes
	// the 200. Failures before any output (ErrBusy, an instantly-closed
	// session) still get a proper status + JSON error body.
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	wrote := false
	kind := sess.Config().Kind
	// Compress and process records are appended into one pooled buffer
	// per stream and written with one Write, as enc.Encode writes a
	// record; infer and error records take enc.Encode.
	var out *[]byte
	defer func() { putBuf(&respPool, out) }()
	emit := func(fr session.FrameResult) error {
		sent.done()
		degraded := s.degraded()
		if degraded {
			s.m.degradedResp()
		}
		var err error
		switch {
		case fr.Err == nil && kind != session.KindInfer:
			name, im := "plane", fr.Plane
			if kind == session.KindCompress {
				name, im = "image", fr.Compressed
			}
			if out == nil {
				out = getBuf(&respPool, 0)
			}
			*out = appendSessionImage((*out)[:0], name, im, fr, degraded)
			_, err = w.Write(*out)
		default:
			rec := SessionResult{Index: fr.Index, BlocksTotal: fr.Blocks, BlocksReused: fr.Reused, Degraded: degraded}
			if fr.Err != nil {
				eb := errorBody(http.StatusBadRequest, wrapErr(http.StatusBadRequest, CodeFrameFailed, "frame failed", fr.Err))
				rec.Error = &eb
			} else {
				rec.Logits = fr.Logits
				class := infer.Argmax(fr.Logits)
				rec.Class = &class
			}
			err = enc.Encode(rec)
		}
		if err != nil {
			return err
		}
		wrote = true
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	streamErr := sess.Stream(ctx, in, emit)

	// A reader-side failure surfaces as ctx.Err from Stream; the typed
	// cause is waiting on readErr.
	var fatal error
	select {
	case fatal = <-readErr:
	default:
	}
	switch {
	case streamErr == nil && fatal == nil:
		// Clean end: input EOF, all frames emitted. Trailing summary.
		if err := enc.Encode(SessionSummary{Done: true, Stats: sess.Stats()}); err == nil && flusher != nil {
			flusher.Flush()
		}
		return http.StatusOK, nil
	case fatal != nil:
		return s.streamFatal(w, enc, flusher, wrote, errStatus(fatal, http.StatusBadRequest), fatal)
	case errors.Is(streamErr, session.ErrBusy):
		return s.streamFatal(w, enc, flusher, wrote, http.StatusConflict, apiErr(http.StatusConflict, CodeSessionBusy, "a frame stream is already active on session %q", sess.ID()))
	case errors.Is(streamErr, session.ErrClosed):
		code, msg := CodeSessionClosed, "session closed mid-stream"
		if s.draining.Load() {
			code, msg = CodeDraining, "server draining, session closed"
		}
		return s.streamFatal(w, enc, flusher, wrote, http.StatusServiceUnavailable, apiErr(http.StatusServiceUnavailable, code, "%s", msg))
	case errors.Is(streamErr, context.Canceled), errors.Is(streamErr, context.DeadlineExceeded):
		// Client went away mid-stream; nothing left to tell it.
		return statusClientClosed, nil
	default:
		// emit failed: the response writer is broken (client gone).
		return statusClientClosed, nil
	}
}

// frameBody is the frame reader's view of a stream's request body. Once
// stopped, every Read fails, and a Read blocked on the connection is
// unblocked by a read deadline in the past. The deadline is set only
// while a Read is in progress: a body that has ended has handed the
// connection to net/http's own background read, and failing that read
// would cancel the connection's context under every later request on it.
type frameBody struct {
	body    io.Reader
	rc      *http.ResponseController
	mu      sync.Mutex
	reading bool
	stopped bool
}

func (b *frameBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return 0, context.Canceled
	}
	b.reading = true
	b.mu.Unlock()
	n, err := b.body.Read(p)
	b.mu.Lock()
	b.reading = false
	b.mu.Unlock()
	return n, err
}

// stop ends the reader's access to the body. An error means a Read may
// still be blocked.
func (b *frameBody) stop() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stopped = true
	if !b.reading {
		return nil
	}
	return b.rc.SetReadDeadline(time.Now())
}

// errLineTooLong is the frame reader's error for a line over its cap.
var errLineTooLong = errors.New("server: frame line too long")

// frameLines reads a frame stream one NDJSON line at a time through one
// fixed read buffer. next skips the blank space before a line; Read then
// hands out the line's bytes, as decodeStream reads a body, and io.EOF at
// its '\n'. A JSON string holds no raw newline, so the cut is exact.
// Blank space is what unicode.IsSpace says, so a line reads as
// bytes.TrimSpace would cut it: the blank run ending a line is withheld
// until the line shows whether it goes on after it. Each physical line,
// blank space and '\r' included, its '\n' not, must be shorter than
// limit bytes.
type frameLines struct {
	br    *bufio.Reader
	limit int
	n     int   // bytes of the current physical line consumed
	clean int   // buffered bytes known to hold no '\n'
	err   error // the first read error, io.EOF at the end of the stream
	eol   bool  // the line has been handed out to its end

	// held is a blank run withheld from the line; once release is set,
	// the line went on after it, and Read hands out held[sent:] first.
	held    []byte
	sent    int
	release bool
}

func newFrameLines(r io.Reader, limit int) *frameLines {
	return &frameLines{br: bufio.NewReaderSize(r, readWindow), limit: limit}
}

// frame decodes the stream's next line into a pooled scene. At the end
// of the stream it returns io.EOF; otherwise an error ends the stream:
// payload_too_large for a line over the cap, bad_request for a failed
// read or a malformed line, invalid_image for a scene that does not
// decode.
func (l *frameLines) frame() (*sensor.Image, error) {
	var f SessionFrame
	var in ingest
	defer in.release()
	ok, err := l.next()
	if ok {
		in, err = decodeStream(l, -1, &f)
	} else if err == nil {
		return nil, io.EOF
	}
	switch {
	case err == errLineTooLong:
		return nil, wrapErr(http.StatusRequestEntityTooLarge, CodePayloadTooLarge, "frame line over the 64 MB cap", err)
	case l.err != nil && l.err != io.EOF:
		return nil, wrapErr(http.StatusBadRequest, CodeBadRequest, "frame stream read failed", l.err)
	case err != nil:
		return nil, wrapErr(http.StatusBadRequest, CodeBadRequest, "malformed frame line", err)
	}
	if _, err := in.scene(&f.Scene, nil); err != nil {
		return nil, wrapErr(http.StatusBadRequest, CodeInvalidImage, "invalid frame scene", err)
	}
	// The scene leaves the ingest for the stream's sceneQueue, which
	// returns it once its frame's result is out.
	return in.take(), nil
}

// peek returns the buffered bytes, reading once more first when fewer
// than want are buffered. When fewer than want are left, err is the
// read error that ended the stream: io.EOF, or a failed read.
func (l *frameLines) peek(want int) ([]byte, error) {
	if l.err == nil {
		if _, err := l.br.Peek(want); err != nil {
			l.err = err
		}
	}
	b, _ := l.br.Peek(l.br.Buffered())
	if len(b) >= want {
		return b, nil
	}
	return b, l.err
}

// discard consumes n buffered bytes of the current line.
func (l *frameLines) discard(n int) {
	l.br.Discard(n)
	l.n += n
	l.clean = max(l.clean-n, 0)
}

// newline returns the offset of the first '\n' in b, the buffered
// bytes, or -1.
func (l *frameLines) newline(b []byte) int {
	if i := bytes.IndexByte(b[l.clean:], '\n'); i >= 0 {
		return l.clean + i
	}
	l.clean = len(b)
	return -1
}

// next skips the blank space, blank lines among it, before the stream's
// next line and reports whether one follows.
func (l *frameLines) next() (bool, error) {
	l.eol = false
	want := 1
	for {
		b, err := l.peek(want)
		if err != nil && err != io.EOF {
			return false, err
		}
		i := 0
		for i < len(b) {
			r, w := rune(b[i]), 1
			if r >= utf8.RuneSelf {
				if !utf8.FullRune(b[i:]) && err == nil {
					break
				}
				r, w = utf8.DecodeRune(b[i:])
			}
			if !unicode.IsSpace(r) {
				l.discard(i)
				return true, nil
			}
			if r == '\n' {
				l.discard(i + 1)
				b, i, l.n = b[i+1:], 0, 0
				continue
			}
			if l.n+i+w >= l.limit {
				return false, errLineTooLong
			}
			i += w
		}
		l.discard(i)
		if err == io.EOF {
			return false, nil
		}
		// Read on; when a rune's first bytes are left, until it is whole.
		want = len(b) - i + 1
	}
}

// Read hands out the current line's bytes, up to its last non-blank
// rune, then io.EOF.
func (l *frameLines) Read(p []byte) (int, error) {
	want := 1
	for {
		if l.release {
			n := copy(p, l.held[l.sent:])
			if l.sent += n; l.sent == len(l.held) {
				l.held, l.sent, l.release = l.held[:0], 0, false
			}
			return n, nil
		}
		if l.eol {
			return 0, io.EOF
		}
		b, err := l.peek(want)
		if err != nil && err != io.EOF {
			return 0, err
		}
		seg, nl := b, false
		if i := l.newline(b); i >= 0 {
			seg, nl = b[:i], true
		}
		if l.n+len(seg) >= l.limit {
			return 0, errLineTooLong
		}
		// The line ends in seg when seg ends at its '\n' or the stream.
		end := nl || err == io.EOF
		if !end {
			// A rune's first bytes wait for the rest: it may be blank.
			seg = seg[:len(seg)-partialRune(seg)]
		}
		text := bytes.TrimRightFunc(seg, unicode.IsSpace)
		run := seg[len(text):]
		switch {
		case len(text) > 0 && len(l.held) > 0:
			l.release = true
		case len(text) > 0:
			n := copy(p, text)
			l.discard(n)
			if end && n == len(text) {
				l.endLine(len(run), nl)
			}
			return n, nil
		case end:
			l.endLine(len(run), nl)
			return 0, io.EOF
		case len(run) > 0:
			l.held = append(l.held, run...)
			l.discard(len(run))
			want = 1
		default:
			// Only a rune's first bytes are buffered.
			want = len(b) + 1
		}
	}
}

// endLine drops the line's blank tail, the run of n buffered bytes and
// any held one, and its '\n' when nl is set.
func (l *frameLines) endLine(n int, nl bool) {
	if nl {
		n++
	}
	l.discard(n)
	l.n, l.eol = 0, true
	l.held, l.sent = l.held[:0], 0
	if cap(l.held) > readWindow {
		l.held = nil
	}
}

// partialRune returns how many bytes at the end of b begin a UTF-8
// sequence that more bytes could complete.
func partialRune(b []byte) int {
	for k := 1; k < utf8.UTFMax && k <= len(b); k++ {
		if utf8.RuneStart(b[len(b)-k]) {
			if utf8.FullRune(b[len(b)-k:]) {
				return 0
			}
			return k
		}
	}
	return 0
}

// sceneQueue holds the scenes a frame stream has sent its session, in
// feed order, until their frames' results are out. The session emits
// results in feed order, and capture, the one stage that reads a scene,
// is done by then, so the oldest scene is the one a result releases.
type sceneQueue struct {
	mu     sync.Mutex
	scenes []*sensor.Image
}

func (q *sceneQueue) push(im *sensor.Image) {
	q.mu.Lock()
	q.scenes = append(q.scenes, im)
	q.mu.Unlock()
}

// done returns the oldest scene to its pool, once its result is out.
func (q *sceneQueue) done() {
	q.mu.Lock()
	im := q.scenes[0]
	q.scenes = append(q.scenes[:0], q.scenes[1:]...)
	q.mu.Unlock()
	putScene(im)
}

// drain returns every queued scene to its pool once the session has
// stopped and the reader is done: the frames a session drops after a
// failed write emit no result, and the reader's last scene may be
// unsent.
func (q *sceneQueue) drain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, im := range q.scenes {
		putScene(im)
	}
	q.scenes = nil
}

// streamFatal reports a stream-ending condition: as a plain HTTP error
// while the status is still open, as a final index -1 record once
// results have been written.
func (s *Server) streamFatal(w http.ResponseWriter, enc *json.Encoder, flusher http.Flusher, wrote bool, status int, err error) (int, error) {
	if !wrote {
		return status, err
	}
	eb := errorBody(status, err)
	if encErr := enc.Encode(SessionResult{Index: -1, Error: &eb}); encErr == nil && flusher != nil {
		flusher.Flush()
	}
	return status, nil
}

// handleSessionStats reports a session's live counters
// (GET /v1/session/{id}).
func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) (int, error) {
	sess, err := s.lookupSession(r)
	if err != nil {
		return errStatus(err, http.StatusNotFound), err
	}
	return s.writeSessionStats(w, sess)
}

// handleSessionClose closes a session and reports its final counters
// (DELETE /v1/session/{id}).
func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) (int, error) {
	if s.sessions == nil {
		return http.StatusNotImplemented, apiErr(http.StatusNotImplemented, CodeNotImplemented, "streaming sessions disabled (CAPool = 0)")
	}
	id := r.PathValue("id")
	sess, ok := s.sessions.Close(id)
	if !ok {
		return http.StatusNotFound, apiErr(http.StatusNotFound, CodeSessionNotFound, "unknown session %q", id)
	}
	return s.writeSessionStats(w, sess)
}

// writeSessionStats renders the shared stats payload.
func (s *Server) writeSessionStats(w http.ResponseWriter, sess *session.Session) (int, error) {
	body, err := json.Marshal(SessionStatsResponse{
		ID:    sess.ID(),
		Kind:  string(sess.Config().Kind),
		Stats: sess.Stats(),
	})
	if err != nil {
		return http.StatusInternalServerError, err
	}
	writeJSON(w, http.StatusOK, body)
	return http.StatusOK, nil
}
