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
		Pipe:          s.backend.Compress,
		Seed:          s.effectiveSeed(req.Seed),
		Window:        s.cfg.SessionWindow,
		Deterministic: s.backend.Deterministic,
	}
	switch cfg.Kind {
	case session.KindCompress:
	case session.KindProcess:
		// The response echoes the name as sent; an alias runs as its
		// kernel.
		k, ok := s.backend.KernelObjects[kernels.Canonical(req.Kernel)]
		if !ok {
			return http.StatusBadRequest, apiErr(http.StatusBadRequest, CodeUnknownKernel, "unknown kernel %q (GET /v1/kernels lists the registry)", req.Kernel)
		}
		cfg.Kernel = k
	case session.KindInfer:
		m, ok := s.backend.ModelObjects[req.Model]
		if !ok {
			return http.StatusBadRequest, apiErr(http.StatusBadRequest, CodeUnknownModel, "unknown model %q (GET /v1/models lists the registry)", req.Model)
		}
		cfg.Model = m
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
	defer func() {
		cancel()
		// A writer without read deadlines cannot unblock the read; the
		// reader then ends with the body.
		if body.stop() == nil {
			<-readerDone
		}
	}()

	// The reader decodes NDJSON lines into scenes. It owns readErr (a
	// buffered channel, so the send never blocks): a malformed line or a
	// transport read failure is stream-fatal — the seed chain cannot
	// skip the bad frame without renumbering everything behind it.
	in := make(chan *sensor.Image)
	readErr := make(chan error, 1)
	go func() {
		defer close(readerDone)
		defer close(in)
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 64<<10), maxBodyBytes)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			// The line is the scanner's until the next Scan; the
			// envelope decoder streams it like a body and keeps
			// nothing of it.
			var f SessionFrame
			frame, err := decodeEnvelope(line, &f)
			if err != nil {
				readErr <- wrapErr(http.StatusBadRequest, CodeBadRequest, "malformed frame line", err)
				cancel()
				return
			}
			img, err := frame.scene(&f.Scene, nil)
			if err != nil {
				readErr <- wrapErr(http.StatusBadRequest, CodeInvalidImage, "invalid frame scene", err)
				cancel()
				return
			}
			select {
			case in <- img:
			case <-ctx.Done():
				putScene(img)
				return
			}
		}
		if err := sc.Err(); err != nil {
			// A line over the cap gets the code a request body over the
			// same cap gets.
			if errors.Is(err, bufio.ErrTooLong) {
				readErr <- wrapErr(http.StatusRequestEntityTooLarge, CodePayloadTooLarge, "frame line over the 64 MB cap", err)
			} else {
				readErr <- wrapErr(http.StatusBadRequest, CodeBadRequest, "frame stream read failed", err)
			}
			cancel()
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
	emit := func(fr session.FrameResult) error {
		rec := SessionResult{Index: fr.Index, BlocksTotal: fr.Blocks, BlocksReused: fr.Reused, Degraded: s.degraded()}
		if rec.Degraded {
			s.m.degradedResp()
		}
		if fr.Err != nil {
			eb := errorBody(http.StatusBadRequest, wrapErr(http.StatusBadRequest, CodeFrameFailed, "frame failed", fr.Err))
			rec.Error = &eb
		} else {
			switch kind {
			case session.KindCompress:
				iw := EncodeImage(fr.Compressed)
				rec.Image = &iw
			case session.KindProcess:
				iw := EncodeImage(fr.Plane)
				rec.Plane = &iw
			case session.KindInfer:
				rec.Logits = fr.Logits
				class := infer.Argmax(fr.Logits)
				rec.Class = &class
			}
		}
		if err := enc.Encode(rec); err != nil {
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
