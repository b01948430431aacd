// Package session is Lightator's streaming video layer: persistent
// sessions that carry a per-session seed chain across frames, drive the
// shared capture+CA pipeline in streaming mode, and exploit inter-frame
// redundancy in the compressed domain (see delta.go).
//
// The determinism contract extends the serving layer's: session frame i
// is processed exactly as a per-frame facade/HTTP call with request
// seed DeriveSeed(sessionSeed, i) — streamed output bytes are identical
// to those per-frame calls at any worker count, for every fidelity.
// Temporal reuse preserves that bit-for-bit in deterministic fidelities
// (and is disabled elsewhere).
//
// Flow control is connection-level, not admission-level: a stream keeps
// at most Window frames in flight between producer and consumer. When
// the window is full the feeder stops pulling input, which propagates
// to the HTTP layer as a paused body read (TCP backpressure) instead of
// a 429.
package session

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lightator/internal/kernels"
	"lightator/internal/oc"
	"lightator/internal/pipeline"
	"lightator/internal/sensor"
)

// Kind selects what a session computes per frame.
type Kind string

const (
	// KindCompress emits the CA measurement plane per frame.
	KindCompress Kind = "compress"
	// KindProcess emits a compressed-domain kernel's output per frame.
	KindProcess Kind = "process"
	// KindInfer emits class logits per frame.
	KindInfer Kind = "infer"
)

// Lifecycle sentinels.
var (
	// ErrBusy means a frame stream is already active on the session
	// (one at a time — the seed chain is strictly ordered).
	ErrBusy = errors.New("session: a frame stream is already active")
	// ErrClosed means the session was closed (explicitly, by idle
	// expiry, or by server drain).
	ErrClosed = errors.New("session: closed")
)

// Config assembles a session.
type Config struct {
	// Kind selects the per-frame computation.
	Kind Kind
	// Kernel is the compressed-domain operator for KindProcess.
	Kernel kernels.Kernel
	// Model is the inference model for KindInfer.
	Model pipeline.InferModel
	// Pipe is the capture+CA pipeline session frames flow through. It
	// may be shared with other sessions and endpoints — every frame
	// carries its own seed, so sharing never changes any output.
	Pipe *pipeline.Pipeline
	// Seed is the session seed; frame i is processed as a per-frame
	// call with request seed oc.DeriveSeed(Seed, i).
	Seed int64
	// Workers bounds the kernel/infer stage parallelism (the stage
	// contracts make the count unobservable in output bytes). Defaults
	// to runtime.NumCPU().
	Workers int
	// Window bounds in-flight frames per stream — the connection-level
	// backpressure window. Defaults to 8.
	Window int
	// Deterministic reports a noise-free fidelity; temporal reuse is
	// forced off when false (stale results would not be bit-identical
	// under per-frame noise seeds).
	Deterministic bool
	// Delta tunes temporal reuse.
	Delta DeltaConfig
	// IdleTimeout expires the session when it sits idle this long
	// (enforced by the Manager's sweeper; 0 means the manager default).
	IdleTimeout time.Duration
}

// Stats is a session's cumulative reuse accounting. Blocks counts reuse
// units: kernel windows for process sessions, whole-frame results for
// compress and infer sessions (see docs/SERVER.md).
type Stats struct {
	Frames       int64   `json:"frames"`
	Errors       int64   `json:"errors"`
	BlocksTotal  int64   `json:"blocks_total"`
	BlocksReused int64   `json:"blocks_reused"`
	ReusedFrac   float64 `json:"blocks_reused_frac"`
}

// frac fills the derived ratio.
func (st Stats) frac() Stats {
	if st.BlocksTotal > 0 {
		st.ReusedFrac = float64(st.BlocksReused) / float64(st.BlocksTotal)
	}
	return st
}

// FrameResult is one ordered frame's session output.
type FrameResult struct {
	// Index is the frame's position in the session's seed chain.
	Index int
	// Compressed is the CA measurement plane.
	Compressed *sensor.Image
	// Plane is the kernel output (KindProcess only).
	Plane *sensor.Image
	// Logits is the inference output (KindInfer only).
	Logits []float64
	// Blocks and Reused are the frame's compute-unit total and how many
	// of them were carried forward from the previous frame.
	Blocks, Reused int
	// Err is the frame's pipeline error, if any; errored frames still
	// consume their index in the seed chain.
	Err error
}

// Session is one streaming session. Safe for concurrent use; at most
// one Stream runs at a time.
type Session struct {
	id  string
	cfg Config

	done      chan struct{}
	closeOnce sync.Once

	mu         sync.Mutex
	busy       bool
	closed     bool
	next       int // next frame index in the seed chain
	lastActive time.Time
	stats      Stats
	streams    sync.WaitGroup

	// delta is owned by the active stream's emitter (one at a time).
	delta deltaEngine
}

// New validates the configuration and builds a session. The id is the
// caller's handle (the Manager assigns its own).
func New(id string, cfg Config) (*Session, error) {
	if cfg.Pipe == nil {
		return nil, fmt.Errorf("session: needs a capture+CA pipeline")
	}
	switch cfg.Kind {
	case KindCompress:
	case KindProcess:
		if cfg.Kernel == nil {
			return nil, fmt.Errorf("session: kind %q needs a kernel", cfg.Kind)
		}
	case KindInfer:
		if cfg.Model == nil {
			return nil, fmt.Errorf("session: kind %q needs a model", cfg.Kind)
		}
	default:
		return nil, fmt.Errorf("session: unknown kind %q (want compress, process or infer)", cfg.Kind)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	cfg.Delta = cfg.Delta.withDefaults()
	s := &Session{
		id:         id,
		cfg:        cfg,
		done:       make(chan struct{}),
		lastActive: time.Now(),
	}
	s.delta.cfg = cfg.Delta
	// KindCompress always runs the full CA — there is nothing downstream
	// to reuse.
	s.delta.enabled = cfg.Deterministic && !cfg.Delta.Disable && cfg.Kind != KindCompress
	return s, nil
}

// ID returns the caller-assigned handle.
func (s *Session) ID() string { return s.id }

// Config returns the effective (defaulted) configuration.
func (s *Session) Config() Config { return s.cfg }

// DeltaEnabled reports whether temporal reuse is active.
func (s *Session) DeltaEnabled() bool { return s.delta.enabled }

// Busy reports whether a frame stream is active on the session.
func (s *Session) Busy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy
}

// Stats snapshots the session's cumulative reuse accounting.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.frac()
}

// NextIndex returns the next frame's seed-chain index.
func (s *Session) NextIndex() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// LastActive returns the last time the session opened, finished a
// stream, or emitted a frame.
func (s *Session) LastActive() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastActive
}

// Idle reports whether the session has been inactive past d at now.
// A session with an active stream is never idle.
func (s *Session) Idle(now time.Time, d time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.busy && !s.closed && now.Sub(s.lastActive) > d
}

// Close terminates the session: the active stream (if any) stops
// feeding new frames, finishes in-flight ones, and returns ErrClosed.
// Idempotent.
func (s *Session) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.done)
	})
}

// Done is closed when the session is closed.
func (s *Session) Done() <-chan struct{} { return s.done }

// Stream processes scenes from in, invoking emit once per frame in
// strict seed-chain order. It returns when in closes and every fed
// frame has been emitted, or early when ctx is cancelled, the session
// is closed (ErrClosed), or emit returns an error (returned verbatim).
// On every early return the stream still finishes frames already fed to
// the pipeline — the seed chain and delta state stay consistent, so a
// later Stream call resumes at the next index. Only one Stream runs at
// a time (ErrBusy otherwise).
func (s *Session) Stream(ctx context.Context, in <-chan *sensor.Image, emit func(FrameResult) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.busy {
		s.mu.Unlock()
		return ErrBusy
	}
	s.busy = true
	base := s.next
	s.streams.Add(1)
	s.mu.Unlock()
	fed := 0
	defer func() {
		s.mu.Lock()
		s.busy = false
		s.next = base + fed
		s.lastActive = time.Now()
		s.mu.Unlock()
		s.streams.Done()
	}()

	// The feeder pulls scenes only while a window slot is free; a full
	// window pauses input consumption, which the HTTP layer surfaces as
	// connection-level backpressure.
	pipeIn := make(chan pipeline.SeededScene)
	window := make(chan struct{}, s.cfg.Window)
	stop := make(chan struct{})
	var stopOnce sync.Once
	abort := func() { stopOnce.Do(func() { close(stop) }) }
	go func() {
		defer close(pipeIn)
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-s.done:
				return
			case window <- struct{}{}:
			}
			var scene *sensor.Image
			var ok bool
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-s.done:
				return
			case scene, ok = <-in:
				if !ok {
					return
				}
			}
			pipeIn <- pipeline.SeededScene{Seed: oc.DeriveSeed(s.cfg.Seed, base+i), Scene: scene}
			i++
		}
	}()

	out := s.cfg.Pipe.StreamSeeded(pipeIn)
	pending := make(map[int]pipeline.Result)
	nextIdx := 0
	var emitErr error
	for res := range out {
		pending[res.Index] = res
		for {
			r, ok := pending[nextIdx]
			if !ok {
				break
			}
			delete(pending, nextIdx)
			fr := s.finishFrame(base+nextIdx, r)
			nextIdx++
			<-window
			if emitErr == nil {
				if err := emit(fr); err != nil {
					emitErr = err
					abort()
				}
			}
		}
	}
	// Every frame fed to the pipeline came back through the ordered
	// emitter, so nextIdx is exactly the count of consumed indices.
	fed = nextIdx
	if emitErr != nil {
		return emitErr
	}
	select {
	case <-s.done:
		return ErrClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// finishFrame runs the ordered per-frame tail: the delta stage plus the
// kernel/infer stage, with the exact stage seeds the per-frame path
// would use, and the session's reuse accounting.
func (s *Session) finishFrame(idx int, res pipeline.Result) FrameResult {
	if res.Err != nil {
		s.mu.Lock()
		s.stats.Frames++
		s.stats.Errors++
		s.lastActive = time.Now()
		s.mu.Unlock()
		return FrameResult{Index: idx, Err: res.Err}
	}
	fr := FrameResult{Index: idx, Compressed: res.Compressed}
	frameSeed := pipeline.FrameSeed(oc.DeriveSeed(s.cfg.Seed, idx))
	var err error
	switch s.cfg.Kind {
	case KindCompress:
		fr.Blocks, fr.Reused = 1, 0
	case KindProcess:
		fr.Plane, fr.Reused, fr.Blocks, err = s.delta.process(
			s.cfg.Kernel, res.Compressed,
			pipeline.StageSeed(frameSeed, pipeline.StageKernel), s.cfg.Workers)
	case KindInfer:
		fr.Logits, fr.Reused, fr.Blocks, err = s.delta.infer(
			s.cfg.Model, res.Compressed,
			pipeline.StageSeed(frameSeed, pipeline.StageInfer), s.cfg.Workers)
	}
	if err != nil {
		fr.Err = err
	}
	s.mu.Lock()
	s.stats.Frames++
	if fr.Err != nil {
		s.stats.Errors++
	}
	s.stats.BlocksTotal += int64(fr.Blocks)
	s.stats.BlocksReused += int64(fr.Reused)
	s.lastActive = time.Now()
	s.mu.Unlock()
	return fr
}
