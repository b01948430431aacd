// Package server is Lightator's network serving layer: an HTTP/JSON
// front-end over the accelerator that turns independent requests into
// pipeline batches via dynamic micro-batching.
//
//	POST   /v1/capture             one ADC-less sensor readout        (micro-batched)
//	POST   /v1/compress            capture + compressive acquisition  (micro-batched)
//	POST   /v1/process             capture + CA + compressed-domain kernel (micro-batched)
//	POST   /v1/matvec              one optical matrix-vector product
//	POST   /v1/simulate            architecture simulation of a named model
//	POST   /v1/session             open a streaming video session
//	POST   /v1/session/{id}/frames NDJSON frames in, ordered results out
//	GET    /v1/session/{id}        session reuse counters
//	DELETE /v1/session/{id}        close a session (final counters)
//	GET    /v1/kernels             the compressed-domain kernel registry
//	GET    /healthz                liveness (always 200 while the process runs)
//	GET    /readyz                 readiness (503 while draining)
//	GET    /metrics                Prometheus text (or ?format=json snapshot)
//
// Three serving properties are load-bearing (docs/SERVER.md):
//
//   - Determinism: a micro-batched response is byte-identical to the
//     corresponding direct facade call — each frame enters the pipeline
//     with its own seed (pipeline.RunSeeded), so batch composition never
//     leaks into a result. That also makes responses content-addressable:
//     deterministic fidelities are served from a content-hash LRU cache.
//
//   - Backpressure: admission is a bounded queue; when it is full the
//     request is rejected with 429 instead of queueing unboundedly.
//
//   - Graceful shutdown: Drain stops admission (503 for new work),
//     flushes partially-filled batches immediately, and waits for every
//     in-flight frame before returning.
package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"lightator/internal/arch"
	"lightator/internal/energy"
	"lightator/internal/kernels"
	"lightator/internal/oc"
	"lightator/internal/pipeline"
	"lightator/internal/sensor"
	"lightator/internal/session"
	"lightator/internal/trace"
)

// maxBodyBytes bounds request bodies: a 256x256 RGB float64 scene is
// ~2.1 MB base64-encoded, so 64 MB leaves generous headroom for larger
// sensors and matvec weight payloads without letting one client exhaust
// memory.
const maxBodyBytes = 64 << 20

// Backend wires the server to the accelerator internals. The facade
// (lightator.Accelerator.NewServer) is the intended constructor of this
// struct; tests may assemble it directly.
type Backend struct {
	// Capture is the capture-only pipeline behind /v1/capture.
	Capture *pipeline.Pipeline
	// Compress is the capture+CA pipeline behind /v1/compress; nil when
	// the accelerator has compressive acquisition disabled.
	Compress *pipeline.Pipeline
	// Process maps each registered compressed-domain kernel to its
	// capture+CA+kernel pipeline (behind /v1/process); nil or empty when
	// compressive acquisition is disabled.
	Process map[string]*pipeline.Pipeline
	// Kernels describes the registry for GET /v1/kernels, sorted by name.
	Kernels []KernelInfo
	// Infer maps each registered inference model to its capture+CA+infer
	// pipeline (behind /v1/infer scene requests); nil or empty when
	// compressive acquisition is disabled.
	Infer map[string]*pipeline.Pipeline
	// Models describes the registry for GET /v1/models, sorted by name.
	Models []ModelInfo
	// InferPlane runs a registered model directly over a pre-compressed
	// measurement plane (the /v1/infer plane path, which bypasses the
	// micro-batcher — there is no pipeline trip to coalesce).
	InferPlane func(model string, plane *sensor.Image, seed int64) ([]float64, error)
	// KernelObjects maps kernel names to their operators, for streaming
	// sessions (which run the kernel stage themselves, after the delta
	// diff). Keys mirror Process.
	KernelObjects map[string]kernels.Kernel
	// ModelObjects maps model names to their inference models, for
	// streaming sessions. Keys mirror Infer.
	ModelObjects map[string]pipeline.InferModel
	// Core executes /v1/matvec.
	Core *oc.Core
	// Seed is the base noise seed a request without an explicit seed
	// uses — the accelerator Config.Seed, so default responses line up
	// with the facade's batched paths.
	Seed int64
	// Deterministic reports whether the analog fidelity is noise-free
	// (Ideal or Physical); it gates the response cache for the compute
	// endpoints. (Seeded noisy responses are reproducible too, but the
	// cache intentionally serves only deterministic fidelities.)
	Deterministic bool
	// Simulate runs the architecture simulator for /v1/simulate.
	Simulate func(model string) (*arch.Report, error)
	// Energy prices per-request op counts for the observability layer; a
	// zero value takes energy.Default() — existing backends need not set
	// it.
	Energy energy.Params
	// WBits is the weight precision the energy bridge prices DAC holds
	// at; 0 takes the paper's default 4.
	WBits int
}

// Config tunes the serving layer; zero values take the documented
// defaults.
type Config struct {
	// BatchSize flushes a micro-batch when it reaches this many frames.
	// Default 8.
	BatchSize int
	// BatchDelay flushes a partial batch this long after its first frame
	// arrived. Default 2ms.
	BatchDelay time.Duration
	// Queue bounds each batched endpoint's admission queue; a full queue
	// rejects with 429. Default 64.
	Queue int
	// MaxBatches bounds concurrent in-flight pipeline batches per
	// endpoint. Default 2.
	MaxBatches int
	// CacheEntries sizes the content-hash response LRU; 0 means the
	// default 256, negative disables caching.
	CacheEntries int
	// TraceEntries sizes the /debug/traces ring; 0 means the default
	// 256, negative disables per-request trace retention (headers are
	// still set).
	TraceEntries int
	// Debug mounts the opt-in debug mux: net/http/pprof under
	// /debug/pprof/ and the runtime snapshot at /debug/runtime.
	// /debug/traces is always mounted.
	Debug bool
	// MaxSessions bounds concurrently open streaming sessions. Default 64.
	MaxSessions int
	// SessionIdleTimeout expires sessions with no activity. Default 60s;
	// negative disables expiry.
	SessionIdleTimeout time.Duration
	// SessionWindow is the default per-stream in-flight frame window (the
	// connection-level backpressure bound). Default 8.
	SessionWindow int
	// RequestTimeout bounds each compute request's wall time; a request
	// that outlives it gets 504 deadline_exceeded (its frame may still
	// complete inside the batch). 0 disables; negative also disables.
	RequestTimeout time.Duration
	// ReadHeaderTimeout and IdleTimeout harden the HTTP listener against
	// slow-loris clients and idle keep-alive pile-ups. Defaults 10s and
	// 120s; negative disables.
	ReadHeaderTimeout time.Duration
	IdleTimeout       time.Duration
	// RejectDegraded turns degraded service into refusal: while any
	// optical component is degraded (retired rows, unrecovered ABFT
	// detections), compute requests get 503 degraded_unavailable instead
	// of a flagged 200 (docs/FAULTS.md#the-wire-contract).
	RejectDegraded bool
	// ShedCacheMiss, ShedNonSession and ShedAll are the tiered load
	// shedder's queue-occupancy thresholds in (0,1]: at ShedCacheMiss the
	// server sheds cache-miss bulk compute, at ShedNonSession all
	// non-session compute (cache hits included), at ShedAll everything
	// (session opens and streams too). Defaults 0.75 / 0.90 / 0.98;
	// negative disables that tier; New rejects NaN and values above 1.
	ShedCacheMiss  float64
	ShedNonSession float64
	ShedAll        float64
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.BatchDelay <= 0 {
		c.BatchDelay = 2 * time.Millisecond
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.MaxBatches <= 0 {
		c.MaxBatches = 2
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.TraceEntries == 0 {
		c.TraceEntries = 256
	}
	if c.ReadHeaderTimeout == 0 {
		c.ReadHeaderTimeout = 10 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 120 * time.Second
	}
	if c.ShedCacheMiss == 0 {
		c.ShedCacheMiss = 0.75
	}
	if c.ShedNonSession == 0 {
		c.ShedNonSession = 0.90
	}
	if c.ShedAll == 0 {
		c.ShedAll = 0.98
	}
	return c
}

// Server is a configured serving layer. Create with New, expose with
// Handler (or Serve/ListenAndServe), stop with Drain or Shutdown.
type Server struct {
	backend Backend
	cfg     Config
	mux     *http.ServeMux
	m       *metrics
	cache   *responseCache
	traces  *trace.Ring
	// energy maps each pipeline series (capture, compress,
	// process:<kernel>, infer:<model>) to its modeled per-request gauge,
	// fixed at construction.
	energy map[string]EnergyGauge

	captureB  *batcher
	compressB *batcher
	processB  map[string]*batcher // one micro-batcher per kernel
	inferB    map[string]*batcher // one micro-batcher per model

	// sessions is the streaming-session registry; nil when compressive
	// acquisition is disabled (sessions stream the capture+CA pipeline).
	sessions *session.Manager

	// chaos reports an active fault-injection plan on the core. The
	// response cache is disabled under chaos: injected faults make
	// outputs depend on per-request seeds and on the recovery ladder's
	// live state, neither of which the content-hash key captures.
	chaos bool

	inflight atomic.Int64
	draining atomic.Bool
	stopped  chan struct{} // closed when Drain has finished

	httpSrv *http.Server
}

// New builds a server over the backend. The Capture pipeline is required;
// Compress may be nil (its endpoint then reports 501).
func New(b Backend, cfg Config) (*Server, error) {
	if b.Capture == nil {
		return nil, fmt.Errorf("server: backend needs a capture pipeline")
	}
	if b.Core == nil {
		return nil, fmt.Errorf("server: backend needs an optical core")
	}
	if b.Simulate == nil {
		return nil, fmt.Errorf("server: backend needs a simulate function")
	}
	cfg = cfg.withDefaults()
	for _, t := range []struct {
		name string
		v    float64
	}{{"ShedCacheMiss", cfg.ShedCacheMiss}, {"ShedNonSession", cfg.ShedNonSession}, {"ShedAll", cfg.ShedAll}} {
		// Above 1 (occupancy never gets there) or NaN (compares false),
		// a tier would be silently off.
		if !(t.v <= 1) {
			return nil, fmt.Errorf("server: %s = %v, want a queue occupancy in (0,1], or negative to disable the tier", t.name, t.v)
		}
	}
	// Zero-value energy params mean "unconfigured" (a real model always
	// has a clock): default them so directly-assembled backends keep
	// working and always price requests with the calibrated model.
	if b.Energy.ClockHz == 0 {
		b.Energy = energy.Default()
	}
	if b.WBits == 0 {
		b.WBits = 4
	}
	s := &Server{
		backend: b,
		cfg:     cfg,
		m:       newMetrics(),
		cache:   newResponseCache(cfg.CacheEntries),
		traces:  trace.NewRing(cfg.TraceEntries),
		chaos:   b.Core.FaultPlan() != nil,
		stopped: make(chan struct{}),
	}
	// Per-series energy gauges are fixed by the pipelines' geometry;
	// compute them once.
	s.energy = make(map[string]EnergyGauge)
	addGauge := func(name string, pipe *pipeline.Pipeline) {
		j := b.Energy.RequestEnergy(pipe.FrameOps().Total(), b.WBits).Total()
		s.energy[name] = EnergyGauge{
			EnergyJPerRequest: j,
			ModeledKFPSPerW:   energy.ModeledKFPSPerW(j),
		}
	}
	addGauge("capture", b.Capture)
	if b.Compress != nil {
		addGauge("compress", b.Compress)
	}
	for name, pipe := range b.Process {
		addGauge("process:"+name, pipe)
	}
	for name, pipe := range b.Infer {
		addGauge("infer:"+name, pipe)
	}
	// Built here, not in Serve, so Shutdown never races a concurrent
	// Serve call on the field. Header/idle timeouts bound slow-loris
	// clients and keep-alive pile-ups (negative config disables).
	s.httpSrv = &http.Server{}
	if cfg.ReadHeaderTimeout > 0 {
		s.httpSrv.ReadHeaderTimeout = cfg.ReadHeaderTimeout
	}
	if cfg.IdleTimeout > 0 {
		s.httpSrv.IdleTimeout = cfg.IdleTimeout
	}
	s.captureB = newBatcher(b.Capture, cfg.BatchSize, cfg.Queue, cfg.MaxBatches, cfg.BatchDelay, s.m)
	if b.Compress != nil {
		s.compressB = newBatcher(b.Compress, cfg.BatchSize, cfg.Queue, cfg.MaxBatches, cfg.BatchDelay, s.m)
	}
	s.processB = make(map[string]*batcher, len(b.Process))
	for name, pipe := range b.Process {
		s.processB[name] = newBatcher(pipe, cfg.BatchSize, cfg.Queue, cfg.MaxBatches, cfg.BatchDelay, s.m)
	}
	s.inferB = make(map[string]*batcher, len(b.Infer))
	for name, pipe := range b.Infer {
		s.inferB[name] = newBatcher(pipe, cfg.BatchSize, cfg.Queue, cfg.MaxBatches, cfg.BatchDelay, s.m)
	}
	if b.Compress != nil {
		s.sessions = session.NewManager(session.ManagerConfig{
			MaxSessions: cfg.MaxSessions,
			IdleTimeout: cfg.SessionIdleTimeout,
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/capture", s.instrument("/v1/capture", handleFrame[CaptureRequest](s, "/v1/capture", s.captureOp)))
	mux.HandleFunc("POST /v1/compress", s.instrument("/v1/compress", handleFrame[CompressRequest](s, "/v1/compress", s.compressOp)))
	mux.HandleFunc("POST /v1/process", s.instrument("/v1/process", handleFrame[ProcessRequest](s, "/v1/process", s.processOp)))
	mux.HandleFunc("POST /v1/infer", s.instrument("/v1/infer", handleFrame[InferRequest](s, "/v1/infer", s.inferOp)))
	mux.HandleFunc("POST /v1/session", s.instrument("/v1/session", s.handleSessionOpen))
	mux.HandleFunc("POST /v1/session/{id}/frames", s.instrumentStream("/v1/session/frames", s.handleSessionFrames))
	mux.HandleFunc("GET /v1/session/{id}", s.instrument("/v1/session", s.handleSessionStats))
	mux.HandleFunc("DELETE /v1/session/{id}", s.instrument("/v1/session", s.handleSessionClose))
	mux.HandleFunc("POST /v1/matvec", s.instrument("/v1/matvec", s.handleMatVec))
	mux.HandleFunc("POST /v1/simulate", s.instrument("/v1/simulate", s.handleSimulate))
	mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if cfg.Debug {
		s.mountDebug(mux)
	}
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP handler (for httptest or embedding behind an
// existing server/router).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns a snapshot of the server's counters and the cumulative
// pipeline stats behind the batched endpoints.
func (s *Server) Metrics() MetricsSnapshot {
	snap := s.m.snapshot()
	snap.Inflight = s.inflight.Load()
	snap.Draining = s.draining.Load()
	snap.CacheEntries = s.cache.len()
	snap.CacheCapacity = s.cache.capacity()
	snap.CacheBytes = s.cache.sizeBytes()
	snap.Queues = s.queueSnapshots()
	snap.Energy = make(map[string]EnergyGauge, len(s.energy))
	for name, g := range s.energy {
		snap.Energy[name] = g
	}
	st := s.backend.Capture.Stats()
	snap.Capture = st.Report()
	if s.backend.Compress != nil {
		st = s.backend.Compress.Stats()
		snap.Compress = st.Report()
	}
	if len(s.backend.Process) > 0 {
		snap.Process = make(map[string]pipeline.StatsReport, len(s.backend.Process))
		for name, pipe := range s.backend.Process {
			st = pipe.Stats()
			snap.Process[name] = st.Report()
		}
	}
	if len(s.backend.Infer) > 0 {
		snap.Infer = make(map[string]pipeline.StatsReport, len(s.backend.Infer))
		for name, pipe := range s.backend.Infer {
			st = pipe.Stats()
			snap.Infer[name] = st.Report()
		}
	}
	if s.sessions != nil {
		ss := s.sessions.Stats()
		snap.Sessions = &ss
	}
	reg := s.backend.Core.Health()
	snap.Degraded = reg.Degraded()
	snap.Health = reg.Snapshot()
	return snap
}

// queueSnapshots gauges every batched endpoint's admission state, keyed
// by endpoint with per-kernel/model series suffixed by name.
func (s *Server) queueSnapshots() map[string]QueueSnapshot {
	qs := make(map[string]QueueSnapshot, 2+len(s.processB)+len(s.inferB))
	add := func(name string, b *batcher) {
		if b == nil {
			return
		}
		qs[name] = QueueSnapshot{
			Depth:           b.queueDepth(),
			Occupancy:       b.occupancy(),
			InflightBatches: b.inflightBatches(),
		}
	}
	add("/v1/capture", s.captureB)
	add("/v1/compress", s.compressB)
	for name, b := range s.processB {
		add("/v1/process:"+name, b)
	}
	for name, b := range s.inferB {
		add("/v1/infer:"+name, b)
	}
	return qs
}

// Drain gracefully stops the serving layer: new submissions are rejected
// with 503 immediately, partially-collected micro-batches flush without
// waiting out their deadline, and Drain returns once every in-flight
// frame has its response delivered (or ctx expires — the drain itself
// keeps going in the background, and further Drain calls wait on it).
// The HTTP listener, if any, is not touched — use Shutdown for the full
// sequence.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		go func() {
			// Sessions first: active streams stop feeding, finish their
			// in-flight frames, and report ErrClosed to the client before
			// the batchers flush.
			if s.sessions != nil {
				s.sessions.Drain()
			}
			s.captureB.close()
			if s.compressB != nil {
				s.compressB.close()
			}
			for _, b := range s.processB {
				b.close()
			}
			for _, b := range s.inferB {
				b.close()
			}
			close(s.stopped)
		}()
	}
	select {
	case <-s.stopped:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv.Handler = s.mux
	return s.httpSrv.Serve(l)
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown is the full graceful stop for a Serve/ListenAndServe server:
// stop accepting connections, let in-flight handlers finish (they keep
// being fed by the still-running batchers), then drain the batchers.
func (s *Server) Shutdown(ctx context.Context) error {
	httpErr := s.httpSrv.Shutdown(ctx)
	if err := s.Drain(ctx); err != nil {
		return err
	}
	return httpErr
}

// statusClientClosed is nginx's convention for "client went away while we
// were working"; it is not a server failure and must not trip error-rate
// alerts.
const statusClientClosed = 499

// Shed tiers, ordered by severity. The tiered shedder replaces the old
// single full-queue gate: load sheds the cheapest-to-refuse traffic
// first (uncached bulk compute), then all non-session compute, and only
// at the last tier the session streams (docs/FAULTS.md#load-shedding).
const (
	shedNone = iota
	shedTierCacheMiss
	shedTierNonSession
	shedTierAll
)

// Shed sentinels, typed like the admission-control ones.
var (
	errShedCacheMiss = apiErr(http.StatusTooManyRequests, CodeShedOverload,
		"overloaded, shedding uncached compute")
	errShedNonSession = apiErr(http.StatusTooManyRequests, CodeShedOverload,
		"overloaded, shedding non-session requests")
	errShedAll = apiErr(http.StatusServiceUnavailable, CodeShedOverload,
		"overloaded, shedding all requests")
	errDegraded = apiErr(http.StatusServiceUnavailable, CodeDegradedUnavailable,
		"accelerator degraded, rejecting requests per policy")
)

// shedLevel maps the worst batched-endpoint queue occupancy onto a shed
// tier. Reading channel lengths is a few atomic loads — cheap enough per
// request. Health endpoints (/healthz, /readyz, /metrics) are never
// shed; they are exactly what an operator needs during an overload.
func (s *Server) shedLevel() int {
	load := s.captureB.load()
	if s.compressB != nil {
		load = max(load, s.compressB.load())
	}
	for _, b := range s.processB {
		load = max(load, b.load())
	}
	for _, b := range s.inferB {
		load = max(load, b.load())
	}
	cfg := s.cfg
	switch {
	case cfg.ShedAll > 0 && load >= cfg.ShedAll:
		return shedTierAll
	case cfg.ShedNonSession > 0 && load >= cfg.ShedNonSession:
		return shedTierNonSession
	case cfg.ShedCacheMiss > 0 && load >= cfg.ShedCacheMiss:
		return shedTierCacheMiss
	default:
		return shedNone
	}
}

// degraded reports whether any optical component registered on the core
// is serving degraded output (docs/FAULTS.md#degradation).
func (s *Server) degraded() bool { return s.backend.Core.Health().Degraded() }

// shedGate applies the tier-2 and tier-3 sheds (non-session traffic).
func (s *Server) shedGate() error {
	switch lvl := s.shedLevel(); {
	case lvl >= shedTierAll:
		s.m.shed("all")
		return errShedAll
	case lvl >= shedTierNonSession:
		s.m.shed("non_session")
		return errShedNonSession
	}
	return nil
}

// admitCompute applies the shed tiers and the degraded policy for
// non-session compute endpoints, before any cache probe (tier-2 sheds
// refuse even cache hits — at that point the queue backlog, not compute,
// is the bottleneck).
func (s *Server) admitCompute() error {
	if err := s.shedGate(); err != nil {
		return err
	}
	if s.cfg.RejectDegraded && s.degraded() {
		return errDegraded
	}
	return nil
}

// flagDegraded marks a response as served while its optical components
// were degraded — the header twin of the body's "degraded" field, so
// proxies and clients that never decode bodies still see the state.
func (s *Server) flagDegraded(w http.ResponseWriter) {
	w.Header().Set("X-Lightator-Degraded", "true")
	s.m.degradedResp()
}

// admitSession is the session-traffic gate: streams and opens survive
// until the last shed tier.
func (s *Server) admitSession() error {
	if s.shedLevel() >= shedTierAll {
		s.m.shed("all")
		return errShedAll
	}
	if s.cfg.RejectDegraded && s.degraded() {
		return errDegraded
	}
	return nil
}

// instrument wraps a handler with inflight/latency/error accounting and
// the per-request deadline (RequestTimeout): the handler's context is
// bounded, so a frame stuck behind a backlog returns 504 instead of
// holding its connection indefinitely.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request) (int, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		start := time.Now()
		status, err := h(w, r)
		if err != nil {
			writeError(w, status, err)
		}
		switch status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			s.m.reject(endpoint)
		case http.StatusGatewayTimeout:
			s.m.deadline()
			s.m.observe(endpoint, time.Since(start), true)
		default:
			s.m.observe(endpoint, time.Since(start), status >= 400 && status != statusClientClosed)
		}
	}
}

// writeJSON marshals body with status; the precomputed form is used on
// cache hits so hit and miss responses are the same bytes.
func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, status int, err error) {
	body, _ := json.Marshal(errorBody(status, err))
	writeJSON(w, status, body)
}

// decodeStatus maps a body-decode failure to its HTTP status: 413 when
// the MaxBytesReader cap tripped, 400 otherwise.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// effectiveSeed resolves a request's seed against the server default.
func (s *Server) effectiveSeed(req *int64) int64 {
	if req != nil {
		return *req
	}
	return s.backend.Seed
}

// submitFrame runs one scene through a batched endpoint: cache probe,
// micro-batcher submission, and the wait for this frame's result. The
// request context bounds the wait, so a departed client releases its
// handler even though the frame itself still completes in the batch.
// submitFrame owns the scene: it returns it to the pool once nothing can
// read it, and leaves it to the garbage collector when the wait ends
// before the frame's batch has run.
func (s *Server) submitFrame(r *http.Request, b *batcher, seed int64, scene *sensor.Image) (pipeline.Result, int, error) {
	if s.draining.Load() {
		putScene(scene)
		return pipeline.Result{}, http.StatusServiceUnavailable, errDraining
	}
	// Tier-1 shed: reaching here means the cache did not answer, so this
	// is exactly the uncached bulk compute the first tier refuses.
	// (Tier-2/3 loads were already rejected at admission.)
	if s.shedLevel() >= shedTierCacheMiss {
		s.m.shed("cache_miss")
		putScene(scene)
		return pipeline.Result{}, http.StatusTooManyRequests, errShedCacheMiss
	}
	it := batchItem{seed: seed, scene: scene, done: make(chan pipeline.Result, 1)}
	if err := b.submit(it); err != nil {
		putScene(scene)
		status := http.StatusTooManyRequests
		if errors.Is(err, errDraining) {
			status = http.StatusServiceUnavailable
		}
		return pipeline.Result{}, status, err
	}
	select {
	case res := <-it.done:
		// A result arrives only once its whole batch has run.
		putScene(scene)
		if res.Err != nil {
			// Frame-level errors are bad inputs (e.g. scene/sensor size
			// mismatch), surfaced per-frame by the pipeline.
			return pipeline.Result{}, http.StatusBadRequest, wrapErr(http.StatusBadRequest, CodeFrameFailed, "frame failed", res.Err)
		}
		return res, http.StatusOK, nil
	case <-r.Context().Done():
		if errors.Is(r.Context().Err(), context.DeadlineExceeded) {
			// The per-request deadline fired, not the client: the frame
			// still completes inside its batch, only the response is gone.
			return pipeline.Result{}, http.StatusGatewayTimeout,
				wrapErr(http.StatusGatewayTimeout, CodeDeadlineExceeded, "request deadline exceeded", r.Context().Err())
		}
		return pipeline.Result{}, statusClientClosed, wrapErr(statusClientClosed, CodeClientClosed, "client went away", r.Context().Err())
	}
}

// respond is the shared cache-or-compute tail of every compute endpoint:
// probe the cache when use is set (recording hit/miss), otherwise run
// compute, cache the marshaled body (when use) and write it. Keeping this
// in one place guarantees hit and miss responses are the same bytes on
// every endpoint. (Trace/cache headers differ between hit and miss by
// design; the byte-identity contract covers bodies.) start is the
// request's arrival time, stamped onto the cache-hit trace.
func (s *Server) respond(w http.ResponseWriter, endpoint string, start time.Time, use bool, key cacheKey, compute func() ([]byte, int, error)) (int, error) {
	if use {
		if body, ok := s.cache.get(key); ok {
			s.m.cache(endpoint, true)
			s.traceCacheHit(w, endpoint, start)
			writeJSON(w, http.StatusOK, body)
			return http.StatusOK, nil
		}
		s.m.cache(endpoint, false)
	}
	body, status, err := compute()
	if err != nil {
		return status, err
	}
	if use {
		s.cache.put(key, body)
		w.Header().Set("X-Lightator-Cache", "miss")
	}
	writeJSON(w, http.StatusOK, body)
	return http.StatusOK, nil
}

// handleModels lists the compressed-domain inference model registry. The
// list is fixed at construction, so no instrumentation or caching is
// needed.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	body, err := json.Marshal(ModelsResponse{Models: s.backend.Models})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleKernels lists the compressed-domain kernel registry. The list is
// fixed at construction, so no instrumentation or caching is needed.
func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	body, err := json.Marshal(KernelsResponse{Kernels: s.backend.Kernels})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMatVec programs the request's weight matrix and applies the
// activation vector with the frame-0 seed derivation, matching the
// facade's MatVecBatch on a single-vector batch.
// Draining is checked inside the compute closure, not up front, so cache
// hits keep serving mid-drain on every endpoint (same policy as
// capture/compress, whose drain check lives in submitFrame).
func (s *Server) handleMatVec(w http.ResponseWriter, r *http.Request) (int, error) {
	start := time.Now()
	var req MatVecRequest
	if _, err := readEnvelope(r, &req); err != nil {
		return decodeStatus(err), err
	}
	if len(req.Weights) == 0 || len(req.Activations) == 0 {
		return http.StatusBadRequest, fmt.Errorf("server: matvec needs weights and activations")
	}
	if err := s.admitCompute(); err != nil {
		return errStatus(err, http.StatusServiceUnavailable), err
	}
	// Seed omitted for the same reason as compress: cacheable means
	// noise-free, so the result is seed-independent. Chaos/degraded
	// states disable caching (see the chaos field).
	cacheable := s.cache != nil && s.backend.Deterministic && !s.chaos && !s.degraded()
	var key cacheKey
	if cacheable {
		parts := make([][]byte, 0, len(req.Weights)+1)
		for _, row := range req.Weights {
			parts = append(parts, floatBytes(row))
		}
		parts = append(parts, floatBytes(req.Activations))
		key = hashRequest("matvec", 0, parts...)
	}
	return s.respond(w, "/v1/matvec", start, cacheable, key, func() ([]byte, int, error) {
		if s.draining.Load() {
			return nil, http.StatusServiceUnavailable, errDraining
		}
		ys, err := s.backend.Core.MatVecBatch(req.Weights, [][]float64{req.Activations}, 1, s.effectiveSeed(req.Seed))
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		// One runtime-driven matrix apply: rows readouts, every
		// coefficient DAC-held for its cycle.
		rows, cols := int64(len(req.Weights)), int64(len(req.Activations))
		s.traceSpan(w, "/v1/matvec", "", "matvec", start, trace.OpCounts{
			MVMRows:        rows,
			DACSettles:     rows * cols,
			ADCConversions: rows,
			MRCoeffHolds:   rows * cols,
		})
		degraded := s.backend.Core.Health().Component("mvm").Degraded()
		if degraded {
			s.flagDegraded(w)
		}
		body, err := json.Marshal(MatVecResponse{Output: ys[0], Degraded: degraded})
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		return body, http.StatusOK, nil
	})
}

// handleSimulate runs the architecture simulator; reports are
// deterministic, so they always cache.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) (int, error) {
	start := time.Now()
	var req SimulateRequest
	if _, err := readEnvelope(r, &req); err != nil {
		return decodeStatus(err), err
	}
	if req.Model == "" {
		return http.StatusBadRequest, fmt.Errorf("server: simulate needs a model name")
	}
	// Simulation is purely digital, so the degraded policy does not apply
	// — only the shed tiers do.
	if err := s.shedGate(); err != nil {
		return errStatus(err, http.StatusServiceUnavailable), err
	}
	var key cacheKey
	if s.cache != nil {
		key = hashRequest("simulate", 0, []byte(req.Model))
	}
	return s.respond(w, "/v1/simulate", start, s.cache != nil, key, func() ([]byte, int, error) {
		if s.draining.Load() {
			return nil, http.StatusServiceUnavailable, errDraining
		}
		rep, err := s.backend.Simulate(req.Model)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		// Purely digital: the trace carries identity and wall time, no
		// analog op counts.
		s.traceSpan(w, "/v1/simulate", req.Model, "simulate", start, trace.OpCounts{})
		body, err := json.Marshal(rep)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		return body, http.StatusOK, nil
	})
}

// handleHealthz reports liveness: always 200 while the process runs, even
// mid-drain or degraded — a liveness probe that fails then would get the
// process killed while it can still serve (degraded output is flagged,
// not dead). Routing decisions belong to /readyz; the degraded detail
// here is for operators and the chaos suite.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	reg := s.backend.Core.Health()
	degraded := reg.Degraded()
	state := "ok"
	if degraded {
		state = "degraded"
	}
	if s.draining.Load() {
		state = "draining"
	}
	resp := HealthzResponse{
		Status:   state,
		Inflight: s.inflight.Load(),
		Degraded: degraded,
		Failing:  reg.Failing(),
	}
	body, _ := json.Marshal(resp)
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz reports readiness: 503 while draining so load balancers
// stop routing here, 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ready"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	body, _ := json.Marshal(map[string]any{"status": state})
	writeJSON(w, status, body)
}

// handleMetrics serves Prometheus text by default, the full JSON snapshot
// with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.Metrics()
	if r.URL.Query().Get("format") == "json" {
		body, err := json.Marshal(snap)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, body)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, renderProm(snap))
}

// dimBytes packs dimensions into the cache key so 2x8 and 8x2 planes with
// identical sample bytes hash differently.
func dimBytes(dims ...int) []byte {
	buf := make([]byte, 8*len(dims))
	for i, d := range dims {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(d))
	}
	return buf
}
