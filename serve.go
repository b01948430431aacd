package lightator

import (
	"fmt"
	"sort"
	"time"

	"lightator/internal/kernels"
	"lightator/internal/server"
)

// Server is the HTTP/JSON serving layer over an accelerator:
// /v1/capture, /v1/compress, /v1/process, /v1/matvec, /v1/simulate and
// /v1/kernels backed by a dynamic micro-batcher over the frame pipeline,
// with admission control, a content-hash response cache for
// deterministic fidelities, /metrics and /healthz, and graceful drain.
// See docs/SERVER.md and docs/API.md.
type Server = server.Server

// ServerMetrics is a snapshot of a running server's counters and pipeline
// stats.
type ServerMetrics = server.MetricsSnapshot

// Wire-format types: images and frames travel as JSON envelopes with
// base64-encoded raw samples, losslessly — a round-tripped value is
// bit-identical to the original.
type (
	// ImageWire is the transport form of an Image.
	ImageWire = server.ImageWire
	// FrameWire is the transport form of a Frame.
	FrameWire = server.FrameWire
	// CaptureRequest is the /v1/capture request body.
	CaptureRequest = server.CaptureRequest
	// CaptureResponse is the /v1/capture response body.
	CaptureResponse = server.CaptureResponse
	// CompressRequest is the /v1/compress request body.
	CompressRequest = server.CompressRequest
	// CompressResponse is the /v1/compress response body.
	CompressResponse = server.CompressResponse
	// ProcessRequest is the /v1/process request body (scene + kernel name).
	ProcessRequest = server.ProcessRequest
	// ProcessResponse is the /v1/process response body (the kernel's
	// output plane; samples may lie outside [0,1]).
	ProcessResponse = server.ProcessResponse
	// InferRequest is the /v1/infer request body (scene or pre-compressed
	// plane, + model name).
	InferRequest = server.InferRequest
	// InferResponse is the /v1/infer response body (logits + top-1 class).
	InferResponse = server.InferResponse
	// ModelInfo describes one registered compressed-domain inference model.
	ModelInfo = server.ModelInfo
	// ModelsResponse is the GET /v1/models response body.
	ModelsResponse = server.ModelsResponse
	// KernelInfo describes one registered compressed-domain kernel.
	KernelInfo = server.KernelInfo
	// KernelsResponse is the GET /v1/kernels response body.
	KernelsResponse = server.KernelsResponse
	// MatVecRequest is the /v1/matvec request body.
	MatVecRequest = server.MatVecRequest
	// MatVecResponse is the /v1/matvec response body.
	MatVecResponse = server.MatVecResponse
	// SimulateRequest is the /v1/simulate request ({"model": "lenet"}).
	SimulateRequest = server.SimulateRequest
	// ServerError is the body of every non-2xx server response
	// ({"code","message","detail"} plus the legacy "error" string).
	ServerError = server.ErrorResponse
	// Envelope is the request fields every frame endpoint shares (scene
	// + optional seed override).
	Envelope = server.Envelope
	// SessionRequest opens a streaming session (POST /v1/session).
	SessionRequest = server.SessionRequest
	// SessionResponse describes an opened session.
	SessionResponse = server.SessionResponse
	// SessionFrame is one NDJSON input line of a session frame stream.
	SessionFrame = server.SessionFrame
	// SessionResult is one NDJSON output line of a session frame stream.
	SessionResult = server.SessionResult
	// SessionSummary is the trailing NDJSON record of a clean stream.
	SessionSummary = server.SessionSummary
	// SessionStatsResponse reports a session's cumulative counters.
	SessionStatsResponse = server.SessionStatsResponse
	// DeltaWire is the wire form of the temporal-reuse configuration.
	DeltaWire = server.DeltaWire
)

// Wire-request constructors (the composite-literal forms changed when
// the shared envelope landed).
var (
	// NewCaptureRequest builds a /v1/capture body; seed may be nil.
	NewCaptureRequest = server.NewCaptureRequest
	// NewCompressRequest builds a /v1/compress body; seed may be nil.
	NewCompressRequest = server.NewCompressRequest
	// NewProcessRequest builds a /v1/process body; seed may be nil.
	NewProcessRequest = server.NewProcessRequest
)

// EncodeImage converts an image to its wire form.
func EncodeImage(im *Image) ImageWire { return server.EncodeImage(im) }

// DecodeImage converts a wire image back, validating dimensions against
// the payload.
func DecodeImage(w ImageWire) (*Image, error) { return server.DecodeImage(w) }

// EncodeFrame converts a frame readout to its wire form.
func EncodeFrame(f *Frame) FrameWire { return server.EncodeFrame(f) }

// DecodeFrame converts a wire frame back, validating dimensions.
func DecodeFrame(w FrameWire) (*Frame, error) { return server.DecodeFrame(w) }

// ServeOptions configure the serving layer built over an accelerator.
// Zero values take the documented defaults. Negative values are refused
// by NewServer, except where a field documents them as disabling: the
// cache and trace sizes, the timeouts and the shed tiers.
type ServeOptions struct {
	// Workers bounds each pipeline batch's concurrency; 0 means
	// runtime.NumCPU().
	Workers int
	// BatchSize flushes a micro-batch at this many coalesced requests
	// (default 8).
	BatchSize int
	// BatchDelay flushes a partial batch this long after its first
	// request (default 2ms). Raise it to trade tail latency for bigger
	// batches.
	BatchDelay time.Duration
	// Queue bounds the admission queue per batched endpoint; a full
	// queue answers 429 (default 64).
	Queue int
	// MaxBatches bounds concurrent in-flight pipeline batches per
	// endpoint (default 2).
	MaxBatches int
	// CacheEntries sizes the content-hash response LRU (default 256;
	// negative disables).
	CacheEntries int
	// AgreementFrames is the structured-scene sweep size used to measure
	// each served model's optical-vs-reference top-1 agreement at server
	// construction (reported by GET /v1/models; each value equals
	// ModelAgreement). One sweep serves every model: each frame is
	// captured and compressed once, then run through all of them. 0
	// means DefaultAgreementFrames; negative skips the measurement
	// (models list without a reference_agreement field).
	AgreementFrames int
	// TraceEntries sizes the GET /debug/traces ring of per-request
	// traces (default 256; negative disables retention — response
	// headers are still set). See docs/OBSERVABILITY.md.
	TraceEntries int
	// Debug mounts the opt-in debug mux: net/http/pprof under
	// /debug/pprof/ and the runtime snapshot at /debug/runtime. Off by
	// default — profiling endpoints do not belong on an unauthenticated
	// production surface.
	Debug bool
	// MaxSessions bounds concurrently open streaming sessions
	// (default 64).
	MaxSessions int
	// SessionIdleTimeout expires streaming sessions with no activity
	// (default 60s; negative disables expiry).
	SessionIdleTimeout time.Duration
	// SessionWindow is the default per-stream in-flight frame window —
	// the connection-level backpressure bound (default 8).
	SessionWindow int
	// RequestTimeout bounds each compute request's wall time; a request
	// that outlives it answers 504 deadline_exceeded, and its frame, if
	// still waiting in the micro-batcher, is dropped at flush without
	// being computed. 0 or negative disables.
	RequestTimeout time.Duration
	// ReadHeaderTimeout and IdleTimeout harden the HTTP listener against
	// slow-loris clients and idle keep-alive pile-ups (defaults 10s and
	// 120s; negative disables).
	ReadHeaderTimeout time.Duration
	IdleTimeout       time.Duration
	// RejectDegraded turns degraded service into refusal: while any
	// optical component is degraded, compute requests answer 503
	// degraded_unavailable instead of a degraded-flagged 200
	// (docs/FAULTS.md#the-wire-contract).
	RejectDegraded bool
	// ShedCacheMiss, ShedNonSession and ShedAll are the tiered load
	// shedder's queue-occupancy thresholds in (0,1]: uncached bulk
	// compute sheds first, then all non-session compute, then everything
	// including session streams (defaults 0.75 / 0.90 / 0.98; negative
	// disables a tier; NaN or a value above 1 is an error). See
	// docs/FAULTS.md#load-shedding.
	ShedCacheMiss  float64
	ShedNonSession float64
	ShedAll        float64
}

// NewServer builds the HTTP serving layer over this accelerator. The
// determinism contract: a response is byte-identical to the corresponding
// direct facade call under the request's effective seed —
//
//	/v1/capture  == Capture(scene)                                (all fidelities)
//	/v1/compress == AcquireCompressedBatch([]{scene}, 1)          (all fidelities)
//	             == AcquireCompressed(scene)                      (all fidelities)
//	/v1/process  == ProcessCompressed(scene, kernel)              (all fidelities)
//	/v1/infer    == Infer(scene, model)                           (all fidelities)
//	             == InferPlane(plane, model)    (plane requests)  (all fidelities)
//	/v1/matvec   == MatVecBatch(w, [][]float64{x}, 1)             (all fidelities)
//	             == MatVec(w, x)                                  (all fidelities)
//	/v1/simulate == Simulate(model)
//
// no matter how the micro-batcher coalesces concurrent requests. Requests
// default to the accelerator's Config.Seed; a request-level "seed" field
// overrides it per call.
func (a *Accelerator) NewServer(opts ServeOptions) (*Server, error) {
	// Options are checked before anything is built: the agreement sweep
	// alone takes seconds.
	if opts.Workers < 0 {
		return nil, fmt.Errorf("lightator: Workers = %d, want >= 0 (0 means runtime.NumCPU())", opts.Workers)
	}
	cfg := server.Config{
		BatchSize:          opts.BatchSize,
		BatchDelay:         opts.BatchDelay,
		Queue:              opts.Queue,
		MaxBatches:         opts.MaxBatches,
		CacheEntries:       opts.CacheEntries,
		TraceEntries:       opts.TraceEntries,
		Debug:              opts.Debug,
		MaxSessions:        opts.MaxSessions,
		SessionIdleTimeout: opts.SessionIdleTimeout,
		SessionWindow:      opts.SessionWindow,
		RequestTimeout:     opts.RequestTimeout,
		ReadHeaderTimeout:  opts.ReadHeaderTimeout,
		IdleTimeout:        opts.IdleTimeout,
		RejectDegraded:     opts.RejectDegraded,
		ShedCacheMiss:      opts.ShedCacheMiss,
		ShedNonSession:     opts.ShedNonSession,
		ShedAll:            opts.ShedAll,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// One pipeline per served series, keyed by series name; the serving
	// layer gives each its own micro-batcher.
	pipes := make(map[string]*Pipeline)
	add := func(name string, po PipelineOptions) (err error) {
		po.Workers = opts.Workers
		pipes[name], err = a.NewPipeline(po)
		return err
	}
	if err := add("capture", PipelineOptions{DisableCA: true}); err != nil {
		return nil, err
	}
	kernelInfos := []KernelInfo{}
	modelInfos := []ModelInfo{}
	if a.ca != nil {
		if err := add("compress", PipelineOptions{}); err != nil {
			return nil, err
		}
		// One capture+CA+kernel pipeline per registered kernel. Aliases
		// get none: the server resolves them to their kernel at the door.
		for _, name := range a.Kernels() {
			if err := add("process:"+name, PipelineOptions{Kernel: name}); err != nil {
				return nil, err
			}
		}
		// The registry listing names everything the wire accepts,
		// aliases included.
		names := append(a.Kernels(), kernels.Aliases()...)
		sort.Strings(names)
		for _, name := range names {
			desc, err := a.KernelDescription(name)
			if err != nil {
				return nil, err
			}
			kernelInfos = append(kernelInfos, KernelInfo{Name: name, Description: desc})
		}
		// Likewise one capture+CA+infer pipeline per registered model.
		// Models registered after NewServer are not served — register
		// trained networks first.
		models := a.Models()
		for _, name := range models {
			if err := add("infer:"+name, PipelineOptions{Infer: name}); err != nil {
				return nil, err
			}
			m, err := a.inf.Model(name)
			if err != nil {
				return nil, err
			}
			h, w := m.InputDims()
			info := ModelInfo{
				Name: name, Description: m.Description(),
				InputH: h, InputW: w, Classes: m.Classes(),
			}
			modelInfos = append(modelInfos, info)
		}
		// One shared agreement sweep measures every served model.
		if opts.AgreementFrames >= 0 && len(models) > 0 {
			agree, err := a.agreements(models, opts.AgreementFrames)
			if err != nil {
				return nil, err
			}
			for k := range modelInfos {
				modelInfos[k].ReferenceAgreement = &agree[k]
			}
		}
	}
	return server.New(server.Backend{
		Pipelines:     pipes,
		Kernels:       kernelInfos,
		Models:        modelInfos,
		Core:          a.core,
		Seed:          a.cfg.Seed,
		Deterministic: a.cfg.Fidelity != PhysicalNoisy,
		Simulate:      a.Simulate,
		// The observability layer prices every request with this
		// accelerator's energy model at its configured weight precision.
		Energy: a.params,
		WBits:  a.cfg.Precision.WBits,
	}, cfg)
}
