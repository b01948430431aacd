// Wire formats of the serving layer. Images and frames travel as JSON
// envelopes carrying base64-encoded raw sample bytes: float64 samples are
// little-endian IEEE 754, frame codes one byte per pixel. The encoding is
// lossless, so a value that round-trips through the wire is bit-identical
// to the original — the property the serving layer's determinism contract
// (docs/SERVER.md) is stated in terms of.
package server

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"

	"lightator/internal/sensor"
	"lightator/internal/session"
)

// ImageWire is the transport form of a sensor.Image.
type ImageWire struct {
	H int `json:"h"`
	W int `json:"w"`
	C int `json:"c"`
	// Pix is base64 (StdEncoding) of H*W*C little-endian float64 samples.
	Pix string `json:"pix_b64"`
}

// FrameWire is the transport form of a sensor.Frame (4-bit codes, one
// byte per pixel).
type FrameWire struct {
	Rows  int    `json:"rows"`
	Cols  int    `json:"cols"`
	Codes string `json:"codes_b64"`
}

// floatBytes returns the little-endian byte representation of xs.
func floatBytes(xs []float64) []byte {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf
}

// EncodeImage converts an image to its wire form.
func EncodeImage(im *sensor.Image) ImageWire {
	return ImageWire{
		H: im.H, W: im.W, C: im.C,
		Pix: base64.StdEncoding.EncodeToString(floatBytes(im.Pix)),
	}
}

// DecodeImage validates and converts a wire image back to a sensor.Image.
func DecodeImage(w ImageWire) (*sensor.Image, error) {
	raw, err := validateImageWire(w)
	if err != nil {
		return nil, err
	}
	return imageFromRaw(w, raw), nil
}

// maxWireDim bounds each wire dimension. Far beyond any plausible sensor,
// but small enough that dimension products cannot overflow int — without
// the bound, crafted dims like 2^31 x 2^30 wrap the 8*n length check and
// panic the allocation instead of returning 400.
const maxWireDim = 1 << 16

// validateImageWire checks dims and decodes the base64 payload, returning
// the raw little-endian sample bytes (identical to floatBytes of the
// decoded image). The handlers hash these directly for cache keys, so a
// cache hit never pays the float64 materialisation — imageFromRaw runs
// only on a miss.
func validateImageWire(w ImageWire) ([]byte, error) {
	if w.H <= 0 || w.W <= 0 || w.H > maxWireDim || w.W > maxWireDim || (w.C != 1 && w.C != 3) {
		return nil, fmt.Errorf("server: invalid image dims %dx%dx%d", w.H, w.W, w.C)
	}
	raw, err := base64.StdEncoding.DecodeString(w.Pix)
	if err != nil {
		return nil, fmt.Errorf("server: image pixel data: %w", err)
	}
	n := w.H * w.W * w.C
	if len(raw) != 8*n {
		return nil, fmt.Errorf("server: image pixel data is %d bytes, want %d (%d float64 samples)", len(raw), 8*n, n)
	}
	return raw, nil
}

// imageFromRaw materialises the image from validated raw sample bytes.
func imageFromRaw(w ImageWire, raw []byte) *sensor.Image {
	im := sensor.NewImage(w.H, w.W, w.C)
	for i := range im.Pix {
		im.Pix[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return im
}

// EncodeFrame converts a frame readout to its wire form.
func EncodeFrame(f *sensor.Frame) FrameWire {
	return FrameWire{
		Rows: f.Rows, Cols: f.Cols,
		Codes: base64.StdEncoding.EncodeToString(f.Codes),
	}
}

// DecodeFrame validates and converts a wire frame back to a sensor.Frame.
func DecodeFrame(w FrameWire) (*sensor.Frame, error) {
	if w.Rows <= 0 || w.Cols <= 0 || w.Rows > maxWireDim || w.Cols > maxWireDim {
		return nil, fmt.Errorf("server: invalid frame dims %dx%d", w.Rows, w.Cols)
	}
	raw, err := base64.StdEncoding.DecodeString(w.Codes)
	if err != nil {
		return nil, fmt.Errorf("server: frame code data: %w", err)
	}
	if len(raw) != w.Rows*w.Cols {
		return nil, fmt.Errorf("server: frame code data is %d bytes, want %d", len(raw), w.Rows*w.Cols)
	}
	return &sensor.Frame{Rows: w.Rows, Cols: w.Cols, Codes: raw}, nil
}

// Envelope is the shared request envelope of the v1 compute endpoints:
// the scene and the optional per-request seed every frame endpoint
// decodes through one path. It is embedded (flattened by encoding/json),
// so the wire field names are unchanged from the pre-envelope API —
// back-compat pinned by the golden fixtures under testdata/wire.
type Envelope struct {
	// Scene is the RGB input frame.
	Scene ImageWire `json:"scene"`
	// Seed overrides the server's base noise seed for this request when
	// non-nil.
	Seed *int64 `json:"seed,omitempty"`
}

// env exposes the envelope to the generic frame-endpoint constructor
// (endpoint.go) via method promotion.
func (e *Envelope) env() *Envelope { return e }

// CaptureRequest asks for one ADC-less sensor readout of a scene.
// Capture itself is noise-free; the envelope seed exists so every
// endpoint shares one request shape.
type CaptureRequest struct {
	Envelope
}

// NewCaptureRequest builds the request (the composite-literal form
// changed when the shared envelope landed; seed may be nil).
func NewCaptureRequest(scene ImageWire, seed *int64) CaptureRequest {
	return CaptureRequest{Envelope{Scene: scene, Seed: seed}}
}

// CaptureResponse carries the 4-bit frame readout.
type CaptureResponse struct {
	Frame FrameWire `json:"frame"`
	// Degraded flags a response served while the accelerator was running
	// degraded (retired rows on the digital fallback, or unrecovered ABFT
	// detections) — mirrored by the X-Lightator-Degraded header. Absent
	// on healthy responses, so pre-fault golden bodies are unchanged
	// (docs/FAULTS.md#the-wire-contract).
	Degraded bool `json:"degraded,omitempty"`
}

// CompressRequest asks for capture + compressive acquisition of a scene.
// The response is bit-identical to the facade's AcquireCompressedBatch on
// a single-scene batch under the effective seed, no matter how the server
// micro-batches the request.
type CompressRequest struct {
	Envelope
}

// NewCompressRequest builds the request; seed may be nil.
func NewCompressRequest(scene ImageWire, seed *int64) CompressRequest {
	return CompressRequest{Envelope{Scene: scene, Seed: seed}}
}

// CompressResponse carries the compressed activation plane.
type CompressResponse struct {
	Image ImageWire `json:"image"`
	// Degraded flags degraded service (see CaptureResponse.Degraded).
	Degraded bool `json:"degraded,omitempty"`
}

// MatVecRequest asks for one optical matrix-vector product. Weights are
// row-major with entries in [-1,1]; activations in [0,1].
type MatVecRequest struct {
	Weights     [][]float64 `json:"weights"`
	Activations []float64   `json:"activations"`
	Seed        *int64      `json:"seed,omitempty"`
}

// MatVecResponse carries the analog MAC results.
type MatVecResponse struct {
	Output []float64 `json:"output"`
	// Degraded flags degraded service (see CaptureResponse.Degraded).
	Degraded bool `json:"degraded,omitempty"`
}

// ProcessRequest asks for capture + compressive acquisition + one
// registered compressed-domain kernel (see /v1/kernels for the registry).
// The response is bit-identical to the facade's ProcessCompressed under
// the effective seed, no matter how the server micro-batches the request.
type ProcessRequest struct {
	Envelope
	Kernel string `json:"kernel"`
}

// NewProcessRequest builds the request; seed may be nil.
func NewProcessRequest(scene ImageWire, kernel string, seed *int64) ProcessRequest {
	return ProcessRequest{Envelope: Envelope{Scene: scene, Seed: seed}, Kernel: kernel}
}

// ProcessResponse carries the kernel's output plane. Samples may lie
// outside [0,1] — e.g. signed edge responses; the codec is range-agnostic.
type ProcessResponse struct {
	Plane ImageWire `json:"plane"`
	// Degraded flags degraded service (see CaptureResponse.Degraded).
	Degraded bool `json:"degraded,omitempty"`
}

// InferRequest asks for compressed-domain CNN inference by a registered
// model (see /v1/models for the registry). Exactly one of Scene and
// Plane must be set: a Scene runs the full capture + CA + inference
// pipeline (micro-batched); a Plane is a pre-compressed CA measurement
// plane fed straight to the model (single channel, the dims /v1/models
// reports). Scene responses are bit-identical to the facade's Infer
// under the effective seed, no matter how the server micro-batches the
// request; Plane responses match InferPlane.
type InferRequest struct {
	// The embedded envelope supplies the seed; its Scene field is
	// shadowed by the optional pointer below (encoding/json resolves
	// the name conflict in favour of the shallower field, keeping the
	// wire shape identical to the pre-envelope API).
	Envelope
	Scene *ImageWire `json:"scene,omitempty"`
	Plane *ImageWire `json:"plane,omitempty"`
	Model string     `json:"model"`
}

// InferResponse carries the logits and the top-1 class.
type InferResponse struct {
	Model  string    `json:"model"`
	Logits []float64 `json:"logits"`
	Class  int       `json:"class"`
	// Degraded flags degraded service (see CaptureResponse.Degraded).
	Degraded bool `json:"degraded,omitempty"`
}

// ModelInfo describes one registered compressed-domain inference model.
type ModelInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// InputH and InputW are the CA measurement-plane dims every request
	// plane must match (scenes are compressed down to them).
	InputH  int `json:"input_h"`
	InputW  int `json:"input_w"`
	Classes int `json:"classes"`
	// ReferenceAgreement is the measured optical-vs-digital-reference
	// top-1 agreement over a structured-scene sweep at server
	// construction (the fidelity contract the end-to-end bench gates;
	// 1.0 = every sweep frame classified identically). Omitted when the
	// server was built with agreement measurement disabled.
	ReferenceAgreement *float64 `json:"reference_agreement,omitempty"`
}

// ModelsResponse lists the model registry (GET /v1/models), sorted by
// name.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// KernelInfo describes one registered compressed-domain kernel.
type KernelInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// KernelsResponse lists the kernel registry (GET /v1/kernels), sorted by
// name.
type KernelsResponse struct {
	Kernels []KernelInfo `json:"kernels"`
}

// SimulateRequest names a built-in descriptor model for the architecture
// simulator.
type SimulateRequest struct {
	Model string `json:"model"`
}

// ErrorResponse is the body of every non-2xx response and the shape of
// in-stream session error records: a stable machine-readable code (see
// the table in docs/API.md), a human message, and optional detail. The
// legacy "error" string (the pre-v1 body) mirrors message+detail so old
// clients keep decoding.
type ErrorResponse struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
	Error   string `json:"error"`
}

// SessionRequest opens a streaming session (POST /v1/session): a
// persistent seed chain plus per-frame compute configuration. Frame i
// of the session is processed exactly as a per-frame request with seed
// DeriveSeed(seed, i) — see docs/API.md#sessions.
type SessionRequest struct {
	// Kind selects the per-frame computation: "compress", "process" or
	// "infer".
	Kind string `json:"kind"`
	// Kernel names the compressed-domain kernel (kind "process").
	Kernel string `json:"kernel,omitempty"`
	// Model names the inference model (kind "infer").
	Model string `json:"model,omitempty"`
	// Seed overrides the server's base seed as the session seed.
	Seed *int64 `json:"seed,omitempty"`
	// Delta tunes temporal reuse; nil takes the defaults.
	Delta *DeltaWire `json:"delta,omitempty"`
	// Window overrides the in-flight frame window (backpressure bound).
	Window int `json:"window,omitempty"`
	// IdleTimeoutMS overrides the server's idle expiry for this session.
	IdleTimeoutMS int64 `json:"idle_timeout_ms,omitempty"`
}

// DeltaWire is the wire form of the temporal-reuse configuration.
type DeltaWire struct {
	// Disable turns reuse off (it is also off automatically in noisy
	// fidelity, where stale results would not be bit-identical).
	Disable bool `json:"disable,omitempty"`
	// Block is the diff-grid block side over the compressed plane
	// (default 8).
	Block int `json:"block,omitempty"`
	// Threshold is the per-sample absolute change that marks a block
	// dirty. 0 (the default) reuses only bit-identical blocks and keeps
	// streamed bytes exactly equal to per-frame recompute; larger values
	// are lossy.
	Threshold float64 `json:"threshold,omitempty"`
}

// SessionResponse describes an opened session with every knob resolved.
type SessionResponse struct {
	ID            string    `json:"id"`
	Kind          string    `json:"kind"`
	Kernel        string    `json:"kernel,omitempty"`
	Model         string    `json:"model,omitempty"`
	Seed          int64     `json:"seed"`
	Window        int       `json:"window"`
	IdleTimeoutMS int64     `json:"idle_timeout_ms"`
	Delta         DeltaWire `json:"delta"`
	// DeltaActive reports whether temporal reuse is actually on (false
	// in noisy fidelity or for compress sessions even when not disabled).
	DeltaActive bool `json:"delta_active"`
}

// SessionFrame is one input line of the NDJSON frame stream
// (POST /v1/session/{id}/frames).
type SessionFrame struct {
	Scene ImageWire `json:"scene"`
}

// SessionResult is one output line of the NDJSON frame stream, emitted
// in frame order. Exactly one payload field is set per the session
// kind; its bytes are identical to the corresponding per-frame endpoint
// response under seed DeriveSeed(sessionSeed, index). A stream-fatal
// condition (drain, session closed, malformed input line) is reported
// as a final record carrying only Error, then the stream ends.
type SessionResult struct {
	Index int `json:"index"`
	// Image is the CA measurement plane (kind "compress").
	Image *ImageWire `json:"image,omitempty"`
	// Plane is the kernel output (kind "process").
	Plane *ImageWire `json:"plane,omitempty"`
	// Logits and Class are the inference output (kind "infer").
	Logits []float64 `json:"logits,omitempty"`
	Class  *int      `json:"class,omitempty"`
	// BlocksTotal and BlocksReused are the frame's compute-unit count
	// and how many were carried forward from the previous frame.
	BlocksTotal  int `json:"blocks_total"`
	BlocksReused int `json:"blocks_reused"`
	// Error is set on per-frame failures (the frame still consumed its
	// seed-chain index) and on stream-fatal records (index -1).
	Error *ErrorResponse `json:"error,omitempty"`
	// Degraded flags a frame served while the accelerator was degraded
	// (see CaptureResponse.Degraded).
	Degraded bool `json:"degraded,omitempty"`
}

// SessionSummary is the trailing NDJSON record of a cleanly-finished
// frame stream.
type SessionSummary struct {
	Done  bool          `json:"done"`
	Stats session.Stats `json:"stats"`
}

// HealthzResponse is the liveness body (GET /healthz): always served
// with 200 — degradation is reported, not fatal (docs/FAULTS.md).
type HealthzResponse struct {
	// Status is "ok", "degraded" or "draining" (draining wins: it is the
	// terminal state an operator acts on).
	Status   string `json:"status"`
	Inflight int64  `json:"inflight"`
	// Degraded reports whether any optical component is serving degraded
	// output; Failing lists those components' labels, sorted.
	Degraded bool     `json:"degraded"`
	Failing  []string `json:"failing,omitempty"`
}

// SessionStatsResponse reports a session's cumulative counters
// (GET /v1/session/{id}, and the DELETE response).
type SessionStatsResponse struct {
	ID    string        `json:"id"`
	Kind  string        `json:"kind"`
	Stats session.Stats `json:"stats"`
}
