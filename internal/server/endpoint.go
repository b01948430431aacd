// The generic frame-endpoint constructor: one typed path collapsing the
// decode → gate → validate → cache → micro-batch → trace → encode
// boilerplate the compute endpoints used to copy per handler. Each
// endpoint supplies only a resolve step that validates its own fields
// and names its batcher, cache identity and encoder; everything shared
// — strict envelope decoding, image validation, the content-hash cache
// probe, seed resolution, batching and error projection — runs here, so
// new endpoints (the session layer's open path reuses the same helpers)
// don't grow another copy.
package server

import (
	"encoding/json"
	"hash"
	"net/http"
	"time"

	"lightator/internal/infer"
	"lightator/internal/pipeline"
	"lightator/internal/sensor"
)

// frameOp is one request's resolved execution plan.
type frameOp struct {
	// target labels traces with the kernel/model name ("" when none).
	target string
	// tag namespaces the cache key; parts are extra identity bytes
	// (kernel/model names) hashed before the image content.
	tag   string
	parts [][]byte
	// cacheAll caches regardless of fidelity (noise-free endpoints);
	// otherwise caching requires a deterministic backend.
	cacheAll bool
	// input is the image to validate, hash and decode.
	input *ImageWire
	// b, when set, runs the frame through that micro-batcher. Otherwise
	// direct computes the payload inline (the plane-infer path).
	b      *batcher
	direct func(w http.ResponseWriter, img *sensor.Image, seed int64, start time.Time) (any, error)
	// encode turns a batched pipeline result into the response payload.
	encode func(res pipeline.Result) (any, error)
}

// envelopeRequest constrains frame requests to pointer types exposing
// the shared envelope (via the embedded Envelope's promoted method).
type envelopeRequest[Req any] interface {
	*Req
	env() *Envelope
}

// handleFrame builds the handler for one frame endpoint from its
// resolve step.
func handleFrame[Req any, P envelopeRequest[Req]](s *Server, endpoint string, resolve func(req P) (frameOp, error)) func(http.ResponseWriter, *http.Request) (int, error) {
	return func(w http.ResponseWriter, r *http.Request) (int, error) {
		start := time.Now()
		var req Req
		p := P(&req)
		in, err := readEnvelope(r, &req)
		if err != nil {
			return decodeStatus(err), err
		}
		defer in.release()
		op, err := resolve(p)
		if err != nil {
			return errStatus(err, http.StatusBadRequest), err
		}
		// Tier-2/3 sheds and the degraded policy reject before the cache
		// probe (tier-1, which spares cache hits, lives in submitFrame).
		if err := s.admitCompute(); err != nil {
			return errStatus(err, http.StatusServiceUnavailable), err
		}
		// Cacheable in noisy fidelity only when the endpoint is
		// noise-free (cacheAll); keys omit the seed because noise-free
		// output is seed-independent. An active fault plan disables
		// caching outright — injected faults are seed- and
		// ladder-state-dependent, which the key does not capture.
		cacheable := s.cache != nil && !s.chaos && (op.cacheAll || s.backend.Deterministic)
		img, key, err := op.scene(&in, cacheable)
		if err != nil {
			return http.StatusBadRequest, wrapErr(http.StatusBadRequest, CodeInvalidImage, "invalid image", err)
		}
		computed := false
		status, err := s.respond(w, endpoint, start, cacheable, key, func() ([]byte, int, error) {
			computed = true
			seed := s.effectiveSeed(p.env().Seed)
			var payload any
			if op.b != nil {
				// submitFrame owns the scene from here on.
				res, status, err := s.submitFrame(r, op.b, seed, img)
				if err != nil {
					return nil, status, err
				}
				s.traceFrame(w, endpoint, op.target, start, res)
				if res.Degraded {
					s.flagDegraded(w)
				}
				if payload, err = op.encode(res); err != nil {
					return nil, http.StatusInternalServerError, err
				}
			} else {
				payload, err = op.direct(w, img, seed, start)
				putScene(img)
				if err != nil {
					return nil, errStatus(err, http.StatusBadRequest), err
				}
			}
			body, err := json.Marshal(payload)
			if err != nil {
				return nil, http.StatusInternalServerError, err
			}
			return body, http.StatusOK, nil
		})
		if !computed {
			// A cache hit answered without reading the scene.
			putScene(img)
		}
		return status, err
	}
}

// scene decodes op's input image from in and, when keyed, its cache key:
// hashRequest(op.tag, 0, op.parts..., sample bytes, dims), with the
// sample bytes streamed into the hash as the scene decodes.
func (op *frameOp) scene(in *ingest, keyed bool) (*sensor.Image, cacheKey, error) {
	var h hash.Hash
	if keyed {
		h = keyHash(op.tag, 0)
		for _, p := range op.parts {
			writePart(h, p)
		}
	}
	img, err := in.scene(op.input, h)
	if err != nil || !keyed {
		return img, cacheKey{}, err
	}
	writePart(h, dimBytes(op.input.H, op.input.W, op.input.C))
	return img, sumKey(h), nil
}

// captureOp resolves /v1/capture: noise-free, so responses cache in
// every fidelity.
func (s *Server) captureOp(req *CaptureRequest) (frameOp, error) {
	return frameOp{
		tag: "capture", cacheAll: true, input: &req.Scene, b: s.captureB,
		encode: func(res pipeline.Result) (any, error) {
			return CaptureResponse{Frame: EncodeFrame(res.Frame), Degraded: res.Degraded}, nil
		},
	}, nil
}

// compressOp resolves /v1/compress.
func (s *Server) compressOp(req *CompressRequest) (frameOp, error) {
	if s.compressB == nil {
		return frameOp{}, apiErr(http.StatusNotImplemented, CodeNotImplemented, "compressive acquisition disabled (CAPool = 0)")
	}
	return frameOp{
		tag: "compress", input: &req.Scene, b: s.compressB,
		encode: func(res pipeline.Result) (any, error) {
			return CompressResponse{Image: EncodeImage(res.Compressed), Degraded: res.Degraded}, nil
		},
	}, nil
}

// processOp resolves /v1/process: the kernel picks the micro-batcher
// and joins the cache identity.
func (s *Server) processOp(req *ProcessRequest) (frameOp, error) {
	if len(s.processB) == 0 {
		return frameOp{}, apiErr(http.StatusNotImplemented, CodeNotImplemented, "compressed-domain kernels disabled (CAPool = 0)")
	}
	b, ok := s.processB[req.Kernel]
	if !ok {
		return frameOp{}, apiErr(http.StatusBadRequest, CodeUnknownKernel, "unknown kernel %q (GET /v1/kernels lists the registry)", req.Kernel)
	}
	return frameOp{
		target: req.Kernel, tag: "process", parts: [][]byte{[]byte(req.Kernel)},
		input: &req.Envelope.Scene, b: b,
		encode: func(res pipeline.Result) (any, error) {
			return ProcessResponse{Plane: EncodeImage(res.Processed), Degraded: res.Degraded}, nil
		},
	}, nil
}

// inferOp resolves /v1/infer: scene requests micro-batch through the
// model's pipeline; plane requests compute inline (no pipeline trip to
// coalesce).
func (s *Server) inferOp(req *InferRequest) (frameOp, error) {
	if len(s.inferB) == 0 {
		return frameOp{}, apiErr(http.StatusNotImplemented, CodeNotImplemented, "compressed-domain inference disabled (CAPool = 0)")
	}
	b, ok := s.inferB[req.Model]
	if !ok {
		return frameOp{}, apiErr(http.StatusBadRequest, CodeUnknownModel, "unknown model %q (GET /v1/models lists the registry)", req.Model)
	}
	if (req.Scene == nil) == (req.Plane == nil) {
		return frameOp{}, apiErr(http.StatusBadRequest, CodeBadRequest, "infer needs exactly one of scene (full pipeline) or plane (pre-compressed)")
	}
	model := req.Model
	if req.Scene != nil {
		return frameOp{
			target: model, tag: "infer-scene", parts: [][]byte{[]byte(model)},
			input: req.Scene, b: b,
			encode: func(res pipeline.Result) (any, error) {
				return InferResponse{Model: model, Logits: res.Logits, Class: infer.Argmax(res.Logits), Degraded: res.Degraded}, nil
			},
		}, nil
	}
	return frameOp{
		target: model, tag: "infer-plane", parts: [][]byte{[]byte(model)},
		input: req.Plane,
		direct: func(w http.ResponseWriter, plane *sensor.Image, seed int64, start time.Time) (any, error) {
			if s.draining.Load() {
				return nil, errDraining
			}
			logits, err := s.backend.InferPlane(model, plane, seed)
			if err != nil {
				return nil, wrapErr(http.StatusBadRequest, CodeBadRequest, "infer failed", err)
			}
			// Plane requests skip capture+CA; the model's op counts are
			// the infer stage of its pipeline's static profile.
			s.traceSpan(w, "/v1/infer", model, "infer", start, s.backend.Infer[model].FrameOps().Infer)
			resp := InferResponse{Model: model, Logits: logits, Class: infer.Argmax(logits)}
			if d, ok := s.backend.ModelObjects[model].(interface{ Degraded() bool }); ok && d.Degraded() {
				s.flagDegraded(w)
				resp.Degraded = true
			}
			return resp, nil
		},
	}, nil
}
