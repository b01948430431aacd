package main

import (
	"encoding/json"
	"fmt"
	"time"

	"lightator"
	"lightator/internal/infer"
	"lightator/internal/kernels"
	"lightator/internal/oc"
	"lightator/internal/pipeline"
	"lightator/internal/sensor"
)

// The kernels and models the workloads serve; every traced input is
// replayed through each of them.
var (
	servedKernels = []string{"edge", "reconstruct", "reconstruct-direct", "reconstruct-cg"}
	servedModels  = []string{"tiny-cnn", "tiny-mlp"}
)

// stack is the bench's own copy of the layers the server composes,
// programmed onto one optical core exactly as the facade does for
// lightator.DefaultConfig at the given sensor size.
type stack struct {
	arr    *sensor.Array
	ca     *oc.Acquisitor
	kern   map[string]kernels.Kernel
	models map[string]*infer.Model
}

func newStack(rows, cols int, noABFT bool) (*stack, error) {
	cfg := lightator.DefaultConfig()
	arr, err := sensor.NewArray(rows, cols)
	if err != nil {
		return nil, err
	}
	core, err := oc.NewCore(cfg.Precision.WBits, cfg.Precision.ABits, cfg.Fidelity)
	if err != nil {
		return nil, err
	}
	core.NoABFT = noABFT
	ca, err := oc.NewAcquisitor(core, cfg.CAPool)
	if err != nil {
		return nil, err
	}
	eng, err := kernels.NewEngine(core, cfg.CAPool)
	if err != nil {
		return nil, err
	}
	inf, err := infer.NewEngine(core, cfg.CAPool, rows/cfg.CAPool, cols/cfg.CAPool, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &stack{arr: arr, ca: ca, kern: map[string]kernels.Kernel{}, models: map[string]*infer.Model{}}
	for _, name := range servedKernels {
		if s.kern[name], err = eng.Kernel(name); err != nil {
			return nil, err
		}
	}
	for _, name := range servedModels {
		if s.models[name], err = inf.Model(name); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// span is one timed call in a trace: the spans of one input share a
// trace id, and parent names the span that caused this one (0 = root).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run writes them out, and
// groups span durations by name for the per-layer metrics.
type recorder struct {
	t0    time.Time
	spans []span
	by    map[string][]time.Duration
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), by: map[string][]time.Duration{}}
}

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(trace string, parent int, name string) int {
	r.spans = append(r.spans, span{Trace: trace, ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(r.t0).Nanoseconds()})
	return len(r.spans)
}

func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = time.Since(r.t0).Nanoseconds()
	d := time.Duration(s.End - s.Start)
	r.by[s.Name] = append(r.by[s.Name], d)
	return d
}

// add records a span timed elsewhere and returns its id.
func (r *recorder) add(trace string, parent int, name string, start, end time.Time) int {
	r.spans = append(r.spans, span{Trace: trace, ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.by[name] = append(r.by[name], end.Sub(start))
	return len(r.spans)
}

// time runs fn as a span and returns its duration.
func (r *recorder) time(trace string, parent int, name string, fn func() error) (time.Duration, error) {
	id := r.begin(trace, parent, name)
	err := fn()
	return r.end(id), err
}

// input is one fixed input of a workload's traced run, as sent.
type input struct {
	kind   string // "process", "hot", "infer-scene", "infer-plane" or "session"
	target string // kernel or model
	seed   int64  // the request's effective seed
	body   []byte // the request body (or NDJSON line) the server received
	scene  *lightator.Image
	plane  *lightator.Image // the served plane of an infer-plane request
	// frame carries a session result line's index and reuse counters,
	// which the replay copies rather than models.
	frame lightator.SessionResult
}

// pathLayers lists the layers a request of this kind passes through on
// the server. A cache hit only decodes; a session frame whose CA plane
// repeats the previous frame's reuses every kernel window.
func (in input) pathLayers(reused bool) []string {
	switch in.kind {
	case "hot":
		return []string{"server.decode"}
	case "infer-plane":
		return []string{"server.decode", "infer." + in.target, "server.encode"}
	case "infer-scene":
		return []string{"server.decode", "sensor.capture", "oc.ca", "infer." + in.target, "server.encode"}
	case "session":
		if reused {
			return []string{"server.decode", "sensor.capture", "oc.ca", "server.encode"}
		}
	}
	return []string{"server.decode", "sensor.capture", "oc.ca", "kernels." + in.target, "server.encode"}
}

// replayer runs traced inputs through the layers' public functions on
// the bench's own stack and, for the ABFT attribution, on a twin stack
// whose core skips checksum verification.
type replayer struct {
	on, off *stack
	rec     *recorder
	// cgPasses and cgSamples total the optical passes the iterative
	// solvers ran on the ABFT-on stack, and over how many samples.
	cgPasses, cgSamples uint64
	// offFirst alternates per input which stack runs a twinned call
	// first, so warm caches favour neither side of the ABFT comparison.
	offFirst bool
}

// replayed is the replay's result for one input.
type replayed struct {
	body   []byte           // the bytes the server must have sent
	result any              // the computed output the body encodes
	plane  *lightator.Image // the input's CA plane (or its served plane)
	onPath time.Duration    // summed time of the layers on the request path
}

// replay runs input in of trace id through its layer chain, timing each
// call as a span. full additionally times every layer off the input's
// request path and every optical layer on the ABFT-off twin; otherwise
// only the calls that produce the response run. prev is the previous
// session frame's CA plane (nil for the first frame and for HTTP
// requests).
func (rp *replayer) replay(id string, in input, prev *lightator.Image, full bool) (replayed, error) {
	r := rp.rec
	root := r.begin(id, 0, "replay")
	defer r.end(root)
	took := map[string]time.Duration{}
	rp.offFirst = !rp.offFirst
	// call times fn as layer name on the request's behalf; twin, when
	// full, repeats the call on the ABFT-off stack.
	call := func(name string, fn func(s *stack) error, twin bool) error {
		twin = twin && full
		off := func() error {
			if _, err := r.time(id, root, name+".noabft", func() error { return fn(rp.off) }); err != nil {
				return fmt.Errorf("bench: %s replay of %s without ABFT: %w", name, id, err)
			}
			return nil
		}
		if twin && rp.offFirst {
			if err := off(); err != nil {
				return err
			}
		}
		d, err := r.time(id, root, name, func() error { return fn(rp.on) })
		if err != nil {
			return fmt.Errorf("bench: %s replay of %s: %w", name, id, err)
		}
		took[name] = d
		if twin && !rp.offFirst {
			return off()
		}
		return nil
	}

	if err := call("server.decode", func(*stack) error { return decode(in) }, false); err != nil {
		return replayed{}, err
	}
	fs := pipeline.FrameSeed(in.seed)
	plane := in.plane
	if plane == nil || full {
		var frame *sensor.Frame
		err := call("sensor.capture", func(s *stack) (err error) {
			frame, err = s.arr.Capture(in.scene)
			return err
		}, false)
		if err != nil {
			return replayed{}, err
		}
		var ca *sensor.Image
		err = call("oc.ca", func(s *stack) error {
			out, err := s.ca.CompressSeeded(frame, pipeline.StageSeed(fs, pipeline.StageCompress))
			if s == rp.on {
				ca = out
			}
			return err
		}, true)
		if err != nil {
			return replayed{}, err
		}
		if plane == nil {
			plane = ca
		}
	}

	var result any
	for _, name := range servedKernels {
		served := name == in.target && (in.kind == "process" || in.kind == "hot" || in.kind == "session")
		if !served && !full {
			continue
		}
		cg, _ := rp.on.kern[name].(kernels.SolverStats)
		var before, samplesBefore uint64
		if cg != nil {
			before, samplesBefore = cg.PassTotals()
		}
		seed := pipeline.StageSeed(fs, pipeline.StageKernel)
		err := call("kernels."+name, func(s *stack) error {
			out, err := s.kern[name].Apply(plane, seed, 1)
			if s == rp.on && served {
				result = out
			}
			return err
		}, true)
		if err != nil {
			return replayed{}, err
		}
		if cg != nil {
			passes, samples := cg.PassTotals()
			rp.cgPasses += passes - before
			rp.cgSamples += samples - samplesBefore
		}
	}
	for _, name := range servedModels {
		served := name == in.target && (in.kind == "infer-scene" || in.kind == "infer-plane")
		if !served && !full {
			continue
		}
		// Plane requests run the model under the request seed with the
		// server's worker count; everything else runs it as a pipeline
		// stage, on one worker.
		seed, workers := pipeline.StageSeed(fs, pipeline.StageInfer), 1
		if in.kind == "infer-plane" {
			seed, workers = in.seed, serverWorkers
		}
		err := call("infer."+name, func(s *stack) error {
			logits, err := s.models[name].Apply(plane, seed, workers)
			if s == rp.on && served {
				result = lightator.InferResponse{Model: name, Logits: logits, Class: infer.Argmax(logits)}
			}
			return err
		}, true)
		if err != nil {
			return replayed{}, err
		}
	}

	var body []byte
	if err := call("server.encode", func(*stack) (err error) {
		body, err = encode(result, in)
		return err
	}, false); err != nil {
		return replayed{}, err
	}
	var path time.Duration
	for _, name := range in.pathLayers(prev != nil && samePlane(prev, plane)) {
		path += took[name]
	}
	return replayed{body: body, result: result, plane: plane, onPath: path}, nil
}

// decode parses a request body the way the server does.
func decode(in input) error {
	switch in.kind {
	case "process", "hot":
		var req lightator.ProcessRequest
		if err := json.Unmarshal(in.body, &req); err != nil {
			return err
		}
		_, err := lightator.DecodeImage(req.Scene)
		return err
	case "infer-scene", "infer-plane":
		var req lightator.InferRequest
		if err := json.Unmarshal(in.body, &req); err != nil {
			return err
		}
		w := req.Scene
		if w == nil {
			w = req.Plane
		}
		if w == nil {
			return fmt.Errorf("bench: infer request carries no image")
		}
		_, err := lightator.DecodeImage(*w)
		return err
	case "session":
		var f lightator.SessionFrame
		if err := json.Unmarshal(in.body, &f); err != nil {
			return err
		}
		_, err := lightator.DecodeImage(f.Scene)
		return err
	}
	return fmt.Errorf("bench: unknown input kind %q", in.kind)
}

// encode marshals a replayed result into the bytes the server sends:
// the response body of an HTTP request, or a session's result line,
// whose index and reuse counters it copies from the line received.
func encode(result any, in input) ([]byte, error) {
	switch v := result.(type) {
	case *sensor.Image:
		w := lightator.EncodeImage(v)
		if in.kind == "session" {
			line := in.frame
			line.Plane = &w
			return json.Marshal(line)
		}
		b, err := json.Marshal(lightator.ProcessResponse{Plane: w})
		return append(b, '\n'), err
	case lightator.InferResponse:
		b, err := json.Marshal(v)
		return append(b, '\n'), err
	}
	return nil, fmt.Errorf("bench: no replayed result for a %s input", in.kind)
}

// samePlane reports whether two planes hold bit-identical samples.
func samePlane(a, b *lightator.Image) bool {
	if a.H != b.H || a.W != b.W || a.C != b.C {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return false
		}
	}
	return true
}
