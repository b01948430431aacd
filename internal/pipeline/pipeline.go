// Package pipeline is Lightator's batched, concurrent frame engine: a
// bounded worker pool that streams scenes through the accelerator's
// stages — ADC-less Capture, Compressive Acquisition, and an optional
// programmed optical MVM — at high aggregate throughput.
//
// The paper's pitch (DAC 2024) is versatile image processing on frame
// *streams*, not single stills; this package is the load-bearing layer
// that turns the one-scene facade paths into a stream server. Three
// properties drive the design:
//
//   - Bounded parallelism and backpressure: each Run/Stream call keeps
//     at most Workers frames in flight; job and result queues are
//     bounded, so a slow consumer throttles producers instead of
//     ballooning memory. (Concurrent Run/Stream calls each bring their
//     own pool — the bound is per call, not per Pipeline.)
//
//   - Determinism: frame i derives its noise seed from (Seed, i) via
//     oc.DeriveSeed, and every stage draws from per-row / per-window
//     child streams. N-worker output is therefore bit-identical to the
//     1-worker run — goroutine scheduling can never change a result,
//     even in PhysicalNoisy fidelity.
//
//   - Isolation: the sensor Array latches exposure state, so each worker
//     holds its own array, a clone of the prototype recycled through the
//     Pipeline's latch pool; the programmed MR banks (CA weights and the
//     optional MVM matrix) are immutable after programming and shared.
package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"lightator/internal/analog"
	"lightator/internal/fault"
	"lightator/internal/kernels"
	"lightator/internal/oc"
	"lightator/internal/sensor"
	"lightator/internal/trace"
)

// Stage seed tags: frame seed s yields DeriveSeed(s, stage) per stage, so
// stages of one frame never share a noise stream. Exported so a layer
// that re-runs a stage outside the pipeline (the streaming session's
// delta stage, internal/session) can reproduce a frame's exact stage
// seed chain.
const (
	StageCapture  = 0
	StageCompress = 1
	StageMatVec   = 2
	StageKernel   = 3
	StageInfer    = 4
)

// FrameSeed maps a request-level seed to the frame seed RunSeeded (and
// StreamSeeded) give that submission — the seed a streamed session frame
// shares with its per-frame facade equivalent.
func FrameSeed(requestSeed int64) int64 { return oc.DeriveSeed(requestSeed, 0) }

// StageSeed derives one stage's noise seed from a frame seed.
func StageSeed(frameSeed int64, stage int) int64 { return oc.DeriveSeed(frameSeed, stage) }

// InferModel is the inference post-stage contract, implemented by
// infer.Model: a compiled network that consumes the CA measurement plane
// and returns class logits, bit-identically for any worker count (window
// j of layer L draws its noise from per-layer DeriveSeed child streams).
// Declared here, not imported, so the pipeline depends on the contract
// rather than the engine.
type InferModel interface {
	Name() string
	Apply(plane *sensor.Image, seed int64, workers int) ([]float64, error)
}

// Config assembles a pipeline.
type Config struct {
	// Rows, Cols size the per-worker sensor arrays.
	Rows, Cols int
	// Workers bounds the number of frames processed concurrently.
	// Defaults to runtime.NumCPU().
	Workers int
	// Queue is the depth of the job and result buffers (backpressure
	// window). Defaults to 2*Workers.
	Queue int
	// Seed is the base noise seed; frame i uses oc.DeriveSeed(Seed, i).
	Seed int64
	// CAPool enables the Compressive Acquisition stage when non-zero
	// (even, >= 2 — the Bayer quad constraint).
	CAPool int
	// Weights, when non-nil, adds an optical MVM stage applied to the
	// flattened output of the previous stage (the compressed plane when
	// CAPool > 0, the raw frame intensities otherwise). Entries in [-1,1].
	Weights [][]float64
	// Kernel, when non-nil, adds a compressed-domain processing stage
	// applied to the CA output plane (requires CAPool > 0); see
	// internal/kernels and docs/KERNELS.md. Kernel and Weights may be
	// combined — both consume the compressed plane independently.
	Kernel kernels.Kernel
	// Infer, when non-nil, adds a compressed-domain CNN inference stage
	// applied to the CA output plane (requires CAPool > 0); see
	// internal/infer and docs/INFER.md. Infer composes freely with Kernel
	// and Weights — all three consume the compressed plane independently.
	Infer InferModel
	// Core executes the CA and MVM stages; required when either is
	// enabled.
	Core *oc.Core
	// Array, when non-nil, is the sensor prototype the workers clone
	// (preserving its device models); its dimensions override Rows/Cols.
	// When nil a default array of Rows x Cols is built.
	Array *sensor.Array
	// FaultPlan, when non-nil, is the chaos plan whose sensor-side
	// comparator faults the capture stage injects (optical-core faults
	// are compiled by the core itself — see oc.Core.SetFaultPlan). Nil
	// inherits the Core's plan, so configuring the core once covers both
	// sides.
	FaultPlan *fault.Plan
}

// Result is one frame's trip through the pipeline. Stages that were not
// enabled leave their field nil.
type Result struct {
	// Index is the frame's position in the input order.
	Index int
	// Frame is the ADC-less capture readout.
	Frame *sensor.Frame
	// Compressed is the CA output plane (nil when CAPool == 0).
	Compressed *sensor.Image
	// Processed is the compressed-domain kernel output (nil when
	// Config.Kernel is nil). Values may lie outside [0,1] — e.g. signed
	// edge responses.
	Processed *sensor.Image
	// Logits is the compressed-domain inference output (nil when
	// Config.Infer is nil).
	Logits []float64
	// Output is the MVM stage result (nil when Weights == nil).
	Output []float64
	// Err is the first stage error; later stages are skipped. A frame
	// error does not abort the run — other frames keep flowing.
	Err error
	// Degraded reports that at least one optical stage this frame passed
	// through is serving degraded output — rows retired to the digital
	// fallback or unrecovered ABFT detections (see docs/FAULTS.md). The
	// result is still well-formed; the flag propagates to the wire so
	// clients can decide whether degraded answers are acceptable.
	Degraded bool
	// CaptureTime, CompressTime, KernelTime, InferTime and MatVecTime are
	// per-stage latencies.
	CaptureTime, CompressTime, KernelTime, InferTime, MatVecTime time.Duration
	// Ops is the frame's modeled per-stage analog op counts — the
	// pipeline's static FrameOps value copied in (a plain struct copy, no
	// allocation; see internal/trace). Stages that were not enabled stay
	// zero.
	Ops trace.StageOps
}

// Pipeline is a configured worker pool. It is safe to call Run and
// Stream from multiple goroutines, but each Stream's input channel must
// be closed by its producer, and its result channel fully drained by the
// consumer, to release the workers — abandoning a result channel
// mid-stream blocks the pool once the queue fills (there is no
// cancellation path yet). Note the cumulative Stats sum per-run wall
// times, so cumulative FPS reads as serialized-equivalent throughput
// when runs overlap in time.
type Pipeline struct {
	cfg   Config
	ca    *oc.Acquisitor
	pm    *oc.ProgrammedMatrix
	proto *sensor.Array
	// latches recycles the workers' clones of proto between runs: a
	// 256x256 latch is 512 KB, too large to allocate per worker per
	// micro-batch. Capture overwrites the whole latch, so a reused one
	// carries nothing over.
	latches sync.Pool
	// sensorFaults are the chaos plan's comparator stuck-ats, applied to
	// the captured frame codes before any optical stage (nil in the
	// common no-chaos case — a zero-cost branch per frame).
	sensorFaults []fault.Fault
	// ops is the per-frame op-count profile, fixed by the configured
	// geometry at construction (every frame of a pipeline does identical
	// modeled analog work).
	ops trace.StageOps

	mu    sync.Mutex
	total Stats
}

// New validates the configuration and programs the shared MR banks.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Array != nil {
		cfg.Rows, cfg.Cols = cfg.Array.Rows, cfg.Array.Cols
	}
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("pipeline: invalid sensor size %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 2 * cfg.Workers
	}
	proto := cfg.Array
	if proto == nil {
		arr, err := sensor.NewArray(cfg.Rows, cfg.Cols)
		if err != nil {
			return nil, err
		}
		proto = arr
	}
	p := &Pipeline{cfg: cfg, proto: proto}
	p.latches.New = func() any { return proto.Clone() }
	if cfg.CAPool != 0 || cfg.Weights != nil || cfg.Kernel != nil || cfg.Infer != nil {
		if cfg.Core == nil {
			return nil, fmt.Errorf("pipeline: CA/MVM/kernel/infer stages enabled but no optical core configured")
		}
	}
	if cfg.Kernel != nil && cfg.CAPool == 0 {
		return nil, fmt.Errorf("pipeline: kernel stage %q needs the compressive acquisition stage (CAPool > 0)", cfg.Kernel.Name())
	}
	if cfg.Infer != nil && cfg.CAPool == 0 {
		return nil, fmt.Errorf("pipeline: inference stage %q needs the compressive acquisition stage (CAPool > 0)", cfg.Infer.Name())
	}
	mvmCols := cfg.Rows * cfg.Cols
	if cfg.CAPool != 0 {
		if cfg.Rows%cfg.CAPool != 0 || cfg.Cols%cfg.CAPool != 0 {
			return nil, fmt.Errorf("pipeline: sensor %dx%d not divisible by CA pool %d", cfg.Rows, cfg.Cols, cfg.CAPool)
		}
		ca, err := oc.NewAcquisitor(cfg.Core, cfg.CAPool)
		if err != nil {
			return nil, err
		}
		p.ca = ca
		mvmCols = (cfg.Rows / cfg.CAPool) * (cfg.Cols / cfg.CAPool)
	}
	if cfg.Weights != nil {
		if len(cfg.Weights) == 0 || len(cfg.Weights[0]) != mvmCols {
			have := 0
			if len(cfg.Weights) > 0 {
				have = len(cfg.Weights[0])
			}
			return nil, fmt.Errorf("pipeline: MVM weights have %d columns, stage input is %d", have, mvmCols)
		}
		pm, err := cfg.Core.Program(cfg.Weights)
		if err != nil {
			return nil, err
		}
		// The MVM stage shares the "mvm" health component with the serving
		// layer's mat-vec path — both are the paper's runtime-driven bank.
		pm.SetLabel("mvm")
		p.pm = pm
	}
	plan := cfg.FaultPlan
	if plan == nil && cfg.Core != nil {
		plan = cfg.Core.FaultPlan()
	}
	p.sensorFaults = plan.Sensor()
	if err := p.profileOps(); err != nil {
		return nil, err
	}
	return p, nil
}

// profileOps derives the static per-frame op-count profile from the
// configured geometry: capture reads every pixel through the CRC
// comparator ladder; the CA streams one pre-set row per pooled window;
// kernel and infer stages report their own programmed geometry; the MVM
// stage is one runtime-driven matrix apply. See docs/OBSERVABILITY.md.
func (p *Pipeline) profileOps() error {
	cfg := p.cfg
	p.ops.Capture = trace.OpCounts{
		ComparatorFires: int64(cfg.Rows) * int64(cfg.Cols) * int64(analog.NumComparators),
	}
	caH, caW := cfg.Rows, cfg.Cols
	if p.ca != nil {
		caH, caW = cfg.Rows/cfg.CAPool, cfg.Cols/cfg.CAPool
		windows := int64(caH) * int64(caW)
		taps := int64(cfg.CAPool) * int64(cfg.CAPool)
		p.ops.Compress = trace.OpCounts{
			MVMRows:        windows,
			ADCConversions: windows,
			// Pre-set bank: coefficients tuned once at programming time, so
			// the windows hold MRs without runtime DAC settles.
			MRCoeffHolds: windows * taps,
			ABFTChecks:   p.ca.ABFTChecksPer(windows),
		}
	}
	if cfg.Kernel != nil {
		ops, err := cfg.Kernel.Ops(caH, caW)
		if err != nil {
			return fmt.Errorf("pipeline: kernel %s op profile: %w", cfg.Kernel.Name(), err)
		}
		p.ops.Kernel = ops
	}
	if cfg.Infer != nil {
		// infer.Model implements the optional op-count contract; other
		// InferModels simply report zero (the pipeline depends on the
		// contract, not the engine).
		if om, ok := cfg.Infer.(interface {
			Ops() (trace.OpCounts, error)
		}); ok {
			ops, err := om.Ops()
			if err != nil {
				return fmt.Errorf("pipeline: infer %s op profile: %w", cfg.Infer.Name(), err)
			}
			p.ops.Infer = ops
		}
	}
	if p.pm != nil {
		rows, cols := int64(p.pm.Rows()), int64(p.pm.Cols())
		p.ops.MatVec = trace.OpCounts{
			MVMRows:        rows,
			DACSettles:     rows * cols,
			ADCConversions: rows,
			MRCoeffHolds:   rows * cols,
			ABFTChecks:     p.pm.ABFTChecksPer(1),
		}
	}
	return nil
}

// FrameOps returns the modeled per-stage analog op counts of one frame
// through this pipeline — constant for the pipeline's lifetime.
func (p *Pipeline) FrameOps() trace.StageOps { return p.ops }

// Config returns the effective (defaulted) configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// degraded reports whether any optical stage of this pipeline is
// currently serving degraded output — a handful of atomic loads, cheap
// enough to evaluate per frame.
func (p *Pipeline) degraded() bool {
	if p.ca != nil && p.ca.Degraded() {
		return true
	}
	if p.pm != nil && p.pm.Degraded() {
		return true
	}
	if d, ok := p.cfg.Kernel.(interface{ Degraded() bool }); ok && d.Degraded() {
		return true
	}
	if d, ok := p.cfg.Infer.(interface{ Degraded() bool }); ok && d.Degraded() {
		return true
	}
	return false
}

// injectSensorFaults applies the chaos plan's comparator stuck-ats to a
// captured frame's CRC codes, before any optical stage reads them. A
// thermometer code c means comparators 0..c-1 fired; sticking comparator
// k on adds a rung to codes with k >= c, sticking it off removes one
// from codes with k < c. Activation hashes the frame's capture-stage
// seed, so injection is bit-identical at any worker count. A fault with
// Row == RowEnd == 0 covers the whole frame; otherwise [Row, RowEnd]
// bounds the affected sensor rows.
func (p *Pipeline) injectSensorFaults(f *sensor.Frame, frameSeed int64) {
	seed := StageSeed(frameSeed, StageCapture)
	for _, flt := range p.sensorFaults {
		if flt.Col >= analog.NumComparators || !flt.Window.Active(seed) {
			continue
		}
		lo, hi := flt.Row, flt.LastRow()
		if flt.Row == 0 && flt.RowEnd == 0 || hi >= f.Rows {
			hi = f.Rows - 1
		}
		k := uint8(flt.Col)
		stuckOn := flt.Value > 0
		for y := lo; y <= hi; y++ {
			row := f.Codes[y*f.Cols : (y+1)*f.Cols]
			for x, c := range row {
				if stuckOn {
					if c <= k && int(c) < analog.NumComparators {
						row[x] = c + 1
					}
				} else if c > k {
					row[x] = c - 1
				}
			}
		}
	}
}

// processFrame runs every enabled stage for one frame on one worker.
// frameSeed is the frame's top-level noise seed; stages derive children
// from it.
func (p *Pipeline) processFrame(arr *sensor.Array, idx int, frameSeed int64, scene *sensor.Image, st *Stats) (res Result) {
	res = Result{Index: idx, Ops: p.ops}
	st.Frames++
	// The degraded flag reflects component health after this frame's own
	// stages ran — a frame whose ABFT check trips and retires a row
	// reports the degradation it caused.
	defer func() { res.Degraded = p.degraded() }()

	t0 := time.Now()
	frame, err := arr.Capture(scene)
	res.CaptureTime = time.Since(t0)
	st.Capture.Observe(res.CaptureTime)
	if err != nil {
		res.Err = fmt.Errorf("pipeline: frame %d capture: %w", idx, err)
		st.Errors++
		return res
	}
	res.Frame = frame
	if p.sensorFaults != nil {
		p.injectSensorFaults(frame, frameSeed)
	}

	var activations []float64
	if p.ca != nil {
		t0 = time.Now()
		small, err := p.ca.CompressSeeded(frame, StageSeed(frameSeed, StageCompress))
		res.CompressTime = time.Since(t0)
		st.Compress.Observe(res.CompressTime)
		if err != nil {
			res.Err = fmt.Errorf("pipeline: frame %d compress: %w", idx, err)
			st.Errors++
			return res
		}
		res.Compressed = small
		activations = small.Pix

		if p.cfg.Kernel != nil {
			t0 = time.Now()
			// Workers is 1: frame-level parallelism already saturates the
			// pool, and the kernel contract makes the worker count
			// unobservable in the output anyway.
			proc, err := p.cfg.Kernel.Apply(small, StageSeed(frameSeed, StageKernel), 1)
			res.KernelTime = time.Since(t0)
			st.Kernel.Observe(res.KernelTime)
			if err != nil {
				res.Err = fmt.Errorf("pipeline: frame %d kernel %s: %w", idx, p.cfg.Kernel.Name(), err)
				st.Errors++
				return res
			}
			res.Processed = proc
		}

		if p.cfg.Infer != nil {
			t0 = time.Now()
			// Workers is 1 for the same reason as the kernel stage:
			// frame-level parallelism already saturates the pool, and the
			// infer contract makes the worker count unobservable anyway.
			logits, err := p.cfg.Infer.Apply(small, StageSeed(frameSeed, StageInfer), 1)
			res.InferTime = time.Since(t0)
			st.Infer.Observe(res.InferTime)
			if err != nil {
				res.Err = fmt.Errorf("pipeline: frame %d infer %s: %w", idx, p.cfg.Infer.Name(), err)
				st.Errors++
				return res
			}
			res.Logits = logits
		}
	} else if p.pm != nil {
		activations = make([]float64, frame.Rows*frame.Cols)
		for y := 0; y < frame.Rows; y++ {
			for x := 0; x < frame.Cols; x++ {
				activations[y*frame.Cols+x] = frame.Intensity(y, x)
			}
		}
	}

	if p.pm != nil {
		t0 = time.Now()
		// Destination-passing keeps the MVM stage's steady-state
		// allocations to the one result slice that escapes into Result.
		y := make([]float64, p.pm.Rows())
		err := p.pm.ApplySeededInto(y, activations, StageSeed(frameSeed, StageMatVec))
		res.MatVecTime = time.Since(t0)
		st.MatVec.Observe(res.MatVecTime)
		if err != nil {
			res.Err = fmt.Errorf("pipeline: frame %d matvec: %w", idx, err)
			st.Errors++
			return res
		}
		res.Output = y
	}
	return res
}

// job pairs a frame with its input-order index and resolved noise seed.
type job struct {
	idx   int
	seed  int64
	scene *sensor.Image
}

// run is the shared engine: it drains jobs with the worker pool, hands
// each Result to emit, and returns the merged run stats. known caps the
// pool when the caller knows the job count up front (a micro-batch of 2
// frames should not hold NumCPU sensor latches); 0 means unknown.
func (p *Pipeline) run(known int, jobs <-chan job, emit func(Result)) *Stats {
	start := time.Now()
	workers := p.cfg.Workers
	if known > 0 && known < workers {
		workers = known
	}
	var (
		wg     sync.WaitGroup
		locals = make([]*Stats, workers)
	)
	for w := 0; w < workers; w++ {
		st := &Stats{}
		locals[w] = st
		arr := p.latches.Get().(*sensor.Array)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.latches.Put(arr)
			for j := range jobs {
				// emit targets either a distinct slice index or a
				// channel — both safe from concurrent workers.
				emit(p.processFrame(arr, j.idx, j.seed, j.scene, st))
			}
		}()
	}
	wg.Wait()
	run := &Stats{Workers: workers}
	for _, st := range locals {
		run.merge(st)
	}
	run.Wall = time.Since(start)
	if run.Wall > 0 {
		run.FPS = float64(run.Frames) / run.Wall.Seconds()
	}
	p.mu.Lock()
	// Cumulative stats report the configured pool bound, not the possibly
	// batch-capped count of the last run.
	p.total.Workers = p.cfg.Workers
	p.total.merge(run)
	p.total.Wall += run.Wall
	if p.total.Wall > 0 {
		p.total.FPS = float64(p.total.Frames) / p.total.Wall.Seconds()
	}
	p.mu.Unlock()
	return run
}

// Run processes a batch of scenes and returns results in input order,
// plus the run's aggregate stats. Per-frame failures are reported in
// Result.Err; Run itself only fails on an empty batch.
func (p *Pipeline) Run(scenes []*sensor.Image) ([]Result, *Stats, error) {
	if len(scenes) == 0 {
		return nil, nil, fmt.Errorf("pipeline: empty batch")
	}
	jobs := make(chan job, p.cfg.Queue)
	go func() {
		for i, s := range scenes {
			jobs <- job{idx: i, seed: oc.DeriveSeed(p.cfg.Seed, i), scene: s}
		}
		close(jobs)
	}()
	results := make([]Result, len(scenes))
	stats := p.run(len(scenes), jobs, func(r Result) { results[r.Index] = r })
	return results, stats, nil
}

// SeededScene is a single-frame submission with an explicit base seed: the
// frame is processed exactly as frame 0 of a Run on a pipeline configured
// with that seed. It is the hook a request/response front-end (the network
// serving layer) uses to coalesce independent requests into one pipeline
// batch without the batch composition leaking into any result — each
// frame's noise depends only on its own (scene, seed) pair.
type SeededScene struct {
	// Seed is the base noise seed for this frame alone.
	Seed int64
	// Scene is the RGB input.
	Scene *sensor.Image
}

// RunSeeded processes a batch of independently-seeded scenes and returns
// results in input order (Result.Index is the submission position). Frame
// i's output is bit-identical to Run([]{scenes[i]}) on a pipeline whose
// Config.Seed is jobs[i].Seed — regardless of which other frames share the
// batch or how many workers drain it.
func (p *Pipeline) RunSeeded(batch []SeededScene) ([]Result, *Stats, error) {
	if len(batch) == 0 {
		return nil, nil, fmt.Errorf("pipeline: empty batch")
	}
	jobs := make(chan job, p.cfg.Queue)
	go func() {
		for i, s := range batch {
			jobs <- job{idx: i, seed: FrameSeed(s.Seed), scene: s.Scene}
		}
		close(jobs)
	}()
	results := make([]Result, len(batch))
	stats := p.run(len(batch), jobs, func(r Result) { results[r.Index] = r })
	return results, stats, nil
}

// Stream processes scenes from a channel, emitting results as frames
// finish (unordered — Result.Index identifies the frame). The result
// channel is buffered to the configured Queue depth, so a slow consumer
// exerts backpressure on the workers, which in turn stop draining the
// input. The result channel closes once the input channel is closed and
// every in-flight frame has been emitted.
func (p *Pipeline) Stream(in <-chan *sensor.Image) <-chan Result {
	jobs := make(chan job, p.cfg.Queue)
	out := make(chan Result, p.cfg.Queue)
	go func() {
		i := 0
		for s := range in {
			jobs <- job{idx: i, seed: oc.DeriveSeed(p.cfg.Seed, i), scene: s}
			i++
		}
		close(jobs)
	}()
	go func() {
		p.run(0, jobs, func(r Result) { out <- r })
		close(out)
	}()
	return out
}

// StreamSeeded processes independently-seeded scenes from a channel,
// emitting results as frames finish (unordered — Result.Index is the
// submission position). It is the streaming form of RunSeeded: frame i's
// output is bit-identical to RunSeeded on a batch containing only that
// submission, regardless of stream composition or worker count. The
// streaming session layer (internal/session) feeds each session frame i
// with Seed = DeriveSeed(sessionSeed, i), making streamed bytes identical
// to per-frame facade calls under that seed. Channel semantics match
// Stream: the producer must close in, and the consumer must drain the
// result channel fully to release the workers.
func (p *Pipeline) StreamSeeded(in <-chan SeededScene) <-chan Result {
	jobs := make(chan job, p.cfg.Queue)
	out := make(chan Result, p.cfg.Queue)
	go func() {
		i := 0
		for s := range in {
			jobs <- job{idx: i, seed: FrameSeed(s.Seed), scene: s.Scene}
			i++
		}
		close(jobs)
	}()
	go func() {
		p.run(0, jobs, func(r Result) { out <- r })
		close(out)
	}()
	return out
}

// Stats returns a snapshot of the cumulative stats across every Run and
// Stream this pipeline has completed.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}
