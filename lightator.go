// Package lightator is the public API of the Lightator reproduction: an
// optical near-sensor accelerator with compressive acquisition for
// versatile image processing at the edge (Morsali et al., DAC 2024).
//
// The facade wires together the internal subsystems — the ADC-less Bayer
// sensor, the DMVA laser array, the MR-based optical core with its
// Compressive Acquisitor, the hardware mapper and the architecture
// simulator — behind a small surface:
//
//	acc, _ := lightator.New(lightator.DefaultConfig())
//	frame, _ := acc.Capture(scene)            // ADC-less 4-bit readout
//	small, _ := acc.AcquireCompressed(scene)  // + fused gray/avg-pool CA
//	y, _ := acc.MatVec(weights, activations)  // raw photonic MVM
//	rep, _ := acc.Simulate("lenet")           // power/latency/FPS report
//
// # Batched frame streams
//
// The single-scene paths above process one frame on the calling
// goroutine. The sensor array is immutable (capture latches no pixel
// voltage between exposure and readout), so goroutines may call Capture
// on one Accelerator at once. For frame streams — the workload the
// paper's FPS numbers are about — the facade exposes a bounded
// worker-pool pipeline (internal/pipeline) that runs Capture,
// Compressive Acquisition and an optional programmed MVM concurrently
// with per-frame deterministic noise seeding, so N-worker output is
// bit-identical to the 1-worker pipeline run even in PhysicalNoisy
// fidelity. (The batched paths seed noise per frame, so in
// PhysicalNoisy they intentionally differ from the shared-stream
// single-scene calls above — determinism, not stream continuity, is the
// contract.)
//
//	p, _ := acc.NewPipeline(lightator.PipelineOptions{Workers: 4})
//	results, stats, _ := p.Run(scenes)        // ordered batch
//	out := p.Stream(sceneCh)                  // backpressured stream
//
// Convenience wrappers cover the common batch shapes: CaptureBatch,
// AcquireCompressedBatch, and MatVecBatch (which shards the weight
// matrix rows across goroutines). See docs/PIPELINE.md for the worker
// model and determinism guarantees.
//
// # Compressed-domain processing
//
// The kernel layer (internal/kernels) is the paper's "versatile image
// processing" made concrete: image-processing operators — least-squares
// reconstruction, edge detection, 2x downsampling, denoising, block
// convolution — expressed as matrix operators composed
// with the CA sensing matrix, executed on the compressed measurement
// plane through the same optical MVM path (never on a reconstructed
// frame):
//
//	acc.Kernels()                                  // registered kernel names
//	out, _ := acc.ProcessCompressed(scene, "edge") // capture + CA + kernel
//	outs, _ := acc.ProcessCompressedBatch(scenes, "reconstruct", 4)
//
// See docs/KERNELS.md for each operator's math and the determinism
// contract.
//
// # Compressed-domain CNN inference
//
// The inference layer (internal/infer) is the paper's headline DNN
// workload: trained networks whose conv/dense layers execute as seeded
// optical MVMs directly over the CA measurement plane, with the
// electronic block handling activations, pooling and quantizers.
// Built-in demonstration models register at construction; RegisterModel
// compiles networks trained with internal/train:
//
//	acc.Models()                                  // registered model names
//	logits, _ := acc.Infer(scene, "tiny-cnn")     // capture + CA + inference
//	logits, _ = acc.InferPlane(plane, "tiny-cnn") // pre-compressed input
//
// See docs/INFER.md for the layer mapping, the determinism contract and
// the accuracy-vs-compression behaviour.
//
// # Network serving
//
// The serving layer (internal/server) exposes the accelerator over
// HTTP/JSON with dynamic micro-batching: concurrent requests coalesce
// into pipeline batches without changing any response byte (each frame
// carries its own seed into the batch). /v1/process serves every
// registered compressed-domain kernel through the same micro-batcher.
//
//	srv, _ := acc.NewServer(lightator.ServeOptions{})
//	go srv.ListenAndServe(":8080")        // or cmd/lightator-serve
//
// See docs/SERVER.md for endpoints, wire formats, batching policy and
// operational behaviour (backpressure, caching, graceful drain), and
// docs/API.md for the complete facade + HTTP reference.
//
// See docs/DESIGN.md for the system inventory and docs/PIPELINE.md for
// the concurrent pipeline's worker model and determinism guarantees.
package lightator

import (
	"fmt"
	"runtime"
	"sync"

	"lightator/internal/arch"
	"lightator/internal/energy"
	"lightator/internal/fault"
	"lightator/internal/infer"
	"lightator/internal/kernels"
	"lightator/internal/mapping"
	"lightator/internal/models"
	"lightator/internal/nn"
	"lightator/internal/oc"
	"lightator/internal/photonics"
	"lightator/internal/pipeline"
	"lightator/internal/sensor"
)

// Re-exported core types so callers only import this package.
type (
	// Image is an H x W x C scene or feature plane with values in [0,1].
	Image = sensor.Image
	// Frame is a 4-bit ADC-less sensor readout.
	Frame = sensor.Frame
	// Fidelity selects the analog simulation depth (Ideal, Physical,
	// PhysicalNoisy).
	Fidelity = oc.Fidelity
	// PerformanceReport is a whole-model architecture simulation result.
	PerformanceReport = arch.Report
	// LayerDims describes one DNN layer for the simulator.
	LayerDims = mapping.LayerDims
	// Ring is the add-drop microring resonator device model.
	Ring = photonics.Ring
	// Pipeline is the batched concurrent frame engine.
	Pipeline = pipeline.Pipeline
	// PipelineResult is one frame's trip through the pipeline.
	PipelineResult = pipeline.Result
	// PipelineStats aggregates a pipeline run (FPS, per-stage latency
	// histograms).
	PipelineStats = pipeline.Stats
	// BatchPerformanceReport aggregates per-frame simulation reports.
	BatchPerformanceReport = arch.BatchReport
	// FaultPlan is a deterministic fault-injection plan (see
	// docs/FAULTS.md): a named set of seeded hardware faults — stuck or
	// drifting MR coefficients, comparator stuck-ats, laser droop,
	// transient bit-flips — activated on the optical core at construction.
	FaultPlan = fault.Plan
	// Fault is one injected hardware fault of a FaultPlan.
	Fault = fault.Fault
	// FaultWindow gates a fault in time: active iff a hash of the apply's
	// derived seed lands inside Duty residues mod Period (zero Window =
	// persistent), so activation is reproducible at any worker count.
	FaultWindow = fault.Window
	// ComponentHealth is a point-in-time copy of one component's
	// fault-tolerance counters (ABFT checks, detections, recovery-ladder
	// outcomes).
	ComponentHealth = fault.HealthSnapshot
)

// ParseFaultPlan strictly decodes a JSON fault plan and validates it.
func ParseFaultPlan(data []byte) (*FaultPlan, error) { return fault.ParsePlan(data) }

// Fidelity levels.
const (
	// Ideal computes exact quantized arithmetic with no analog effects.
	Ideal = oc.Ideal
	// Physical adds WDM inter-channel crosstalk from the MR Lorentzian
	// tails.
	Physical = oc.Physical
	// PhysicalNoisy additionally injects balanced-photodetector shot and
	// thermal noise into every arm readout.
	PhysicalNoisy = oc.PhysicalNoisy
)

// NewImage allocates a zeroed image.
func NewImage(h, w, c int) *Image { return sensor.NewImage(h, w, c) }

// WeightBankRing returns an MR aligned to the given wavelength with the
// weight-bank geometry used throughout the optical core (Fig. 1 device).
func WeightBankRing(wavelength float64) *Ring { return photonics.WeightBankRing(wavelength) }

// CBandCenter is the center of the WDM grid, meters.
const CBandCenter = photonics.CBandCenter

// Precision is a [W:A] configuration, optionally mixed (Lightator-MX).
type Precision struct {
	// WBits is the weight precision mapped onto MR detunings (paper: 4,
	// 3 or 2).
	WBits int
	// ABits is the DMVA activation precision (paper: 4).
	ABits int
	// MXFirstWBits, when non-zero, keeps the first weight layer at this
	// precision (the paper's Lightator-MX scheme).
	MXFirstWBits int
}

// Name renders the paper's [W:A] notation.
func (p Precision) Name() string {
	if p.MXFirstWBits != 0 && p.MXFirstWBits != p.WBits {
		return fmt.Sprintf("[%d:%d][%d:%d]", p.MXFirstWBits, p.ABits, p.WBits, p.ABits)
	}
	return fmt.Sprintf("[%d:%d]", p.WBits, p.ABits)
}

// schedule converts to the simulator's precision schedule.
func (p Precision) schedule() arch.PrecisionSchedule {
	if p.MXFirstWBits != 0 {
		return arch.MX(p.MXFirstWBits, p.WBits, p.ABits)
	}
	return arch.Uniform(p.WBits, p.ABits)
}

// Config assembles an accelerator instance.
type Config struct {
	// Precision of the optical core.
	Precision Precision
	// Fidelity of the analog simulation.
	Fidelity Fidelity
	// SensorRows/SensorCols size the pixel array (the paper's imager is
	// 256x256).
	SensorRows, SensorCols int
	// CAPool is the Compressive Acquisitor's pooling factor (even, >= 2);
	// 0 disables the CA stage.
	CAPool int
	// Seed is the base noise seed for the batched paths: frame i of a
	// batch derives its own stream from (Seed, i), making PhysicalNoisy
	// batches reproducible regardless of worker count or scheduling.
	Seed int64
	// FaultPlan, when non-nil, activates deterministic fault injection on
	// the optical core (chaos testing — see docs/FAULTS.md). Detected
	// faults run the recovery ladder; surviving degradation is flagged on
	// results and reported by the serving layer. nil (the default) injects
	// nothing and costs nothing on the hot path.
	FaultPlan *FaultPlan
}

// validate fills the sensor-size defaults and rejects every
// configuration New would refuse, before New builds an array or a core,
// so the deeper layers never trip over one later (or with an opaque
// message).
func (c *Config) validate() error {
	p := c.Precision
	if p.WBits < 1 || p.WBits > 8 {
		return fmt.Errorf("lightator: weight precision %d bits outside [1,8] (paper: 4, 3 or 2)", p.WBits)
	}
	if p.ABits < 1 || p.ABits > 8 {
		return fmt.Errorf("lightator: activation precision %d bits outside [1,8] (paper: 4)", p.ABits)
	}
	if p.MXFirstWBits < 0 || p.MXFirstWBits > 8 {
		return fmt.Errorf("lightator: MX first-layer precision %d bits outside [0,8]", p.MXFirstWBits)
	}
	if c.SensorRows < 0 || c.SensorCols < 0 {
		return fmt.Errorf("lightator: negative sensor size %dx%d", c.SensorRows, c.SensorCols)
	}
	if c.CAPool < 0 {
		return fmt.Errorf("lightator: negative CA pooling factor %d", c.CAPool)
	}
	if c.CAPool != 0 && (c.CAPool%2 != 0 || c.CAPool < 2) {
		return fmt.Errorf("lightator: CA pooling factor %d must be even and >= 2 (Bayer quads), or 0 to disable", c.CAPool)
	}
	if c.SensorRows == 0 {
		c.SensorRows = sensor.DefaultRows
	}
	if c.SensorCols == 0 {
		c.SensorCols = sensor.DefaultCols
	}
	if c.CAPool != 0 && (c.SensorRows%c.CAPool != 0 || c.SensorCols%c.CAPool != 0) {
		return fmt.Errorf("lightator: sensor %dx%d not divisible by CA pool %d", c.SensorRows, c.SensorCols, c.CAPool)
	}
	if err := c.FaultPlan.Validate(); err != nil {
		return fmt.Errorf("lightator: fault plan: %w", err)
	}
	return nil
}

// DefaultConfig is the paper's flagship configuration: [4:4], physical
// analog model, 256x256 sensor, 2x2 compressive acquisition.
func DefaultConfig() Config {
	return Config{
		Precision:  Precision{WBits: 4, ABits: 4},
		Fidelity:   Physical,
		SensorRows: sensor.DefaultRows,
		SensorCols: sensor.DefaultCols,
		CAPool:     2,
		Seed:       0x11647a70,
	}
}

// Accelerator is a configured Lightator instance.
type Accelerator struct {
	cfg    Config
	array  *sensor.Array
	core   *oc.Core
	ca     *oc.Acquisitor
	eng    *kernels.Engine
	inf    *infer.Engine
	params energy.Params

	// pipeMu guards the lazily-built pipelines behind AcquireCompressed,
	// ProcessCompressed and Infer (one per pipeKey, reused across
	// calls).
	pipeMu sync.Mutex
	pipes  map[pipeKey]*Pipeline
}

// pipeKey names a cached pipeline by its last stage: a kernel, a model,
// or neither (capture + CA alone).
type pipeKey struct{ kernel, model string }

// New builds an accelerator.
func New(cfg Config) (*Accelerator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	arr, err := sensor.NewArray(cfg.SensorRows, cfg.SensorCols)
	if err != nil {
		return nil, err
	}
	core, err := oc.NewCore(cfg.Precision.WBits, cfg.Precision.ABits, cfg.Fidelity)
	if err != nil {
		return nil, err
	}
	if cfg.FaultPlan != nil {
		// Before any matrix programs: labelled matrices compile the plan's
		// matching faults when they register (the CA below, kernels,
		// models, the pipeline MVM).
		core.SetFaultPlan(cfg.FaultPlan)
	}
	acc := &Accelerator{
		cfg: cfg, array: arr, core: core, params: energy.Default(),
		pipes: make(map[pipeKey]*Pipeline),
	}
	if cfg.CAPool != 0 {
		ca, err := oc.NewAcquisitor(core, cfg.CAPool)
		if err != nil {
			return nil, err
		}
		acc.ca = ca
		eng, err := kernels.NewEngine(core, cfg.CAPool)
		if err != nil {
			return nil, err
		}
		acc.eng = eng
		inf, err := infer.NewEngine(core, cfg.CAPool,
			cfg.SensorRows/cfg.CAPool, cfg.SensorCols/cfg.CAPool, cfg.Seed)
		if err != nil {
			return nil, err
		}
		acc.inf = inf
	}
	return acc, nil
}

// Config returns the accelerator's configuration.
func (a *Accelerator) Config() Config { return a.cfg }

// Health reports every optical component's fault-tolerance counters
// (ABFT checks, detections, recovery-ladder outcomes), sorted by
// component label. All-zero without an active FaultPlan.
func (a *Accelerator) Health() []ComponentHealth { return a.core.Health().Snapshot() }

// Degraded reports whether any optical component is serving degraded
// output: rows retired to the digital fallback, or unrecovered ABFT
// detections (see docs/FAULTS.md#degradation).
func (a *Accelerator) Degraded() bool { return a.core.Health().Degraded() }

// Capture exposes the ADC-less acquisition path: Bayer mosaic, global-
// shutter exposure and 15-comparator CRC readout to 4-bit codes. The
// sensor holds no state between captures, so concurrent calls are safe.
func (a *Accelerator) Capture(scene *Image) (*Frame, error) {
	return a.array.Capture(scene)
}

// AcquireCompressed captures a scene and runs the Compressive Acquisitor:
// fused RGB-to-grayscale + average pooling in one optical pass (Eq. 1).
// The scene is processed exactly as frame 0 of a seeded
// AcquireCompressedBatch under Config.Seed — the same ABFT-verified
// path, so the result is reproducible in every fidelity.
func (a *Accelerator) AcquireCompressed(scene *Image) (*Image, error) {
	if a.ca == nil {
		return nil, fmt.Errorf("lightator: compressive acquisition disabled (CAPool = 0)")
	}
	return runOne(a, PipelineOptions{}, scene,
		func(r PipelineResult) *Image { return r.Compressed })
}

// MatVec programs a weight matrix (entries in [-1,1]) onto the MR banks
// and streams one activation vector (entries in [0,1]) through the
// optical core, returning the analog MAC results. It is the one-vector
// MatVecBatch, so the result is reproducible in every fidelity.
func (a *Accelerator) MatVec(weights [][]float64, activations []float64) ([]float64, error) {
	ys, err := a.MatVecBatch(weights, [][]float64{activations}, 1)
	if err != nil {
		return nil, err
	}
	return ys[0], nil
}

// PipelineOptions configure a batched concurrent pipeline on top of the
// accelerator's sensor and optical core.
type PipelineOptions struct {
	// Workers bounds the frames processed concurrently; 0 means
	// runtime.NumCPU().
	Workers int
	// Queue is the backpressure window (job/result buffer depth); 0
	// means 2*Workers.
	Queue int
	// Seed overrides the accelerator Config's base noise seed when
	// non-zero.
	Seed int64
	// Weights, when non-nil, adds an optical MVM stage after capture /
	// compression (see pipeline.Config.Weights for the expected width).
	Weights [][]float64
	// Kernel, when non-empty, adds a compressed-domain processing stage
	// running the named registered kernel (see Kernels) on every frame's
	// CA output plane. Requires compressive acquisition to be enabled.
	Kernel string
	// Infer, when non-empty, adds a compressed-domain CNN inference stage
	// running the named registered model (see Models) on every frame's CA
	// output plane. Requires compressive acquisition to be enabled.
	Infer string
	// DisableCA drops the Compressive Acquisition stage even when the
	// accelerator has one configured (capture-only streams).
	DisableCA bool
}

// NewPipeline builds a batched, concurrent frame pipeline: a bounded
// worker pool streaming scenes through Capture -> Compressive
// Acquisition -> optional MVM with per-frame deterministic noise. See
// docs/PIPELINE.md.
func (a *Accelerator) NewPipeline(opts PipelineOptions) (*Pipeline, error) {
	seed := a.cfg.Seed
	if opts.Seed != 0 {
		seed = opts.Seed
	}
	capool := a.cfg.CAPool
	if opts.DisableCA {
		capool = 0
	}
	var kern kernels.Kernel
	if opts.Kernel != "" {
		if a.eng == nil {
			return nil, fmt.Errorf("lightator: kernel stage needs compressive acquisition (CAPool = 0)")
		}
		k, err := a.eng.Kernel(opts.Kernel)
		if err != nil {
			return nil, err
		}
		kern = k
	}
	var inferModel pipeline.InferModel
	if opts.Infer != "" {
		if a.inf == nil {
			return nil, fmt.Errorf("lightator: inference stage needs compressive acquisition (CAPool = 0)")
		}
		m, err := a.inf.Model(opts.Infer)
		if err != nil {
			return nil, err
		}
		inferModel = m
	}
	return pipeline.New(pipeline.Config{
		Workers: opts.Workers,
		Queue:   opts.Queue,
		Seed:    seed,
		CAPool:  capool,
		Weights: opts.Weights,
		Kernel:  kern,
		Infer:   inferModel,
		Core:    a.core,
		// Workers share the accelerator's own (immutable) array, so
		// pipeline capture uses the same device models as the serial
		// Capture path.
		Array: a.array,
	})
}

// pick returns field(r) of every frame result in order, or the first
// frame's error.
func pick[T any](results []PipelineResult, field func(PipelineResult) T) ([]T, error) {
	out := make([]T, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = field(r)
	}
	return out, nil
}

// runBatch runs scenes through a new pipeline built from opts and picks
// one field of every frame result.
func runBatch[T any](a *Accelerator, opts PipelineOptions, scenes []*Image, field func(PipelineResult) T) ([]T, error) {
	p, err := a.NewPipeline(opts)
	if err != nil {
		return nil, err
	}
	results, _, err := p.Run(scenes)
	if err != nil {
		return nil, err
	}
	return pick(results, field)
}

// runOne processes scene exactly as frame 0 of a seeded batch under
// Config.Seed, on the pipeline cached for opts' kernel or model (built on
// first use), and picks one field of its result.
func runOne[T any](a *Accelerator, opts PipelineOptions, scene *Image, field func(PipelineResult) T) (T, error) {
	var zero T
	p, err := a.cachedPipeline(opts)
	if err != nil {
		return zero, err
	}
	results, _, err := p.RunSeeded([]pipeline.SeededScene{{Seed: a.cfg.Seed, Scene: scene}})
	if err != nil {
		return zero, err
	}
	out, err := pick(results, field)
	if err != nil {
		return zero, err
	}
	return out[0], nil
}

// cachedPipeline returns the pipeline cached for opts' kernel or model,
// building it from opts on first use.
func (a *Accelerator) cachedPipeline(opts PipelineOptions) (*Pipeline, error) {
	key := pipeKey{kernel: opts.Kernel, model: opts.Infer}
	a.pipeMu.Lock()
	defer a.pipeMu.Unlock()
	if p, ok := a.pipes[key]; ok {
		return p, nil
	}
	p, err := a.NewPipeline(opts)
	if err != nil {
		return nil, err
	}
	a.pipes[key] = p
	return p, nil
}

// CaptureBatch captures a batch of scenes across `workers` goroutines
// (all sharing the one immutable sensor array), returning frames in
// input order.
func (a *Accelerator) CaptureBatch(scenes []*Image, workers int) ([]*Frame, error) {
	return runBatch(a, PipelineOptions{Workers: workers, DisableCA: true}, scenes,
		func(r PipelineResult) *Frame { return r.Frame })
}

// AcquireCompressedBatch runs capture + compressive acquisition over a
// batch of scenes with bounded parallelism. Frame i's noise is seeded
// from (Config.Seed, i), so the batch is reproducible for any worker
// count.
func (a *Accelerator) AcquireCompressedBatch(scenes []*Image, workers int) ([]*Image, error) {
	if a.ca == nil {
		return nil, fmt.Errorf("lightator: compressive acquisition disabled (CAPool = 0)")
	}
	return runBatch(a, PipelineOptions{Workers: workers}, scenes,
		func(r PipelineResult) *Image { return r.Compressed })
}

// Kernels lists the registered compressed-domain processing kernels,
// sorted by name; empty when compressive acquisition is disabled. The
// aliases reconstruct-direct, reconstruct-iter and reconstruct-cg
// resolve to reconstruct everywhere a kernel name is accepted but are
// not listed. See docs/KERNELS.md for each operator's math.
func (a *Accelerator) Kernels() []string {
	if a.eng == nil {
		return nil
	}
	return a.eng.Names()
}

// KernelDescription returns the one-line summary of a registered kernel;
// an alias's summary names the kernel it resolves to.
func (a *Accelerator) KernelDescription(name string) (string, error) {
	if a.eng == nil {
		return "", fmt.Errorf("lightator: compressed-domain kernels disabled (CAPool = 0)")
	}
	return a.eng.Description(name)
}

// ProcessCompressed captures a scene, compresses it with the CA, and runs
// the named compressed-domain kernel on the measurement plane — all three
// stages through the optical core. The scene is processed exactly as
// frame 0 of a seeded batch under Config.Seed, so the result is
// bit-identical to the served /v1/process response for the same request
// seed, in every fidelity. The output plane holds raw operator results,
// which may lie outside [0,1] (e.g. signed edge responses).
func (a *Accelerator) ProcessCompressed(scene *Image, kernel string) (*Image, error) {
	if a.eng == nil {
		return nil, fmt.Errorf("lightator: compressed-domain kernels disabled (CAPool = 0)")
	}
	return runOne(a, PipelineOptions{Kernel: kernel}, scene,
		func(r PipelineResult) *Image { return r.Processed })
}

// ProcessCompressedBatch runs capture + CA + the named kernel over a
// batch of scenes with bounded parallelism. Frame i's noise is seeded
// from (Config.Seed, i), like the other batched paths, so the batch is
// reproducible for any worker count.
func (a *Accelerator) ProcessCompressedBatch(scenes []*Image, kernel string, workers int) ([]*Image, error) {
	if a.eng == nil {
		return nil, fmt.Errorf("lightator: compressed-domain kernels disabled (CAPool = 0)")
	}
	return runBatch(a, PipelineOptions{Workers: workers, Kernel: kernel}, scenes,
		func(r PipelineResult) *Image { return r.Processed })
}

// Models lists the registered compressed-domain inference models, sorted
// by name; empty when compressive acquisition is disabled. The built-in
// demonstration models (deterministically initialised from Config.Seed)
// are registered at construction; RegisterModel adds trained networks.
// See docs/INFER.md.
func (a *Accelerator) Models() []string {
	if a.inf == nil {
		return nil
	}
	return a.inf.Names()
}

// ModelDescription returns the one-line summary of a registered
// inference model.
func (a *Accelerator) ModelDescription(name string) (string, error) {
	m, err := a.inferModel(name)
	if err != nil {
		return "", err
	}
	return m.Description(), nil
}

// RegisterModel compiles a trained network onto the optical core and
// registers it for inference under the given name (served at /v1/infer
// once a server is built). The network must consume the accelerator's CA
// measurement plane (single channel, SensorRows/CAPool x
// SensorCols/CAPool), end in logits, and have calibrated activation
// quantizers — training with package train satisfies all three. Register
// before NewServer; the network's weights are captured at compile time.
func (a *Accelerator) RegisterModel(name, description string, net *nn.Sequential) error {
	if a.inf == nil {
		return fmt.Errorf("lightator: compressed-domain inference disabled (CAPool = 0)")
	}
	h, w := a.inf.InputDims()
	m, err := infer.Compile(a.core, name, description, net, h, w)
	if err != nil {
		return err
	}
	return a.inf.Register(m)
}

// inferModel resolves a registered model, with the CA-disabled guard.
func (a *Accelerator) inferModel(name string) (*infer.Model, error) {
	if a.inf == nil {
		return nil, fmt.Errorf("lightator: compressed-domain inference disabled (CAPool = 0)")
	}
	return a.inf.Model(name)
}

// Infer captures a scene, compresses it with the CA, and runs the named
// registered model on the measurement plane — all three stages through
// the optical core — returning the class logits. The scene is processed
// exactly as frame 0 of a seeded batch under Config.Seed, so the result
// is bit-identical to the served /v1/infer response for the same request
// seed, in every fidelity.
func (a *Accelerator) Infer(scene *Image, model string) ([]float64, error) {
	if a.inf == nil {
		return nil, fmt.Errorf("lightator: compressed-domain inference disabled (CAPool = 0)")
	}
	return runOne(a, PipelineOptions{Infer: model}, scene,
		func(r PipelineResult) []float64 { return r.Logits })
}

// InferBatch runs capture + CA + the named model over a batch of scenes
// with bounded parallelism. Frame i's noise is seeded from (Config.Seed,
// i), like the other batched paths, so the batch is reproducible for any
// worker count.
func (a *Accelerator) InferBatch(scenes []*Image, model string, workers int) ([][]float64, error) {
	if a.inf == nil {
		return nil, fmt.Errorf("lightator: compressed-domain inference disabled (CAPool = 0)")
	}
	return runBatch(a, PipelineOptions{Workers: workers, Infer: model}, scenes,
		func(r PipelineResult) []float64 { return r.Logits })
}

// InferPlane runs the named model directly over a pre-compressed CA
// measurement plane (single channel, SensorRows/CAPool x
// SensorCols/CAPool, values in [0,1]), skipping capture and compression
// — the path for callers that already hold compressed measurements. The
// model executes under Config.Seed with the MVM batches sharded across
// the CPUs; the worker count is unobservable in the result (infer
// determinism contract), so it stays bit-identical to the served
// /v1/infer plane request for the same effective seed.
func (a *Accelerator) InferPlane(plane *Image, model string) ([]float64, error) {
	m, err := a.inferModel(model)
	if err != nil {
		return nil, err
	}
	return m.Apply(plane, a.cfg.Seed, runtime.NumCPU())
}

// InferReference computes the digital reference of a registered model
// over a pre-compressed plane: the same quantized network in exact
// arithmetic with no analog effects. The optical-vs-reference gap
// isolates crosstalk and noise — the fidelity metric ModelAgreement
// reports as top-1 agreement.
func (a *Accelerator) InferReference(plane *Image, model string) ([]float64, error) {
	m, err := a.inferModel(model)
	if err != nil {
		return nil, err
	}
	return m.Reference(plane)
}

// DefaultAgreementFrames is the structured-scene sweep size
// ModelAgreement uses when the caller passes frames < 1, and NewServer's
// default sweep size for GET /v1/models.
const DefaultAgreementFrames = 16

// ModelAgreement measures a registered model's optical-vs-reference
// top-1 agreement over `frames` structured test scenes (infer.Disks
// under Config.Seed): every scene runs capture + CA + the model through
// the optical core exactly as frame i of InferBatch, the exact digital
// reference re-runs each compressed plane, and the score is the fraction
// of frames whose top-1 class matches. This is the label-free fidelity
// contract GET /v1/models reports per served model — NewServer measures
// every served model in one shared sweep, with the same result per model
// as this one-model call.
func (a *Accelerator) ModelAgreement(model string, frames int) (float64, error) {
	agree, err := a.agreements([]string{model}, frames)
	if err != nil {
		return 0, err
	}
	return agree[0], nil
}

// agreements is the one agreement sweep behind ModelAgreement and
// NewServer. A single capture+CA pipeline streams the rendered scenes,
// and workers shard the compressed planes: plane i runs through every
// model's optical path under the seed a capture+CA+infer pipeline gives
// frame i, and through its digital reference. Each frame is captured and
// compressed once however many models share the sweep, and only
// per-model agree counts are kept. Scenes are rendered into a ring of one
// buffer per worker, and a buffer returns to the ring as soon as its
// frame's result arrives (capture has read it by then), so the sweep
// holds one full-resolution scene per worker and a handful of planes,
// whatever its length.
func (a *Accelerator) agreements(models []string, frames int) ([]float64, error) {
	if a.inf == nil {
		return nil, fmt.Errorf("lightator: compressed-domain inference disabled (CAPool = 0)")
	}
	if frames < 1 {
		frames = DefaultAgreementFrames
	}
	ms := make([]*infer.Model, len(models))
	for k, name := range models {
		m, err := a.inf.Model(name)
		if err != nil {
			return nil, err
		}
		ms[k] = m
	}
	workers := runtime.NumCPU()
	// A one-deep queue keeps the frames in flight near the worker count.
	p, err := a.NewPipeline(PipelineOptions{Workers: workers, Queue: 1})
	if err != nil {
		return nil, err
	}
	disks := infer.NewDisks(frames, a.cfg.SensorRows, a.cfg.SensorCols, a.cfg.Seed)
	ring := make(chan *Image, min(workers, frames))
	for range cap(ring) {
		ring <- sensor.NewImage(a.cfg.SensorRows, a.cfg.SensorCols, 3)
	}
	// held[i] is frame i's ring buffer; the producer writes it before the
	// frame enters the pipeline and a worker reads it once the frame's
	// result is out, so the channels order the two.
	held := make([]*Image, frames)
	scenes := make(chan *Image)
	go func() {
		for i := 0; i < frames; i++ {
			held[i] = <-ring
			disks.SceneInto(held[i], i)
			scenes <- held[i]
		}
		close(scenes)
	}()
	results := p.Stream(scenes)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		agree    = make([]int, len(ms))
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]int, len(ms))
			var err error
			// Drain every result, even after an error, so the pipeline's
			// workers are released.
			for r := range results {
				ring <- held[r.Index]
				if err == nil {
					err = a.agreeFrame(ms, r, local)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for k, n := range local {
				agree[k] += n
			}
			if firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	out := make([]float64, len(ms))
	for k, n := range agree {
		out[k] = float64(n) / float64(frames)
	}
	return out, nil
}

// agreeFrame counts, per model, whether one compressed frame's optical
// top-1 class matches its digital reference's.
func (a *Accelerator) agreeFrame(ms []*infer.Model, r PipelineResult, agree []int) error {
	if r.Err != nil {
		return r.Err
	}
	seed := pipeline.StageSeed(DeriveSeed(a.cfg.Seed, r.Index), pipeline.StageInfer)
	for k, m := range ms {
		logits, err := m.Apply(r.Compressed, seed, 1)
		if err != nil {
			return err
		}
		ref, err := m.Reference(r.Compressed)
		if err != nil {
			return err
		}
		if infer.Argmax(logits) == infer.Argmax(ref) {
			agree[k]++
		}
	}
	return nil
}

// MatVecBatch programs the weight matrix once and streams a batch of
// activation vectors through it, sharding the vectors across up to
// `workers` goroutines. Deterministic for a given Config.Seed. Every
// MVM the facade serves — this path, the CA, kernels and inference —
// funnels through the optical core's allocation-free seeded apply
// (flat programmed-matrix layout, pooled scratch and noise streams;
// see docs/PERF.md).
func (a *Accelerator) MatVecBatch(weights [][]float64, activations [][]float64, workers int) ([][]float64, error) {
	return a.core.MatVecBatch(weights, activations, workers, a.cfg.Seed)
}

// AggregateReports folds per-frame simulation reports into a batch-level
// summary (modeled batch FPS, power envelope, workload totals).
func AggregateReports(reports []*PerformanceReport) (*BatchPerformanceReport, error) {
	return arch.Aggregate(reports)
}

// Simulate runs a named descriptor model ("lenet", "vgg9", "vgg9-ca",
// "vgg16", "vgg13", "alexnet") through the architecture simulator at the
// accelerator's precision.
func (a *Accelerator) Simulate(model string) (*PerformanceReport, error) {
	layers, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	return arch.Simulate(model, layers, a.cfg.Precision.schedule(), a.params)
}

// SimulateLayers runs an arbitrary layer list through the simulator.
func (a *Accelerator) SimulateLayers(name string, layers []LayerDims) (*PerformanceReport, error) {
	return arch.Simulate(name, layers, a.cfg.Precision.schedule(), a.params)
}

// Models lists the built-in descriptor models.
func Models() []string {
	return []string{"lenet", "vgg9", "vgg9-ca", "vgg9-cifar100", "vgg13", "vgg16", "alexnet"}
}
