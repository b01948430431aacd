package lightator_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"lightator"
	"lightator/internal/dataset"
	"lightator/internal/experiments"
	"lightator/internal/infer"
	"lightator/internal/kernels"
	"lightator/internal/mapping"
	"lightator/internal/models"
	"lightator/internal/nn"
	"lightator/internal/oc"
	"lightator/internal/photonics"
	"lightator/internal/sensor"
	"lightator/internal/train"
)

// ---------------------------------------------------------------------------
// Device-level micro-benchmarks (E1 support).

// BenchmarkMRTransmission measures one add-drop transfer evaluation — the
// innermost operation of the exact photonic model (Fig. 1).
func BenchmarkMRTransmission(b *testing.B) {
	r := photonics.WeightBankRing(photonics.CBandCenter)
	lam := photonics.CBandCenter + 0.3e-9
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.ThroughTransmission(lam)
	}
	_ = sink
}

// BenchmarkSolveWeight measures programming one MR to a target weight
// (bisection over the detuning).
func BenchmarkSolveWeight(b *testing.B) {
	r := photonics.WeightBankRing(photonics.CBandCenter)
	for i := 0; i < b.N; i++ {
		if _, err := r.SolveWeight(photonics.CBandCenter, 0.42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBankModelCoefficients measures the quantized fast path: the
// 9-channel crosstalk-aware coefficients of one programmed arm.
func BenchmarkBankModelCoefficients(b *testing.B) {
	bm, err := photonics.NewBankModel(9, 4)
	if err != nil {
		b.Fatal(err)
	}
	levels := []int{0, 3, 7, 8, 11, 15, 5, 9, 12}
	coeffs := make([]float64, len(levels))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bm.Coefficients(coeffs, levels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOCMatVec measures one 64x81 photonic matrix-vector multiply
// through the physical (crosstalk) model, programming included.
func BenchmarkOCMatVec(b *testing.B) {
	core, err := oc.NewCore(4, 4, oc.Physical)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	w := make([][]float64, 64)
	for r := range w {
		w[r] = make([]float64, 81)
		for i := range w[r] {
			w[r][i] = rng.Float64()*2 - 1
		}
	}
	x := make([]float64, 81)
	for i := range x {
		x[i] = rng.Float64()
	}
	xs := [][]float64{x}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MatVecBatch(w, xs, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensorCapture measures a full 256x256 ADC-less frame capture
// (mosaic, exposure, 983k comparator evaluations).
func BenchmarkSensorCapture(b *testing.B) {
	arr := sensor.Default()
	scene := sensor.NewImage(256, 256, 3)
	rng := rand.New(rand.NewSource(2))
	for i := range scene.Pix {
		scene.Pix[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arr.Capture(scene); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCACompress measures the Compressive Acquisitor: a 256x256
// frame fused to 128x128 grayscale through the optical path (E4 support).
func BenchmarkCACompress(b *testing.B) {
	acc, err := lightator.New(lightator.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	scene := lightator.NewImage(256, 256, 3)
	rng := rand.New(rand.NewSource(3))
	for i := range scene.Pix {
		scene.Pix[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acc.AcquireCompressed(scene); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhotonicLeNetForward measures one LeNet inference through the
// compiled photonic executor (crosstalk fidelity) — the end-to-end MVM
// path of Fig. 5.
func BenchmarkPhotonicLeNetForward(b *testing.B) {
	net := models.BuildLeNet(10, 4)
	net.InitHe(4)
	// Calibrate activation scales.
	rng := rand.New(rand.NewSource(5))
	x := nn.NewTensor(2, 1, 28, 28)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	if _, err := net.Forward(x, true); err != nil {
		b.Fatal(err)
	}
	nn.FreezeActQuant(net, true)
	nn.EnableQAT(net, 4)
	pe, err := nn.NewPhotonicExec(net, 4, oc.Physical)
	if err != nil {
		b.Fatal(err)
	}
	one := nn.NewTensor(1, 1, 28, 28)
	for i := range one.Data {
		one.Data[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pe.Forward(one); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainingEpoch measures one LeNet training epoch on synthetic
// digits (the application level of the evaluation framework, Fig. 7).
func BenchmarkTrainingEpoch(b *testing.B) {
	ds := dataset.NewDigits(256, 9)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := models.BuildLeNet(10, 4)
		net.InitHe(int64(i))
		cfg := train.DefaultConfig()
		cfg.Epochs = 1
		cfg.QATEpochs = 0
		cfg.Workers = 8
		b.StartTimer()
		if _, err := train.Train(net, ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// One benchmark per paper table/figure (DESIGN.md §3). The heavy ones
// memoise through the experiments engine, so iterations after the first
// are cheap.

// BenchmarkFig8LeNetPower regenerates Fig. 8 (E3) and reports the paper's
// headline: the [3:4] max power in watts.
func BenchmarkFig8LeNetPower(b *testing.B) {
	var maxP float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		maxP = res.Reports[1].MaxPower
	}
	b.ReportMetric(maxP, "maxPowerW[3:4]")
}

// BenchmarkFig9VGG9Power regenerates Fig. 9 (E4, E9) and reports the CA
// first-layer reduction percentage.
func BenchmarkFig9VGG9Power(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		red = res.L1Reduction * 100
	}
	b.ReportMetric(red, "L1reduction%")
}

// BenchmarkFig10ExecTime regenerates Fig. 10 (E6) and reports Lightator's
// AlexNet latency in ms.
func BenchmarkFig10ExecTime(b *testing.B) {
	var ms float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range res.Entries {
			if e.Design == "Lightator" {
				ms = e.AlexNet * 1e3
			}
		}
	}
	b.ReportMetric(ms, "alexnet-ms")
}

// BenchmarkTable1Comparison regenerates Table 1 (E5, E8, E10) at the
// Smoke training profile (the quick/full profiles are for
// cmd/lightator-bench). First iteration trains every configuration; the
// engine memoises afterwards.
func BenchmarkTable1Comparison(b *testing.B) {
	opt := experiments.Options{Profile: experiments.Smoke, Seed: 7, Workers: 8}
	var gpuReduction float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(opt)
		if err != nil {
			b.Fatal(err)
		}
		gpuReduction = res.PowerReductionGPU
	}
	b.ReportMetric(gpuReduction, "powerReductionVsGPU")
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md A1-A5).

// BenchmarkAblationCompressiveAcquisition (A1): CA on/off.
func BenchmarkAblationCompressiveAcquisition(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationCA()
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.SpeedUp
	}
	b.ReportMetric(speedup, "frameSpeedup")
}

// BenchmarkAblationKernelMapping (A2): per-kernel-size MR utilisation.
func BenchmarkAblationKernelMapping(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationKernelMapping()
		if err != nil {
			b.Fatal(err)
		}
		util = rows[6].MRUtilisation // 7x7 kernel
	}
	b.ReportMetric(util*100, "7x7-utilisation%")
}

// BenchmarkAblationCrosstalkNoise (A3): accuracy across analog
// fidelities (trains one Smoke-profile LeNet on first iteration).
func BenchmarkAblationCrosstalkNoise(b *testing.B) {
	opt := experiments.Options{Profile: experiments.Smoke, Seed: 7, Workers: 8}
	var drop float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationFidelity(opt)
		if err != nil {
			b.Fatal(err)
		}
		drop = (res.Ideal - res.PhysicalNoisy) * 100
	}
	b.ReportMetric(drop, "accDropCrosstalk+Noise-pts")
}

// BenchmarkAblationActivationModulation (A4): DMVA vs activation MRs.
func BenchmarkAblationActivationModulation(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		factor = experiments.AblationActivationModulation().Factor
	}
	b.ReportMetric(factor, "activationMR-overhead-x")
}

// BenchmarkAblationRemapLatency (A5): PIN vs thermal tuning.
func BenchmarkAblationRemapLatency(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationRemapLatency("alexnet")
		if err != nil {
			b.Fatal(err)
		}
		slowdown = res.Slowdown
	}
	b.ReportMetric(slowdown, "thermal-slowdown-x")
}

// BenchmarkScheduleLayer measures the hardware mapper on a deep VGG
// layer.
func BenchmarkScheduleLayer(b *testing.B) {
	d := mapping.LayerDims{Kind: mapping.Conv, Name: "c", InC: 512, OutC: 512, K: 3, Stride: 1, Pad: 1, InH: 14, InW: 14}
	for i := 0; i < b.N; i++ {
		if _, err := mapping.ScheduleLayer(d); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Batched / concurrent path benchmarks. Every sub-benchmark reports
// frames/sec so successive PRs have a throughput trajectory to compare
// against. Worker sweeps cover {1, 2, 4, NumCPU}, batches {1, 16, 64}.

// benchWorkerCounts is the deduplicated worker sweep.
func benchWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

var benchBatchSizes = []int{1, 16, 64}

// BenchmarkMatVecBatch measures the batched MVM path: a 512x243 weight
// matrix programmed once (MR tuning is the slow, amortised step), then
// activation frames streamed through with the frames sharded across
// workers, one Applier per shard — the oc.MatVecBatch vector-sharding
// model.
func BenchmarkMatVecBatch(b *testing.B) {
	core, err := oc.NewCore(4, 4, oc.Physical)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	w := make([][]float64, 512)
	for r := range w {
		w[r] = make([]float64, 243)
		for i := range w[r] {
			w[r][i] = rng.Float64()*2 - 1
		}
	}
	pm, err := core.Program(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range benchWorkerCounts() {
		for _, batch := range benchBatchSizes {
			xs := make([][]float64, batch)
			for i := range xs {
				xs[i] = make([]float64, 243)
				for j := range xs[i] {
					xs[i][j] = rng.Float64()
				}
			}
			b.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(b *testing.B) {
				ys := make([][]float64, batch)
				for f := range ys {
					ys[f] = make([]float64, pm.Rows())
				}
				for i := 0; i < b.N; i++ {
					err := oc.ShardRange(batch, workers, func(lo, hi int) error {
						ap := pm.NewApplier()
						defer ap.Release()
						for f := lo; f < hi; f++ {
							if err := ap.ApplySeededInto(ys[f], xs[f], oc.DeriveSeed(3, f)); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "frames/sec")
			})
		}
	}
}

// BenchmarkPipeline measures the end-to-end concurrent frame pipeline
// (capture + compressive acquisition) on a 64x64 sensor.
func BenchmarkPipeline(b *testing.B) {
	cfg := lightator.DefaultConfig()
	cfg.SensorRows, cfg.SensorCols = 64, 64
	acc, err := lightator.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for _, workers := range benchWorkerCounts() {
		for _, batch := range benchBatchSizes {
			scenes := make([]*lightator.Image, batch)
			for i := range scenes {
				s := lightator.NewImage(64, 64, 3)
				for j := range s.Pix {
					s.Pix[j] = rng.Float64()
				}
				scenes[i] = s
			}
			b.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(b *testing.B) {
				p, err := acc.NewPipeline(lightator.PipelineOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := p.Run(scenes); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "frames/sec")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation-free MVM hot path. Run with -benchmem: the *Into
// benchmarks report the 0 allocs/op steady-state contract that the
// AllocFree/ZeroAlloc tests pin (docs/PERF.md).

// benchProgrammed programs a deterministic 64x243 matrix (27 arms/row).
func benchProgrammed(b *testing.B, fid oc.Fidelity) *oc.ProgrammedMatrix {
	b.Helper()
	core, err := oc.NewCore(4, 4, fid)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	w := make([][]float64, 64)
	for r := range w {
		w[r] = make([]float64, 243)
		for i := range w[r] {
			w[r][i] = rng.Float64()*2 - 1
		}
	}
	pm, err := core.Program(w)
	if err != nil {
		b.Fatal(err)
	}
	return pm
}

// BenchmarkApplySeededInto measures the steady-state destination-passing
// MVM — the path every kernel window, im2col patch and CA window funnels
// through. Expect 0 allocs/op in both fidelities.
func BenchmarkApplySeededInto(b *testing.B) {
	for _, tc := range []struct {
		name string
		fid  oc.Fidelity
	}{{"ideal", oc.Ideal}, {"physical-noisy", oc.PhysicalNoisy}} {
		b.Run(tc.name, func(b *testing.B) {
			pm := benchProgrammed(b, tc.fid)
			rng := rand.New(rand.NewSource(3))
			x := make([]float64, pm.Cols())
			for i := range x {
				x[i] = rng.Float64()
			}
			y := make([]float64, pm.Rows())
			if err := pm.ApplySeededInto(y, x, 1); err != nil { // warm the pools
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pm.ApplySeededInto(y, x, oc.DeriveSeed(3, i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApplierSeededInto measures the reusable-scratch variant tight
// loops use (one Applier per goroutine, no pool round-trips).
func BenchmarkApplierSeededInto(b *testing.B) {
	for _, tc := range []struct {
		name string
		fid  oc.Fidelity
	}{{"ideal", oc.Ideal}, {"physical-noisy", oc.PhysicalNoisy}} {
		b.Run(tc.name, func(b *testing.B) {
			pm := benchProgrammed(b, tc.fid)
			ap := pm.NewApplier()
			rng := rand.New(rand.NewSource(3))
			x := make([]float64, pm.Cols())
			for i := range x {
				x[i] = rng.Float64()
			}
			y := make([]float64, pm.Rows())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ap.ApplySeededInto(y, x, oc.DeriveSeed(3, i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompressSeeded measures one seeded CA pass over a full 256x256
// frame — the per-frame pipeline stage (4096 windows of 16 taps).
func BenchmarkCompressSeeded(b *testing.B) {
	core, err := oc.NewCore(4, 4, oc.Ideal)
	if err != nil {
		b.Fatal(err)
	}
	ca, err := oc.NewAcquisitor(core, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	f := &sensor.Frame{Rows: 256, Cols: 256, Codes: make([]uint8, 256*256)}
	for i := range f.Codes {
		f.Codes[i] = uint8(rng.Intn(16))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.CompressSeeded(f, oc.DeriveSeed(5, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelApply measures the streamed compressed-domain window
// walk over a 64x64 CA plane (the /v1/process hot path).
func BenchmarkKernelApply(b *testing.B) {
	core, err := oc.NewCore(4, 4, oc.Ideal)
	if err != nil {
		b.Fatal(err)
	}
	e, err := kernels.NewEngine(core, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	plane := sensor.NewImage(64, 64, 1)
	for i := range plane.Pix {
		plane.Pix[i] = rng.Float64()
	}
	for _, name := range e.Names() {
		k, err := e.Kernel(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := k.Apply(plane, oc.DeriveSeed(7, i), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInferApply measures one compressed-domain inference pass (the
// /v1/infer hot path, streamed im2col) over a 64x64 CA plane in Ideal
// fidelity (<model>) and over the plane lightator-serve runs by default
// (served/<model>: DefaultConfig's 128x128 plane, Physical fidelity,
// DefaultConfig's seed), one worker each.
func BenchmarkInferApply(b *testing.B) {
	cfg := lightator.DefaultConfig()
	for _, c := range []struct {
		prefix      string
		fid         oc.Fidelity
		poolN, h, w int
		seed        int64
	}{
		{"", oc.Ideal, 4, 64, 64, 7},
		{"served/", oc.Physical, cfg.CAPool, cfg.SensorRows / cfg.CAPool, cfg.SensorCols / cfg.CAPool, cfg.Seed},
	} {
		core, err := oc.NewCore(cfg.Precision.WBits, cfg.Precision.ABits, c.fid)
		if err != nil {
			b.Fatal(err)
		}
		e, err := infer.NewEngine(core, c.poolN, c.h, c.w, c.seed)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		plane := sensor.NewImage(c.h, c.w, 1)
		for i := range plane.Pix {
			plane.Pix[i] = rng.Float64()
		}
		for _, name := range e.Names() {
			m, err := e.Model(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(c.prefix+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := m.Apply(plane, oc.DeriveSeed(9, i), 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkNewServer measures the work lightator-serve does before
// /readyz answers, at DefaultConfig, one phase per sub-benchmark: New
// (sensor, CA, kernel and model programming plus the built-ins'
// calibration) and NewServer with 2 workers over a fresh accelerator
// built outside the timer (the pipelines and the agreement sweep behind
// every model's reference_agreement). Run with -benchmem for bytes and
// allocations per construction.
func BenchmarkNewServer(b *testing.B) {
	b.Run("New", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lightator.New(lightator.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NewServer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			acc, err := lightator.New(lightator.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			srv, err := acc.NewServer(lightator.ServeOptions{Workers: 2})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := srv.Drain(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkInferReference measures the exact digital reference of each
// built-in model over a 128x128 CA plane (DefaultConfig's compressed
// plane): the quantized network the agreement sweep compares every
// optical pass against.
func BenchmarkInferReference(b *testing.B) {
	core, err := oc.NewCore(4, 4, oc.Ideal)
	if err != nil {
		b.Fatal(err)
	}
	e, err := infer.NewEngine(core, 2, 128, 128, 7)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	plane := sensor.NewImage(128, 128, 1)
	for i := range plane.Pix {
		plane.Pix[i] = rng.Float64()
	}
	for _, name := range []string{"tiny-cnn", "tiny-mlp"} {
		m, err := e.Model(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Reference(plane); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
