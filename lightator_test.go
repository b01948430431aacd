package lightator

import (
	"math"
	"slices"
	"sync"
	"testing"
)

func TestDefaultConfigBuilds(t *testing.T) {
	acc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if acc.Config().SensorRows != 256 || acc.Config().SensorCols != 256 {
		t.Error("default sensor not 256x256")
	}
}

func TestPrecisionNames(t *testing.T) {
	cases := []struct {
		name string
		p    Precision
		want string
	}{
		{"flagship", Precision{WBits: 4, ABits: 4}, "[4:4]"},
		{"reduced", Precision{WBits: 2, ABits: 4}, "[2:4]"},
		{"asymmetric", Precision{WBits: 3, ABits: 2}, "[3:2]"},
		{"mx", Precision{WBits: 3, ABits: 4, MXFirstWBits: 4}, "[4:4][3:4]"},
		{"mx-2bit-rest", Precision{WBits: 2, ABits: 4, MXFirstWBits: 4}, "[4:4][2:4]"},
		{"mx-equal-collapses", Precision{WBits: 4, ABits: 4, MXFirstWBits: 4}, "[4:4]"},
		{"zero-mx-is-uniform", Precision{WBits: 4, ABits: 4, MXFirstWBits: 0}, "[4:4]"},
	}
	for _, c := range cases {
		if got := c.p.Name(); got != c.want {
			t.Errorf("%s: Name() = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mod := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig(), true},
		{"ca disabled", mod(func(c *Config) { c.CAPool = 0 }), true},
		{"4x4 pooling", mod(func(c *Config) { c.CAPool = 4 }), true},
		{"paper 2-bit weights", mod(func(c *Config) { c.Precision.WBits = 2 }), true},
		{"zero wbits", mod(func(c *Config) { c.Precision.WBits = 0 }), false},
		{"negative wbits", mod(func(c *Config) { c.Precision.WBits = -3 }), false},
		{"oversized wbits", mod(func(c *Config) { c.Precision.WBits = 9 }), false},
		{"zero abits", mod(func(c *Config) { c.Precision.ABits = 0 }), false},
		{"negative abits", mod(func(c *Config) { c.Precision.ABits = -1 }), false},
		{"negative mx bits", mod(func(c *Config) { c.Precision.MXFirstWBits = -2 }), false},
		{"odd ca pool", mod(func(c *Config) { c.CAPool = 3 }), false},
		{"unit ca pool", mod(func(c *Config) { c.CAPool = 1 }), false},
		{"negative ca pool", mod(func(c *Config) { c.CAPool = -2 }), false},
		{"negative sensor", mod(func(c *Config) { c.SensorRows = -1 }), false},
		{"sensor not divisible by ca pool", mod(func(c *Config) { c.SensorRows, c.CAPool = 30, 4 }), false},
		{"default sensor not divisible by ca pool", mod(func(c *Config) { c.SensorRows, c.CAPool = 0, 6 }), false},
		{"invalid fault plan", mod(func(c *Config) {
			c.FaultPlan = &FaultPlan{Faults: []Fault{{Kind: "melted", Target: "ca"}}}
		}), false},
	}
	for _, c := range cases {
		_, err := New(c.cfg)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
		// validate alone refuses what New refuses, with the same text,
		// before New builds anything.
		if verr := c.cfg.validate(); (verr == nil) != (err == nil) || (err != nil && verr.Error() != err.Error()) {
			t.Errorf("%s: validate says %v, New says %v", c.name, verr, err)
		}
	}
}

func TestCapturePipeline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SensorRows, cfg.SensorCols = 16, 16
	acc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scene := NewImage(16, 16, 3)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			for c := 0; c < 3; c++ {
				scene.Set(y, x, c, float64(x)/15)
			}
		}
	}
	frame, err := acc.Capture(scene)
	if err != nil {
		t.Fatal(err)
	}
	if frame.CodeAt(0, 0) != 0 {
		t.Error("dark corner not code 0")
	}
	if frame.CodeAt(0, 15) != 15 {
		t.Error("bright corner not code 15")
	}
	small, err := acc.AcquireCompressed(scene)
	if err != nil {
		t.Fatal(err)
	}
	if small.H != 8 || small.W != 8 || small.C != 1 {
		t.Fatalf("compressed dims %dx%dx%d", small.H, small.W, small.C)
	}
	// Gradient preserved after compression.
	if small.At(0, 7, 0) <= small.At(0, 0, 0) {
		t.Error("compression destroyed the gradient")
	}
}

func TestAcquireCompressedDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CAPool = 0
	cfg.SensorRows, cfg.SensorCols = 8, 8
	acc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.AcquireCompressed(NewImage(8, 8, 3)); err == nil {
		t.Error("CA disabled but compression succeeded")
	}
}

func TestMatVecThroughFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fidelity = Ideal
	acc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := [][]float64{{1, -1, 0.5}, {-0.5, 0.25, 0.75}}
	x := []float64{1, 0.5, 0.25}
	y, err := acc.MatVec(w, x)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 2 {
		t.Fatalf("output length %d", len(y))
	}
	// Quantized ideal arithmetic tracks the float result within the
	// 4-bit budget.
	want0 := 1.0 - 0.5 + 0.5*0.25
	if math.Abs(y[0]-want0) > 0.2 {
		t.Errorf("y[0] = %g, want about %g", y[0], want0)
	}
	// The single-vector call is a one-vector MatVecBatch: its matrix
	// reports under the "mvm" health component.
	if componentHealth(acc, "mvm") == nil {
		t.Error("MatVec registered no mvm health component")
	}
}

// componentHealth returns the accelerator's health snapshot for label,
// or nil when no such component is registered.
func componentHealth(acc *Accelerator, label string) *ComponentHealth {
	for _, h := range acc.Health() {
		if h.Label == label {
			return &h
		}
	}
	return nil
}

func TestSimulateThroughFacade(t *testing.T) {
	acc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Models() {
		rep, err := acc.Simulate(m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if rep.FPS <= 0 || rep.MaxPower <= 0 {
			t.Errorf("%s: degenerate report", m)
		}
	}
	if _, err := acc.Simulate("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestRingReExport(t *testing.T) {
	r := WeightBankRing(CBandCenter)
	if r.QFactor(CBandCenter) < 1000 {
		t.Error("weight-bank ring Q too low through facade")
	}
}

func TestPrecisionValidationThroughNew(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Precision.WBits = 0
	if _, err := New(cfg); err == nil {
		t.Error("0-bit weights accepted")
	}
	cfg = DefaultConfig()
	cfg.CAPool = 3
	if _, err := New(cfg); err == nil {
		t.Error("odd CA pool accepted")
	}
}

// batchScenes builds deterministic per-frame-distinct RGB scenes.
func batchScenes(n, rows, cols int) []*Image {
	scenes := make([]*Image, n)
	for i := range scenes {
		s := NewImage(rows, cols, 3)
		for y := 0; y < rows; y++ {
			for x := 0; x < cols; x++ {
				for c := 0; c < 3; c++ {
					s.Set(y, x, c, float64((y*cols+x+i*37+c*11)%97)/96)
				}
			}
		}
		scenes[i] = s
	}
	return scenes
}

func smallAccelerator(t *testing.T, fid Fidelity) *Accelerator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SensorRows, cfg.SensorCols = 16, 16
	cfg.Fidelity = fid
	acc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestCaptureBatchMatchesSerial(t *testing.T) {
	acc := smallAccelerator(t, Physical)
	scenes := batchScenes(9, 16, 16)
	frames, err := acc.CaptureBatch(scenes, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scenes {
		want, err := acc.Capture(s)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Codes {
			if frames[i].Codes[j] != want.Codes[j] {
				t.Fatalf("frame %d code %d: batch %d != serial %d", i, j, frames[i].Codes[j], want.Codes[j])
			}
		}
	}
}

// TestCaptureConcurrentMatchesSerial captures from two goroutines on
// one accelerator at once, each with its own scene, and requires every
// frame to equal that scene's serial capture: the sensor keeps no state
// between captures for the goroutines to trample.
func TestCaptureConcurrentMatchesSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CAPool = 0 // capture only
	acc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scenes := batchScenes(2, cfg.SensorRows, cfg.SensorCols)
	want := make([]*Frame, len(scenes))
	for g, s := range scenes {
		if want[g], err = acc.Capture(s); err != nil {
			t.Fatal(err)
		}
	}
	const calls = 50
	diffs := make([]int, len(scenes))
	errs := make([]error, len(scenes))
	var wg sync.WaitGroup
	for g, s := range scenes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range calls {
				f, err := acc.Capture(s)
				if err != nil {
					errs[g] = err
					return
				}
				if !slices.Equal(f.Codes, want[g].Codes) {
					diffs[g]++
				}
			}
		}()
	}
	wg.Wait()
	for g := range scenes {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if diffs[g] != 0 {
			t.Errorf("goroutine %d: %d of %d concurrent frames differ from the serial capture", g, diffs[g], calls)
		}
	}
}

func TestAcquireCompressedBatchMatchesSerial(t *testing.T) {
	// The serial facade call is the one-scene batch, bit-for-bit in
	// every fidelity. Frame i of a larger batch draws frame i's seed, so
	// it matches the serial call where the seed cannot matter (noise-free
	// fidelities) or is the same (frame 0).
	for _, fid := range []Fidelity{Ideal, Physical, PhysicalNoisy} {
		acc := smallAccelerator(t, fid)
		scenes := batchScenes(5, 16, 16)
		batch, err := acc.AcquireCompressedBatch(scenes, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range scenes {
			want, err := acc.AcquireCompressed(s)
			if err != nil {
				t.Fatal(err)
			}
			one, err := acc.AcquireCompressedBatch([]*Image{s}, 4)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want.Pix {
				if one[0].Pix[j] != want.Pix[j] {
					t.Fatalf("%v frame %d pixel %d: one-scene batch %g != serial %g", fid, i, j, one[0].Pix[j], want.Pix[j])
				}
				if (fid != PhysicalNoisy || i == 0) && batch[i].Pix[j] != want.Pix[j] {
					t.Fatalf("%v frame %d pixel %d: batch %g != serial %g", fid, i, j, batch[i].Pix[j], want.Pix[j])
				}
			}
		}
	}

	// On a full-size sensor the serial call runs exactly the ABFT checks
	// the one-scene batch runs on the CA bank.
	acc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scene := batchScenes(1, acc.Config().SensorRows, acc.Config().SensorCols)[0]
	checks := func() int64 {
		if h := componentHealth(acc, "ca"); h != nil {
			return h.Checks
		}
		return 0
	}
	before := checks()
	if _, err := acc.AcquireCompressed(scene); err != nil {
		t.Fatal(err)
	}
	single := checks() - before
	if _, err := acc.AcquireCompressedBatch([]*Image{scene}, 1); err != nil {
		t.Fatal(err)
	}
	batch := checks() - before - single
	if single == 0 || single != batch {
		t.Fatalf("ca ABFT checks: AcquireCompressed +%d, one-scene batch +%d", single, batch)
	}
}

func TestAcquireCompressedBatchDeterministicNoisy(t *testing.T) {
	acc := smallAccelerator(t, PhysicalNoisy)
	scenes := batchScenes(6, 16, 16)
	a, err := acc.AcquireCompressedBatch(scenes, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := acc.AcquireCompressedBatch(scenes, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i].Pix {
			if a[i].Pix[j] != b[i].Pix[j] {
				t.Fatalf("noisy batch not scheduling-invariant: frame %d pixel %d", i, j)
			}
		}
	}
}

func TestMatVecBatchThroughFacade(t *testing.T) {
	acc := smallAccelerator(t, Ideal)
	w := [][]float64{{1, -1, 0.5}, {-0.5, 0.25, 0.75}}
	xs := [][]float64{{1, 0.5, 0.25}, {0.25, 1, 0}, {0, 0, 1}}
	ys, err := acc.MatVecBatch(w, xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want, err := acc.MatVec(w, x)
		if err != nil {
			t.Fatal(err)
		}
		for r := range want {
			if ys[i][r] != want[r] {
				t.Fatalf("frame %d row %d: batch %g != serial %g", i, r, ys[i][r], want[r])
			}
		}
	}
}

func TestPipelineThroughFacade(t *testing.T) {
	acc := smallAccelerator(t, PhysicalNoisy)
	weights := make([][]float64, 3)
	for r := range weights {
		weights[r] = make([]float64, 64) // (16/2)*(16/2) CA outputs
		for c := range weights[r] {
			weights[r][c] = float64((r+c)%5)/4 - 0.5
		}
	}
	p, err := acc.NewPipeline(PipelineOptions{Workers: 4, Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	scenes := batchScenes(8, 16, 16)
	results, stats, err := p.Run(scenes)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 || stats.Frames != 8 || stats.FPS <= 0 {
		t.Fatalf("degenerate run: %d results, %+v", len(results), stats)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("frame %d: %v", i, r.Err)
		}
		if r.Index != i || r.Frame == nil || r.Compressed == nil || len(r.Output) != 3 {
			t.Fatalf("frame %d: incomplete result", i)
		}
	}
}

func TestAggregateReportsThroughFacade(t *testing.T) {
	acc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acc.Simulate("lenet")
	if err != nil {
		t.Fatal(err)
	}
	b, err := AggregateReports([]*PerformanceReport{rep, rep})
	if err != nil {
		t.Fatal(err)
	}
	if b.Frames != 2 || b.BatchFPS <= 0 {
		t.Errorf("degenerate batch report %+v", b)
	}
}

func TestKernelsRegistryThroughFacade(t *testing.T) {
	acc := smallAccelerator(t, Physical)
	names := acc.Kernels()
	if len(names) == 0 {
		t.Fatal("no registered kernels on a CA-enabled accelerator")
	}
	for _, name := range names {
		desc, err := acc.KernelDescription(name)
		if err != nil || desc == "" {
			t.Errorf("kernel %s: description %q, err %v", name, desc, err)
		}
	}
	// CA disabled: the kernel surface reports the same disabled error as
	// AcquireCompressed.
	cfg := DefaultConfig()
	cfg.SensorRows, cfg.SensorCols, cfg.CAPool = 16, 16, 0
	noCA, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := noCA.Kernels(); got != nil {
		t.Errorf("CA-disabled Kernels() = %v, want nil", got)
	}
	if _, err := noCA.ProcessCompressed(batchScenes(1, 16, 16)[0], "edge"); err == nil {
		t.Error("CA-disabled ProcessCompressed succeeded")
	}
}

// TestProcessCompressedBatchDeterministic pins the batched kernel path's
// scheduling invariance in PhysicalNoisy fidelity, and that the batch's
// frame 0 equals the single-scene ProcessCompressed call (both are
// seeded from (Config.Seed, 0)).
func TestProcessCompressedBatchDeterministic(t *testing.T) {
	acc := smallAccelerator(t, PhysicalNoisy)
	scenes := batchScenes(4, 16, 16)
	a, err := acc.ProcessCompressedBatch(scenes, "edge", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := acc.ProcessCompressedBatch(scenes, "edge", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i].Pix {
			if a[i].Pix[j] != b[i].Pix[j] {
				t.Fatalf("noisy kernel batch not scheduling-invariant: frame %d pixel %d", i, j)
			}
		}
	}
	single, err := acc.ProcessCompressed(scenes[0], "edge")
	if err != nil {
		t.Fatal(err)
	}
	for j := range single.Pix {
		if a[0].Pix[j] != single.Pix[j] {
			t.Fatalf("batch frame 0 differs from ProcessCompressed at pixel %d", j)
		}
	}
	if _, err := acc.ProcessCompressed(scenes[0], "nope"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestProcessCompressedShapes checks each built-in kernel's output
// geometry on the 16x16 sensor with 2x2 CA (an 8x8 compressed plane).
func TestProcessCompressedShapes(t *testing.T) {
	acc := smallAccelerator(t, Ideal)
	scene := batchScenes(1, 16, 16)[0]
	want := map[string][2]int{
		"reconstruct":      {16, 16},
		"reconstruct-iter": {16, 16},
		"edge":             {8, 8},
		"denoise":          {8, 8},
		"sharpen":          {8, 8},
		"downsample2x":     {4, 4},
	}
	for name, dims := range want {
		out, err := acc.ProcessCompressed(scene, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.H != dims[0] || out.W != dims[1] {
			t.Errorf("%s: output %dx%d, want %dx%d", name, out.H, out.W, dims[0], dims[1])
		}
	}
}
