package kernels_test

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lightator/internal/kernels"
	"lightator/internal/oc"
	"lightator/internal/sensor"
)

// builtinTol is the single source of truth for the built-in kernel set
// and each kernel's optical-vs-reference tolerance. It is checked in
// BOTH directions: TestEngineRegistry fails when the engine registers a
// kernel with no entry here (a new kernel cannot silently ship without a
// tolerance, i.e. untested), and when an entry names a kernel the engine
// no longer registers. Bounds sit ~2x above the measured 8-bit
// quantization error (flat across CR thanks to the full-scale weight
// normalisation); a scale or seeding regression trips them immediately.
var builtinTol = map[string]float64{
	"reconstruct":    0.01,
	"reconstruct-cg": 0.015,
	"edge":           0.12,
	"sharpen":        0.1,
	"denoise":        0.01,
	"downsample2x":   0.005,
}

// builtinNames returns the expected registry contents, derived from the
// tolerance table so the two can never drift apart.
func builtinNames() []string {
	names := make([]string, 0, len(builtinTol))
	for name := range builtinTol {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// newCore builds a core or fails the test.
func newCore(t *testing.T, wBits, aBits int, fid oc.Fidelity) *oc.Core {
	t.Helper()
	core, err := oc.NewCore(wBits, aBits, fid)
	if err != nil {
		t.Fatal(err)
	}
	return core
}

// caPlane produces a compressed plane end-to-end: a deterministic RGB
// scene captured by the ADC-less sensor and compressed by the CA at the
// given pooling factor — the exact provenance the kernels consume in the
// pipeline.
func caPlane(t *testing.T, core *oc.Core, rows, cols, pool int, seed int64) *sensor.Image {
	t.Helper()
	arr, err := sensor.NewArray(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	scene := sensor.NewImage(rows, cols, 3)
	for i := range scene.Pix {
		scene.Pix[i] = rng.Float64()
	}
	frame, err := arr.Capture(scene)
	if err != nil {
		t.Fatal(err)
	}
	acq, err := oc.NewAcquisitor(core, pool)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := acq.CompressSeeded(frame, seed)
	if err != nil {
		t.Fatal(err)
	}
	return plane
}

// synthPlane builds a direct synthetic compressed plane in [0,1].
func synthPlane(h, w int, seed int64) *sensor.Image {
	rng := rand.New(rand.NewSource(seed))
	p := sensor.NewImage(h, w, 1)
	for i := range p.Pix {
		p.Pix[i] = rng.Float64()
	}
	return p
}

// maxAbsDiff returns the largest per-sample difference, failing on any
// dimension mismatch.
func maxAbsDiff(t *testing.T, a, b *sensor.Image) float64 {
	t.Helper()
	if a.H != b.H || a.W != b.W || a.C != b.C {
		t.Fatalf("dims differ: %dx%dx%d vs %dx%dx%d", a.H, a.W, a.C, b.H, b.W, b.C)
	}
	max := 0.0
	for i := range a.Pix {
		if d := math.Abs(a.Pix[i] - b.Pix[i]); d > max {
			max = d
		}
	}
	return max
}

// TestKernelsMatchReference is the satellite acceptance test: every
// registered kernel's compressed-domain (optical) output matches its
// exact dense-arithmetic reference within tolerance, at compression
// ratios CAPool ∈ {4, 8, 16}, on planes produced by the real CA path.
// The core runs 8-bit Ideal so the tolerance isolates quantization from
// analog effects; the full-scale weight normalisation keeps the error
// CR-independent (without it the CA adjoint's 1/N² entries would drown
// in weight quantization at CR 16).
func TestKernelsMatchReference(t *testing.T) {
	core := newCore(t, 8, 8, oc.Ideal)
	for _, pool := range []int{4, 8, 16} {
		eng, err := kernels.NewEngine(core, pool)
		if err != nil {
			t.Fatal(err)
		}
		plane := caPlane(t, core, 64, 64, pool, int64(1000+pool))
		for _, name := range eng.Names() {
			bound, ok := builtinTol[name]
			if !ok {
				t.Fatalf("kernel %q has no tolerance entry in builtinTol; every registered kernel must be covered", name)
			}
			k, err := eng.Kernel(name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.Apply(plane, 42, 1)
			if err != nil {
				t.Fatalf("pool %d %s: %v", pool, name, err)
			}
			want, err := k.Reference(plane)
			if err != nil {
				t.Fatalf("pool %d %s reference: %v", pool, name, err)
			}
			wantH, wantW, err := k.OutDims(plane.H, plane.W)
			if err != nil {
				t.Fatalf("pool %d %s: %v", pool, name, err)
			}
			if got.H != wantH || got.W != wantW {
				t.Fatalf("pool %d %s: output %dx%d, OutDims says %dx%d", pool, name, got.H, got.W, wantH, wantW)
			}
			if d := maxAbsDiff(t, got, want); d > bound {
				t.Errorf("pool %d (CR %d): kernel %s diverges from dense reference: max |diff| = %g > %g",
					pool, pool, name, d, bound)
			}
		}
	}
}

// TestReconstructLeastSquares pins the defining least-squares property:
// re-compressing the reconstruction recovers the measurements, Φ x̂ = y
// (exactly for the reference, within quantization for the optical path).
func TestReconstructLeastSquares(t *testing.T) {
	const pool = 4
	core := newCore(t, 8, 8, oc.Ideal)
	rec, err := kernels.NewReconstruct(core, pool)
	if err != nil {
		t.Fatal(err)
	}
	w, err := oc.CAWeightsBayer(pool)
	if err != nil {
		t.Fatal(err)
	}
	plane := synthPlane(8, 8, 5)
	recompress := func(x *sensor.Image) *sensor.Image {
		out := sensor.NewImage(x.H/pool, x.W/pool, 1)
		for oy := 0; oy < out.H; oy++ {
			for ox := 0; ox < out.W; ox++ {
				sum, i := 0.0, 0
				for dy := 0; dy < pool; dy++ {
					for dx := 0; dx < pool; dx++ {
						sum += w[i] * x.Pix[(oy*pool+dy)*x.W+ox*pool+dx]
						i++
					}
				}
				out.Pix[oy*out.W+ox] = sum
			}
		}
		return out
	}
	ref, err := rec.Reference(plane)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, recompress(ref), plane); d > 1e-12 {
		t.Errorf("reference reconstruction is not a least-squares inverse: Φx̂ vs y max |diff| = %g", d)
	}
	opt, err := rec.Apply(plane, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, recompress(opt), plane); d > 0.02 {
		t.Errorf("optical reconstruction re-compression error %g > 0.02", d)
	}
}

// TestSeededDeterminism is the package determinism contract under the
// race detector: in PhysicalNoisy fidelity, Apply(plane, seed, workers)
// is bit-identical across worker counts and repeated calls, and a
// different seed produces different noise.
func TestSeededDeterminism(t *testing.T) {
	core := newCore(t, 4, 4, oc.PhysicalNoisy)
	eng, err := kernels.NewEngine(core, 4)
	if err != nil {
		t.Fatal(err)
	}
	plane := synthPlane(8, 8, 3)
	for _, name := range eng.Names() {
		k, err := eng.Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := k.Apply(plane, 77, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		parallel, err := k.Apply(plane, 77, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := maxAbsDiff(t, serial, parallel); d != 0 {
			t.Errorf("%s: 4-worker output differs from serial by %g; must be bit-identical", name, d)
		}
		again, err := k.Apply(plane, 77, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := maxAbsDiff(t, serial, again); d != 0 {
			t.Errorf("%s: repeated call differs by %g; must be bit-identical", name, d)
		}
		other, err := k.Apply(plane, 78, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := maxAbsDiff(t, serial, other); d == 0 {
			t.Errorf("%s: seed change left the noisy output unchanged", name)
		}
	}
}

// TestEngineRegistry pins registry semantics: sorted names, unknown
// lookups, and duplicate registration.
func TestEngineRegistry(t *testing.T) {
	core := newCore(t, 4, 4, oc.Ideal)
	eng, err := kernels.NewEngine(core, 2)
	if err != nil {
		t.Fatal(err)
	}
	names := eng.Names()
	want := builtinNames()
	if len(names) != len(want) {
		t.Fatalf("registered kernels %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registered kernels %v, want %v", names, want)
		}
	}
	if _, err := eng.Kernel("nope"); err == nil {
		t.Error("unknown kernel lookup succeeded")
	}
	k, err := eng.Kernel("edge")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(k); err == nil {
		t.Error("duplicate registration succeeded")
	}
	custom, err := kernels.NewBlockConv(core, "boxblur", "3x3 box blur",
		[][]float64{{1. / 9, 1. / 9, 1. / 9}, {1. / 9, 1. / 9, 1. / 9}, {1. / 9, 1. / 9, 1. / 9}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(custom); err != nil {
		t.Fatal(err)
	}
	if k, err := eng.Kernel("boxblur"); err != nil {
		t.Error(err)
	} else if _, err := k.Apply(synthPlane(4, 4, 1), 0, 1); err != nil {
		t.Errorf("custom kernel Apply: %v", err)
	}
}

// TestValidation pins the constructor and input error paths.
func TestValidation(t *testing.T) {
	core := newCore(t, 4, 4, oc.Ideal)
	if _, err := kernels.NewBlockConv(core, "ragged", "", [][]float64{{1, 2}, {3}}, 1, 0); err == nil {
		t.Error("ragged convolution kernel accepted")
	}
	if _, err := kernels.NewBlockConv(core, "empty", "", nil, 1, 0); err == nil {
		t.Error("empty convolution kernel accepted")
	}
	if _, err := kernels.NewBlockConv(core, "zero", "", [][]float64{{0}}, 1, 0); err == nil {
		t.Error("all-zero operator accepted")
	}
	if _, err := kernels.NewReconstruct(core, 3); err == nil {
		t.Error("odd pooling factor accepted")
	}
	edge, err := kernels.NewBlockConv(core, "edge", "", [][]float64{{0, -1, 0}, {-1, 4, -1}, {0, -1, 0}}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2x2 plane, 3x3 window, no padding: too small.
	if _, err := edge.Apply(synthPlane(2, 2, 1), 0, 1); err == nil {
		t.Error("undersized plane accepted")
	}
	rgb := sensor.NewImage(4, 4, 3)
	if _, err := edge.Apply(rgb, 0, 1); err == nil {
		t.Error("3-channel input accepted")
	}
	// Custom kernels with entries beyond [-1,1] must normalise + rescale.
	big, err := kernels.NewBlockConv(core, "big", "", [][]float64{{-3, 3}, {3, -3}}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	plane := synthPlane(4, 4, 2)
	got, err := big.Apply(plane, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := big.Reference(plane)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, got, want); d > 1.2 {
		t.Errorf("out-of-range kernel rescaling off: max |diff| = %g", d)
	}
}

// TestAliasesResolveToReconstruct: each alias resolves to the very
// operator object registered as reconstruct, is not listed by Names,
// describes itself by its target, and cannot be registered over.
func TestAliasesResolveToReconstruct(t *testing.T) {
	core := newCore(t, 4, 4, oc.Ideal)
	eng, err := kernels.NewEngine(core, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Kernel("reconstruct")
	if err != nil {
		t.Fatal(err)
	}
	aliases := kernels.Aliases()
	if want := []string{"reconstruct-direct", "reconstruct-iter"}; !slices.Equal(aliases, want) {
		t.Fatalf("Aliases() = %v, want %v", aliases, want)
	}
	for _, alias := range aliases {
		k, err := eng.Kernel(alias)
		if err != nil {
			t.Fatal(err)
		}
		if k != rec {
			t.Errorf("Kernel(%q) is not the reconstruct operator", alias)
		}
		if got := kernels.Canonical(alias); got != "reconstruct" {
			t.Errorf("Canonical(%q) = %q, want reconstruct", alias, got)
		}
		desc, err := eng.Description(alias)
		if err != nil {
			t.Fatal(err)
		}
		if want := "alias of reconstruct: " + rec.Description(); desc != want {
			t.Errorf("Description(%q) = %q, want %q", alias, desc, want)
		}
		if slices.Contains(eng.Names(), alias) {
			t.Errorf("Names() lists alias %q", alias)
		}
		shadow, err := kernels.NewBlockConv(core, alias, "", [][]float64{{1}}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Register(shadow); err == nil {
			t.Errorf("Register accepted a kernel named after alias %q", alias)
		}
	}
	if got := kernels.Canonical("edge"); got != "edge" {
		t.Errorf("Canonical(edge) = %q", got)
	}
}
