package oc

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"lightator/internal/sensor"
)

// -update regenerates the golden files from the current implementation.
// The committed files were generated by the pre-flat-layout (PR 1-4)
// implementation, so a passing run proves the optimized hot path is
// bit-identical to the original allocating one for fixed seeds.
var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// goldenFidelities names every fidelity the golden suite pins.
var goldenFidelities = []struct {
	name string
	fid  Fidelity
}{
	{"ideal", Ideal},
	{"physical", Physical},
	{"physical_noisy", PhysicalNoisy},
}

// goldenMatrix builds a deterministic 7x23 weight matrix: 23 columns span
// two full 9-tap arms plus a 5-tap tail, so segment boundaries and the
// partial last arm are all exercised.
func goldenMatrix() [][]float64 {
	rng := rand.New(rand.NewSource(20260729))
	w := make([][]float64, 7)
	for r := range w {
		w[r] = make([]float64, 23)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	return w
}

// goldenVector builds a deterministic activation vector of length n.
func goldenVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

// goldenFrame builds a deterministic 8x8 Bayer frame readout.
func goldenFrame() *sensor.Frame {
	rng := rand.New(rand.NewSource(9090))
	f := &sensor.Frame{Rows: 8, Cols: 8, Codes: make([]uint8, 64)}
	for i := range f.Codes {
		f.Codes[i] = uint8(rng.Intn(16))
	}
	return f
}

// ocGolden is the serialized pinned output set per fidelity. JSON float64
// round-trips are exact (shortest-form encoding), so comparisons are
// bit-level. The keys predate the single apply body: apply_seeded pins
// the one-shot ProgrammedMatrix.ApplySeededInto, apply_parallel the
// reused Applier (the former row-sharded apply, which produced the same
// bytes), and batch the vector-sharded Core.MatVecBatch.
type ocGolden struct {
	ApplySeeded   []float64   `json:"apply_seeded"`
	ApplyParallel []float64   `json:"apply_parallel"`
	Batch         [][]float64 `json:"batch"`
	Compressed    []float64   `json:"compressed"`
}

// checkGolden compares got against the golden file, or rewrites it under
// -update.
func checkGolden(t *testing.T, path string, got any) {
	t.Helper()
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatalf("marshal golden: %v", err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (regenerate with -update): %v", path, err)
	}
	var wantJSON, gotJSON any
	if err := json.Unmarshal(want, &wantJSON); err != nil {
		t.Fatalf("parse golden %s: %v", path, err)
	}
	if err := json.Unmarshal(raw, &gotJSON); err != nil {
		t.Fatalf("parse fresh output: %v", err)
	}
	wantNorm, _ := json.Marshal(wantJSON)
	gotNorm, _ := json.Marshal(gotJSON)
	if string(wantNorm) != string(gotNorm) {
		t.Fatalf("output diverged from golden %s\n got: %s\nwant: %s", path, gotNorm, wantNorm)
	}
}

// TestGoldenMVM pins the seeded MVM surface bit-for-bit in every fidelity:
// both ApplySeededInto entry points, MatVecBatch (2 workers) and the
// Acquisitor's CompressSeeded. The golden files were generated by the
// pre-optimization implementation, so this is the determinism-preservation
// proof for the flat-layout/pooled-noise hot path.
func TestGoldenMVM(t *testing.T) {
	w := goldenMatrix()
	for _, tc := range goldenFidelities {
		t.Run(tc.name, func(t *testing.T) {
			core, err := NewCore(4, 4, tc.fid)
			if err != nil {
				t.Fatal(err)
			}
			pm, err := core.Program(w)
			if err != nil {
				t.Fatal(err)
			}
			x := goldenVector(23, 4242)
			g := ocGolden{
				ApplySeeded:   applySeeded(t, pm, x, 0x5eed),
				ApplyParallel: make([]float64, pm.Rows()),
			}
			ap := pm.NewApplier()
			defer ap.Release()
			if err := ap.ApplySeededInto(g.ApplyParallel, x, 0x5eed); err != nil {
				t.Fatal(err)
			}
			xs := [][]float64{x, goldenVector(23, 777), goldenVector(23, 888)}
			if g.Batch, err = core.MatVecBatch(w, xs, 2, 0xabc); err != nil {
				t.Fatal(err)
			}
			ca, err := NewAcquisitor(core, 4)
			if err != nil {
				t.Fatal(err)
			}
			plane, err := ca.CompressSeeded(goldenFrame(), 0xcafe)
			if err != nil {
				t.Fatal(err)
			}
			g.Compressed = plane.Pix
			checkGolden(t, filepath.Join("testdata", "golden_mvm_"+tc.name+".json"), g)
		})
	}
}
