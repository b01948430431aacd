package kernels

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"lightator/internal/oc"
	"lightator/internal/sensor"
)

// -update regenerates the golden files. The committed files were generated
// by the pre-flat-layout (PR 1-4) kernel path, so a passing run proves the
// streamed window walk is bit-identical to the materialized one.
var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

var goldenFidelities = []struct {
	name string
	fid  oc.Fidelity
}{
	{"ideal", oc.Ideal},
	{"physical", oc.Physical},
	{"physical_noisy", oc.PhysicalNoisy},
}

// goldenPlane builds a deterministic 6x6 compressed plane in [0, 1].
func goldenPlane() *sensor.Image {
	rng := rand.New(rand.NewSource(31337))
	img := sensor.NewImage(6, 6, 1)
	for i := range img.Pix {
		img.Pix[i] = rng.Float64()
	}
	return img
}

// checkGolden compares got against the golden file, or rewrites it under
// -update. JSON float64 round-trips are exact, so comparison is bit-level.
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
		t.Fatalf("output diverged from golden %s", path)
	}
}

// TestGoldenKernels pins every built-in kernel's Apply output bit-for-bit
// in every fidelity, for two worker counts (the contract makes the worker
// count unobservable, and the goldens prove the optimized walk preserved
// that). The reconstruct-direct entries were recorded from the Gram-solve
// kernel that name used to run; the alias must still reproduce them.
func TestGoldenKernels(t *testing.T) {
	plane := goldenPlane()
	for _, tc := range goldenFidelities {
		t.Run(tc.name, func(t *testing.T) {
			core, err := oc.NewCore(4, 4, tc.fid)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(core, 4)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string][]float64{}
			for _, name := range append(e.Names(), "reconstruct-direct") {
				k, err := e.Kernel(name)
				if err != nil {
					t.Fatal(err)
				}
				out, err := k.Apply(plane, 0x5eed, 1)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out2, err := k.Apply(plane, 0x5eed, 3)
				if err != nil {
					t.Fatalf("%s (3 workers): %v", name, err)
				}
				for i := range out.Pix {
					if out.Pix[i] != out2.Pix[i] {
						t.Fatalf("%s: worker count changed output at %d", name, i)
					}
				}
				got[name] = out.Pix
			}
			checkGolden(t, filepath.Join("testdata", "golden_kernels_"+tc.name+".json"), got)
		})
	}
}
