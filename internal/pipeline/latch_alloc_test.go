//go:build !race

// Allocation pin for the latch-free capture. The race detector
// instruments allocations and drops pooled values at random, so this
// runs only in the plain test pass (make alloc, CI's non-race step).
package pipeline

import (
	"runtime"
	"testing"

	"lightator/internal/oc"
)

// TestRunSeededLatchAllocFree pins capture to no per-worker sensor
// state: a one-frame 256x256 RunSeeded through capture and CA allocates
// less than one 512 KiB V_PD latch (the per-worker array clone capture
// once needed), both on a fresh pipeline's first frame and once warm.
// What is left is the frame's codes (64 KiB), the CA plane (128 KiB)
// and bookkeeping.
func TestRunSeededLatchAllocFree(t *testing.T) {
	// sync.Pool keeps a per-P private slot that other Ps cannot steal,
	// so one P measures the steady state itself.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	core, err := oc.NewCore(4, 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Rows: 256, Cols: 256, Workers: 1, CAPool: 2, Core: core})
	if err != nil {
		t.Fatal(err)
	}
	batch := []SeededScene{{Seed: 7, Scene: testScenes(1, 256, 256)[0]}}
	runOnce := func() {
		res, _, err := p.RunSeeded(batch)
		if err != nil || res[0].Err != nil {
			t.Fatal(err, res[0].Err)
		}
	}
	const latch = 8 * 256 * 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runOnce()
	runtime.ReadMemStats(&after)
	first := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes allocated by a fresh pipeline's first frame", first)
	if first >= latch {
		t.Fatalf("a fresh pipeline's first frame allocated %d bytes, want < %d (one sensor latch)", first, latch)
	}

	const runs = 20
	runtime.ReadMemStats(&before)
	for range runs {
		runOnce()
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes allocated per frame (latch %d)", perFrame, latch)
	if perFrame >= latch {
		t.Fatalf("a warm frame allocated %.0f bytes, want < %d (one sensor latch)", perFrame, latch)
	}
}
