//go:build !race

// Steady-state allocation pin for the sensor latches. The race detector
// instruments allocations and drops pooled values at random, so this
// runs only in the plain test pass (make alloc, CI's non-race step).
package pipeline

import (
	"runtime"
	"testing"

	"lightator/internal/oc"
)

// TestRunSeededLatchAllocFree pins the latch pool: once it is warm, a
// one-frame 256x256 RunSeeded through capture and CA allocates less than
// the one 512 KiB sensor latch that cloning the prototype per worker per
// run used to cost. What is left is the frame's codes (64 KiB), the CA
// plane (128 KiB) and bookkeeping.
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
	runOnce() // warm the latch pool

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		runOnce()
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / runs
	const latch = 8 * 256 * 256
	t.Logf("%.0f bytes allocated per frame (latch %d)", perFrame, latch)
	if perFrame >= latch {
		t.Fatalf("a warm frame allocated %.0f bytes, want < %d (one sensor latch)", perFrame, latch)
	}
}
