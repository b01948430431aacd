//go:build !race

// Allocation pin for the agreement sweep. The race detector instruments
// allocations, so it runs only in the plain test pass (`make alloc`),
// like the other allocation pins.
package lightator_test

import (
	"runtime"
	"testing"

	"lightator"
)

// TestAgreementSweepAllocFreeOfScenes pins the sweep's scene ring: the
// sweep renders into one reused buffer per worker, so a longer sweep
// allocates only each frame's capture, plane and model scratch, not a
// fresh full-resolution scene per frame. At 256x256 with tiny-mlp, the
// 8 frames between an 8-frame and a 16-frame sweep must add less than
// one rendered scene (256*256*3 float64) each.
func TestAgreementSweepAllocFreeOfScenes(t *testing.T) {
	acc, err := lightator.New(lightator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := acc.Config()
	if cfg.SensorRows != 256 || cfg.SensorCols != 256 {
		t.Fatalf("default sensor is %dx%d, the pin assumes 256x256", cfg.SensorRows, cfg.SensorCols)
	}
	sweep := func(frames int) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := acc.ModelAgreement("tiny-mlp", frames); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	sweep(8) // warm the pools the sweep's stages draw on
	short, long := sweep(8), sweep(16)
	perFrame := (int64(long) - int64(short)) / 8
	const scene = 256 * 256 * 3 * 8
	t.Logf("8 frames %d B, 16 frames %d B: %d B per extra frame (a scene is %d B)", short, long, perFrame, scene)
	if perFrame >= scene {
		t.Errorf("each frame past 8 allocates %d B, at least one rendered scene (%d B)", perFrame, scene)
	}
}
