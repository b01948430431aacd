//go:build !race

// Residency pins for the programmed weight store. The race detector
// instruments allocations, so these run only in the plain test pass
// (`make alloc`), like the other allocation pins.
package infer

import (
	"math/rand"
	"runtime"
	"testing"

	"lightator/internal/oc"
)

// liveHeap returns the bytes still reachable after a full collection.
// Two cycles also drain the sync.Pool victim caches, so pooled scratch
// does not count against whoever last used it.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestResidentWeightsAllocFreeBeyondStore pins what a programmed weight
// costs to keep: its float64 coefficient (the apply reads it) and its
// byte-wide MR level (the digital reference, heater power and ABFT read
// it) — 9 bytes, with no float copy of the grid beside them.
//
//   - ProgramCalibrated of a 16x16384 matrix (the tiny-mlp fc1 shape at
//     128x128) may retain at most 9 B per weight, plus the ABFT checksum
//     row and its residual (two float64 per column) and 64 KiB of slack
//     for the arm-boundary index and allocator rounding.
//   - NewEngine at 128x128 (both built-ins, ~0.5 M weights) may retain
//     at most 6 MiB: the two stores, the checksum rows, and the small
//     layers and bookkeeping around them. Calibration leaves nothing
//     behind for a backward pass that never runs.
func TestResidentWeightsAllocFreeBeyondStore(t *testing.T) {
	core, err := oc.NewCore(4, 4, oc.Physical)
	if err != nil {
		t.Fatal(err)
	}

	const rows, cols = 16, 16384
	rng := rand.New(rand.NewSource(3))
	w := make([][]float64, rows)
	for r := range w {
		w[r] = make([]float64, cols)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	before := liveHeap()
	pm, err := core.ProgramCalibrated(w)
	if err != nil {
		t.Fatal(err)
	}
	retained := liveHeap() - before
	runtime.KeepAlive(pm)
	runtime.KeepAlive(w)
	t.Logf("ProgramCalibrated %dx%d retains %d B (%.2f B/weight)", rows, cols, retained, float64(retained)/(rows*cols))
	if bound := int64(9*rows*cols + 2*8*cols + 64<<10); retained > bound {
		t.Errorf("ProgramCalibrated %dx%d retains %d B (%.2f B/weight), bound %d B", rows, cols, retained, float64(retained)/(rows*cols), bound)
	}

	before = liveHeap()
	eng, err := NewEngine(core, 2, 128, 128, 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	retained = liveHeap() - before
	runtime.KeepAlive(eng)
	t.Logf("NewEngine 128x128 retains %d B (%.2f MiB)", retained, float64(retained)/(1<<20))
	if bound := int64(6 << 20); retained > bound {
		t.Errorf("NewEngine 128x128 retains %d B (%.1f MiB), bound %d B", retained, float64(retained)/(1<<20), bound)
	}
}
