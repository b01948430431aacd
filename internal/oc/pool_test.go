package oc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"lightator/internal/sensor"
)

// poolTestMatrix programs a deterministic rows x cols matrix on a fresh core.
func poolTestMatrix(t testing.TB, rows, cols int, fid Fidelity) *ProgrammedMatrix {
	t.Helper()
	core, err := NewCore(4, 4, fid)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(rows*1000 + cols)))
	w := make([][]float64, rows)
	for r := range w {
		w[r] = make([]float64, cols)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	pm, err := core.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func poolTestVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

func TestShardRangeEdgeCases(t *testing.T) {
	// n == 0: fn still runs inline once over the empty range.
	calls := 0
	if err := ShardRange(0, 4, func(lo, hi int) error {
		calls++
		if lo != 0 || hi != 0 {
			t.Errorf("empty range sharded as [%d,%d)", lo, hi)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("empty range ran fn %d times, want 1", calls)
	}

	// workers > n: clamped to n, every index covered exactly once.
	var covered [3]int32
	if err := ShardRange(3, 64, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range covered {
		if c != 1 {
			t.Errorf("index %d covered %d times", i, c)
		}
	}

	// workers <= 0 runs inline over the whole range.
	calls = 0
	if err := ShardRange(5, -1, func(lo, hi int) error {
		calls++
		if lo != 0 || hi != 5 {
			t.Errorf("inline run sharded as [%d,%d)", lo, hi)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("workers=-1 ran fn %d times, want 1", calls)
	}
}

func TestShardRangeErrorPropagation(t *testing.T) {
	// A mid-shard failure must surface; the other shards still complete.
	boom := errors.New("shard 2 failed")
	var ran int32
	err := ShardRange(8, 4, func(lo, hi int) error {
		atomic.AddInt32(&ran, 1)
		if lo == 4 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("mid-shard error lost: %v", err)
	}
	if ran != 4 {
		t.Fatalf("%d shards ran, want 4 (no early abort contract)", ran)
	}

	// Multiple failures: exactly one (some) error comes back.
	err = ShardRange(8, 4, func(lo, hi int) error {
		return fmt.Errorf("shard at %d", lo)
	})
	if err == nil {
		t.Fatal("every shard failed but no error returned")
	}

	// The inline path propagates too.
	if err := ShardRange(3, 1, func(lo, hi int) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("inline error lost: %v", err)
	}
}

func TestScratchPoolRoundTrip(t *testing.T) {
	p := GetScratch(17)
	if len(*p) != 17 {
		t.Fatalf("GetScratch(17) length %d", len(*p))
	}
	for i := range *p {
		(*p)[i] = float64(i)
	}
	PutScratch(p)
	PutScratch(nil) // must be a no-op
	q := GetScratch(40000)
	if len(*q) != 40000 {
		t.Fatalf("grown scratch length %d", len(*q))
	}
	PutScratch(q)
}

// TestApplierMatchesOneShot pins the two entry points onto the one apply
// body against each other in every fidelity: the one-shot
// ProgrammedMatrix.ApplySeededInto and a reused Applier give the same
// values and the same stream, whatever the applier applied before.
func TestApplierMatchesOneShot(t *testing.T) {
	for _, fid := range []Fidelity{Ideal, Physical, PhysicalNoisy} {
		pm := poolTestMatrix(t, 13, 23, fid)
		x := poolTestVector(23, 99)
		want := applySeeded(t, pm, x, 0x5eed)
		ap := pm.NewApplier()
		dst := make([]float64, pm.Rows())
		for _, seed := range []int64{0x5eed, 1, 0x5eed} {
			if err := ap.ApplySeededInto(dst, poolTestVector(23, seed), seed); err != nil {
				t.Fatal(err)
			}
		}
		if err := ap.ApplySeededInto(dst, x, 0x5eed); err != nil {
			t.Fatal(err)
		}
		ap.Release()
		for r := range want {
			if dst[r] != want[r] {
				t.Fatalf("%v: Applier row %d: %g != one-shot %g", fid, r, dst[r], want[r])
			}
		}
	}
}

func TestApplyIntoErrors(t *testing.T) {
	pm := poolTestMatrix(t, 4, 10, Ideal)
	x := poolTestVector(10, 7)
	if err := pm.ApplySeededInto(make([]float64, 3), x, 1); err == nil {
		t.Error("short destination accepted")
	}
	if err := pm.ApplySeededInto(make([]float64, 4), poolTestVector(9, 7), 1); err == nil {
		t.Error("short input accepted")
	}
	ap := pm.NewApplier()
	defer ap.Release()
	if err := ap.ApplySeededInto(make([]float64, 5), x, 1); err == nil {
		t.Error("applier: long destination accepted")
	}
	if err := ap.ApplySeededInto(make([]float64, 4), poolTestVector(11, 7), 1); err == nil {
		t.Error("applier: long input accepted")
	}
	w := make([][]float64, 4)
	for r := range w {
		w[r] = x
	}
	if _, err := pm.core.MatVecBatch(w, nil, 2, 1); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := pm.core.MatVecBatch(w, [][]float64{x, poolTestVector(9, 7)}, 2, 1); err == nil {
		t.Error("short vector in a batch accepted")
	}
}

// TestConcurrentSeededCallersSharedMatrix hammers one ProgrammedMatrix
// from many goroutines mixing the two entry points (one-shot
// ApplySeededInto and a per-goroutine Applier) and checks every result
// against the serial answer — the -race contract of the shared scratch arena and pooled noise sources.
func TestConcurrentSeededCallersSharedMatrix(t *testing.T) {
	for _, fid := range []Fidelity{Ideal, PhysicalNoisy} {
		pm := poolTestMatrix(t, 9, 23, fid)
		xs := make([][]float64, 8)
		want := make([][]float64, len(xs))
		for i := range xs {
			xs[i] = poolTestVector(23, int64(100+i))
			want[i] = applySeeded(t, pm, xs[i], DeriveSeed(0x7777, i))
		}
		var wg sync.WaitGroup
		errc := make(chan error, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ap := pm.NewApplier()
				dst := make([]float64, pm.Rows())
				for iter := 0; iter < 25; iter++ {
					i := (g + iter) % len(xs)
					var err error
					if iter%2 == 0 {
						err = pm.ApplySeededInto(dst, xs[i], DeriveSeed(0x7777, i))
					} else {
						err = ap.ApplySeededInto(dst, xs[i], DeriveSeed(0x7777, i))
					}
					if err != nil {
						errc <- err
						return
					}
					for r := range dst {
						if dst[r] != want[i][r] {
							errc <- fmt.Errorf("%v: goroutine %d vector %d row %d diverged", fid, g, i, r)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
	}
}

// TestQuantizeNaNPropagates pins the grid-table quantization's NaN
// handling: NaN inputs must propagate to the output, as the direct
// Round(x·n)/n expression did — never index the grid table (a served
// plane containing NaN bytes must not be able to panic the process).
func TestQuantizeNaNPropagates(t *testing.T) {
	pm := poolTestMatrix(t, 3, 10, Ideal)
	nan := math.NaN()
	if got := pm.core.QuantizeActivation(nan); !math.IsNaN(got) {
		t.Errorf("QuantizeActivation(NaN) = %g, want NaN", got)
	}
	x := poolTestVector(10, 7)
	x[4] = nan
	y := make([]float64, pm.Rows())
	if err := pm.ApplySeededInto(y, x, 1); err != nil {
		t.Fatal(err)
	}
	for _, v := range y {
		if !math.IsNaN(v) {
			t.Errorf("NaN input did not propagate to output row: %g", v)
		}
	}
}

// TestCompressSeededNonCRCGrid pins the specialised CompressSeeded walk
// against the documented per-window contract — window j is one seeded
// apply of the CA bank under DeriveSeed(seed, j). The 3-bit cases drive
// the quantizing branch (ABits != the CRC's 4 bits, so the
// identity-quantization shortcut must not fire); the 4-bit noise-free
// cases drive the shortcut itself.
func TestCompressSeededNonCRCGrid(t *testing.T) {
	for _, tc := range []struct {
		aBits, pool int
		fid         Fidelity
	}{
		{3, 4, Ideal}, {3, 4, PhysicalNoisy}, // 7-level grid != 15 comparators
		{4, 2, Ideal}, {4, 2, Physical},
	} {
		core, err := NewCore(4, tc.aBits, tc.fid)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := NewAcquisitor(core, tc.pool)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(55))
		f := &sensor.Frame{Rows: 8, Cols: 8, Codes: make([]uint8, 64)}
		for i := range f.Codes {
			f.Codes[i] = uint8(rng.Intn(16))
		}
		got, err := ca.CompressSeeded(f, 0xfeed)
		if err != nil {
			t.Fatal(err)
		}
		n, outW := tc.pool, 8/tc.pool
		window := make([]float64, n*n)
		for oy := 0; oy < outW; oy++ {
			for ox := 0; ox < outW; ox++ {
				i := 0
				for dy := 0; dy < n; dy++ {
					for dx := 0; dx < n; dx++ {
						window[i] = f.Intensity(oy*n+dy, ox*n+dx)
						i++
					}
				}
				j := oy*outW + ox
				y := applySeeded(t, ca.pm, window, DeriveSeed(0xfeed, j))
				if got.Pix[j] != y[0] {
					t.Fatalf("[4:%d] %v pool %d: window %d: %g != %g", tc.aBits, tc.fid, n, j, got.Pix[j], y[0])
				}
			}
		}
	}
}
