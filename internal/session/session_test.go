package session

import (
	"context"
	"errors"
	"testing"
	"time"

	"lightator/internal/infer"
	"lightator/internal/kernels"
	"lightator/internal/oc"
	"lightator/internal/pipeline"
	"lightator/internal/sensor"
)

const (
	testRows = 16
	testCols = 16
	testPool = 2
	sessSeed = 0x5eed
)

// harness bundles the shared capture+CA pipeline, a windowed kernel, a
// model, and per-frame reference pipelines (the calls the byte-identity
// contract quotes).
type harness struct {
	core    *oc.Core
	pipe    *pipeline.Pipeline // capture+CA (what sessions stream)
	kern    kernels.Kernel
	model   *infer.Model
	refProc *pipeline.Pipeline // capture+CA+kernel, serial
	refInf  *pipeline.Pipeline // capture+CA+infer, serial
}

func newHarness(t *testing.T, fid oc.Fidelity, workers int) *harness {
	t.Helper()
	core, err := oc.NewCore(4, 4, fid)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := kernels.NewBlockConv(core, "edge", "test edge",
		[][]float64{{0, -1, 0}, {-1, 4, -1}, {0, -1, 0}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := infer.NewEngine(core, testPool, testRows/testPool, testCols/testPool, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	model, err := eng.Model("tiny-cnn")
	if err != nil {
		t.Fatal(err)
	}
	newPipe := func(k kernels.Kernel, m *infer.Model, w int) *pipeline.Pipeline {
		cfg := pipeline.Config{Rows: testRows, Cols: testCols, Workers: w, Seed: 1, CAPool: testPool, Core: core, Kernel: k}
		if m != nil {
			cfg.Infer = m
		}
		p, err := pipeline.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return &harness{
		core:    core,
		pipe:    newPipe(nil, nil, workers),
		kern:    kern,
		model:   model,
		refProc: newPipe(kern, nil, 1),
		refInf:  newPipe(nil, model, 1),
	}
}

// perFrame runs the reference per-frame call for session frame idx.
func perFrame(t *testing.T, ref *pipeline.Pipeline, idx int, scene *sensor.Image) pipeline.Result {
	t.Helper()
	res, _, err := ref.RunSeeded([]pipeline.SeededScene{{Seed: oc.DeriveSeed(sessSeed, idx), Scene: scene}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatalf("reference frame %d: %v", idx, res[0].Err)
	}
	return res[0]
}

// mostlyStatic builds n frames of a fixed background with a bright
// square that jumps every period frames — the streaming workload the
// delta engine targets.
func mostlyStatic(n, period int) []*sensor.Image {
	frames := make([]*sensor.Image, n)
	base := sensor.NewImage(testRows, testCols, 3)
	for i := range base.Pix {
		base.Pix[i] = float64(i%17) / 17
	}
	for f := range frames {
		s := base.Clone()
		pos := 0
		if period > 0 {
			pos = (f / period) % (testRows - 4)
		}
		for y := pos; y < pos+4; y++ {
			for x := pos; x < pos+4; x++ {
				for c := 0; c < 3; c++ {
					s.Pix[(y*testCols+x)*3+c] = 1
				}
			}
		}
		frames[f] = s
	}
	return frames
}

// run streams scenes through the session, collecting ordered results.
func run(t *testing.T, s *Session, scenes []*sensor.Image) ([]FrameResult, error) {
	t.Helper()
	in := make(chan *sensor.Image)
	go func() {
		defer close(in)
		for _, sc := range scenes {
			in <- sc
		}
	}()
	var out []FrameResult
	err := s.Stream(context.Background(), in, func(fr FrameResult) error {
		out = append(out, fr)
		return nil
	})
	return out, err
}

func samePix(t *testing.T, tag string, idx int, got, want *sensor.Image) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s frame %d: nil plane (got %v, want %v)", tag, idx, got, want)
	}
	if got.H != want.H || got.W != want.W {
		t.Fatalf("%s frame %d: dims %dx%d, want %dx%d", tag, idx, got.H, got.W, want.H, want.W)
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("%s frame %d: sample %d differs: %g vs %g", tag, idx, i, got.Pix[i], want.Pix[i])
		}
	}
}

// TestStreamMatchesPerFrame is the tentpole contract: streamed output
// bytes are identical to the per-frame calls with request seed
// DeriveSeed(sessionSeed, i), for every kind, at 1 and 4 workers, in
// deterministic and noisy fidelities — with the delta engine live on
// the mostly-static workload (reuse must be unobservable in bytes).
func TestStreamMatchesPerFrame(t *testing.T) {
	scenes := mostlyStatic(10, 3)
	for _, fid := range []oc.Fidelity{oc.Ideal, oc.Physical, oc.PhysicalNoisy} {
		for _, workers := range []int{1, 4} {
			t.Run(fid.String(), func(t *testing.T) {
				h := newHarness(t, fid, workers)
				det := fid != oc.PhysicalNoisy
				for _, kind := range []Kind{KindCompress, KindProcess, KindInfer} {
					s, err := New("t", Config{
						Kind: kind, Kernel: h.kern, Model: h.model, Pipe: h.pipe,
						Seed: sessSeed, Workers: workers, Deterministic: det,
					})
					if err != nil {
						t.Fatal(err)
					}
					got, err := run(t, s, scenes)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(scenes) {
						t.Fatalf("kind %s: %d results, want %d", kind, len(got), len(scenes))
					}
					for i, fr := range got {
						if fr.Err != nil {
							t.Fatalf("kind %s frame %d: %v", kind, i, fr.Err)
						}
						if fr.Index != i {
							t.Fatalf("kind %s: result %d has index %d", kind, i, fr.Index)
						}
						switch kind {
						case KindCompress:
							ref := perFrame(t, h.pipe, i, scenes[i])
							samePix(t, "compress", i, fr.Compressed, ref.Compressed)
						case KindProcess:
							ref := perFrame(t, h.refProc, i, scenes[i])
							samePix(t, "process", i, fr.Plane, ref.Processed)
						case KindInfer:
							ref := perFrame(t, h.refInf, i, scenes[i])
							if len(fr.Logits) != len(ref.Logits) {
								t.Fatalf("infer frame %d: %d logits, want %d", i, len(fr.Logits), len(ref.Logits))
							}
							for j := range ref.Logits {
								if fr.Logits[j] != ref.Logits[j] {
									t.Fatalf("infer frame %d: logit %d differs: %g vs %g", i, j, fr.Logits[j], ref.Logits[j])
								}
							}
						}
					}
					s.Close()
				}
			})
		}
	}
}

// TestDeltaCountersStatic: on a fully static stream every post-warmup
// window is reused, and the counters say so exactly.
func TestDeltaCountersStatic(t *testing.T) {
	const n = 6
	h := newHarness(t, oc.Physical, 2)
	s, err := New("t", Config{Kind: KindProcess, Kernel: h.kern, Pipe: h.pipe, Seed: sessSeed, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if !s.DeltaEnabled() {
		t.Fatal("delta should be enabled for a deterministic process session")
	}
	if _, err := run(t, s, mostlyStatic(n, 0)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// 16x16 sensor at pool 2 -> 8x8 plane; 3x3 stride-1 pad-1 conv ->
	// 64 windows per frame.
	const perFrameWindows = 64
	if st.BlocksTotal != n*perFrameWindows {
		t.Fatalf("blocks_total %d, want %d", st.BlocksTotal, n*perFrameWindows)
	}
	if st.BlocksReused != (n-1)*perFrameWindows {
		t.Fatalf("blocks_reused %d, want %d (all post-warmup windows)", st.BlocksReused, (n-1)*perFrameWindows)
	}
	want := float64(n-1) / float64(n)
	if st.ReusedFrac != want {
		t.Fatalf("blocks_reused_frac %g, want %g", st.ReusedFrac, want)
	}
}

// TestDeltaCountersMoving: a moving square reuses some but not all
// windows — partial recompute, not all-or-nothing.
func TestDeltaCountersMoving(t *testing.T) {
	h := newHarness(t, oc.Physical, 2)
	s, err := New("t", Config{Kind: KindProcess, Kernel: h.kern, Pipe: h.pipe, Seed: sessSeed, Deterministic: true, Delta: DeltaConfig{Block: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(t, s, mostlyStatic(8, 1)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BlocksReused <= 0 {
		t.Fatalf("moving scene reused %d blocks, want > 0", st.BlocksReused)
	}
	if st.BlocksReused >= st.BlocksTotal-64 {
		t.Fatalf("moving scene reused %d of %d blocks — the change was not detected", st.BlocksReused, st.BlocksTotal)
	}
}

// TestDeltaOffNoisy: noisy fidelity forces reuse off — stale results
// would not be bit-identical under per-frame noise seeds.
func TestDeltaOffNoisy(t *testing.T) {
	h := newHarness(t, oc.PhysicalNoisy, 1)
	s, err := New("t", Config{Kind: KindProcess, Kernel: h.kern, Pipe: h.pipe, Seed: sessSeed, Deterministic: false})
	if err != nil {
		t.Fatal(err)
	}
	if s.DeltaEnabled() {
		t.Fatal("delta must be disabled in noisy fidelity")
	}
	if _, err := run(t, s, mostlyStatic(4, 0)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BlocksReused != 0 {
		t.Fatalf("noisy session reused %d blocks, want 0", st.BlocksReused)
	}
}

// TestSeedChainResume: a second Stream call continues the seed chain
// where the first left off — frame indices and bytes both.
func TestSeedChainResume(t *testing.T) {
	h := newHarness(t, oc.PhysicalNoisy, 2)
	s, err := New("t", Config{Kind: KindCompress, Pipe: h.pipe, Seed: sessSeed, Deterministic: false})
	if err != nil {
		t.Fatal(err)
	}
	scenes := mostlyStatic(5, 1)
	first, err := run(t, s, scenes[:3])
	if err != nil {
		t.Fatal(err)
	}
	second, err := run(t, s, scenes[3:])
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	got := s.next
	s.mu.Unlock()
	if got != 5 {
		t.Fatalf("next index %d after 5 frames, want 5", got)
	}
	all := append(first, second...)
	for i, fr := range all {
		if fr.Index != i {
			t.Fatalf("result %d has index %d", i, fr.Index)
		}
		ref := perFrame(t, h.pipe, i, scenes[i])
		samePix(t, "resume", i, fr.Compressed, ref.Compressed)
	}
}

// TestBusyAndClosed: one stream at a time; closed sessions refuse new
// streams; Close mid-stream stops the feed and returns ErrClosed.
func TestBusyAndClosed(t *testing.T) {
	h := newHarness(t, oc.Physical, 1)
	s, err := New("t", Config{Kind: KindCompress, Pipe: h.pipe, Seed: sessSeed, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan *sensor.Image)
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- s.Stream(context.Background(), in, func(FrameResult) error {
			return nil
		})
	}()
	go func() {
		in <- mostlyStatic(1, 0)[0]
		close(started)
	}()
	<-started
	if err := s.Stream(context.Background(), nil, nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("second stream: %v, want ErrBusy", err)
	}
	s.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("closed mid-stream: %v, want ErrClosed", err)
	}
	if err := s.Stream(context.Background(), in, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("stream after close: %v, want ErrClosed", err)
	}
}

// TestContextCancel: cancelling the stream context stops the feed and
// reports the context error; the session survives for a later stream.
func TestContextCancel(t *testing.T) {
	h := newHarness(t, oc.Physical, 1)
	s, err := New("t", Config{Kind: KindCompress, Pipe: h.pipe, Seed: sessSeed, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan *sensor.Image)
	errc := make(chan error, 1)
	go func() {
		errc <- s.Stream(ctx, in, func(FrameResult) error { return nil })
	}()
	in <- mostlyStatic(1, 0)[0]
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream: %v, want context.Canceled", err)
	}
	if _, err := run(t, s, mostlyStatic(1, 0)); err != nil {
		t.Fatalf("stream after cancel: %v", err)
	}
}

// TestManagerLifecycle: cap enforcement, lookup, close, and aggregate
// counters that never go backwards when sessions retire.
func TestManagerLifecycle(t *testing.T) {
	h := newHarness(t, oc.Physical, 1)
	m := NewManager(ManagerConfig{MaxSessions: 2, IdleTimeout: -1})
	defer m.Drain()
	cfg := Config{Kind: KindCompress, Pipe: h.pipe, Seed: sessSeed, Deterministic: true}
	a, err := m.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(cfg); !errors.Is(err, ErrLimit) {
		t.Fatalf("over-cap open: %v, want ErrLimit", err)
	}
	if _, ok := m.Get(a.ID()); !ok {
		t.Fatal("open session not found")
	}
	if _, err := run(t, a, mostlyStatic(2, 0)); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	if before.Frames != 2 {
		t.Fatalf("aggregate frames %d, want 2", before.Frames)
	}
	if _, ok := m.Close(a.ID()); !ok {
		t.Fatal("close reported unknown session")
	}
	if _, ok := m.Get(a.ID()); ok {
		t.Fatal("closed session still resolvable")
	}
	after := m.Stats()
	if after.Frames != before.Frames {
		t.Fatalf("aggregate frames moved %d -> %d across retirement", before.Frames, after.Frames)
	}
	if after.Open != 1 || after.Opened != 2 || after.Closed != 1 {
		t.Fatalf("lifecycle counters open=%d opened=%d closed=%d, want 1/2/1", after.Open, after.Opened, after.Closed)
	}
}

// TestManagerIdleExpiry: idle sessions are swept; active ones are not.
func TestManagerIdleExpiry(t *testing.T) {
	h := newHarness(t, oc.Physical, 1)
	m := NewManager(ManagerConfig{IdleTimeout: 30 * time.Millisecond, SweepEvery: 10 * time.Millisecond})
	defer m.Drain()
	s, err := m.Open(Config{Kind: KindCompress, Pipe: h.pipe, Seed: sessSeed, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := m.Get(s.ID()); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case <-s.Done():
	default:
		t.Fatal("expired session not closed")
	}
	if st := m.Stats(); st.Expired != 1 {
		t.Fatalf("expired counter %d, want 1", st.Expired)
	}
}

// TestManagerDrain: drain closes every session, refuses new opens, and
// waits for active streams.
func TestManagerDrain(t *testing.T) {
	h := newHarness(t, oc.Physical, 1)
	m := NewManager(ManagerConfig{IdleTimeout: -1})
	cfg := Config{Kind: KindCompress, Pipe: h.pipe, Seed: sessSeed, Deterministic: true}
	s, err := m.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan *sensor.Image)
	errc := make(chan error, 1)
	go func() {
		errc <- s.Stream(context.Background(), in, func(FrameResult) error { return nil })
	}()
	in <- mostlyStatic(1, 0)[0]
	m.Drain()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("drained stream: %v, want ErrClosed", err)
	}
	if _, err := m.Open(cfg); !errors.Is(err, ErrClosed) {
		t.Fatalf("open while draining: %v, want ErrClosed", err)
	}
	m.Drain() // idempotent
}
