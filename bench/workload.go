package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lightator"
	"lightator/internal/oc"
	"lightator/internal/pipeline"
)

// The four workloads, in the order each round visits them. README.md
// says why each exists.
var workloadNames = []string{"process-miss", "infer-plane", "session-video", "mixed-open"}

// Load shape: two connections (the host has two CPUs), and mixed-open's
// fixed arrival rate. At that rate the generator keeps to its schedule
// and the server keeps up; the rate's share of what the mix sustains is
// not measured.
const (
	clients    = 2
	mixedRate  = 40.0 // requests per second
	hotScenes  = 8
	sloLatency = 100 * time.Millisecond
)

// options fix one run's size.
type options struct {
	seed    int64
	measure time.Duration // measured time per workload, split over rounds
	rounds  int
	warmup  time.Duration // discarded load before each round's window
	traced  bool
	inputs  int // fixed inputs per workload
	rows    int
	cols    int
}

// round is one fresh server's measured window.
type round struct {
	from    time.Time // the window's start
	samples []sample
	delta   counters
	rssMB   float64
}

// throughput is the round's successful requests per second, over the
// span from the window's start to the last of them completing.
func (r round) throughput() float64 {
	n, last := 0, r.from
	for _, s := range r.samples {
		if s.ok {
			n++
			if s.done.After(last) {
				last = s.done
			}
		}
	}
	return ratio(float64(n), last.Sub(r.from).Seconds())
}

// workload is one workload's inputs and everything measured on it in a
// run.
type workload struct {
	name string
	o    options
	rp   *replayer

	scene  *lightator.Image
	tpl    map[string]*template // "process:<kernel>", "infer:<model>", "plane:<model>"
	lines  [][]byte             // session-video's distinct frame lines
	counts atomic.Uint64        // run-wide unique-input counter

	// hotMu guards hot, the body each of mixed-open's hot scenes must be
	// answered with (see warmHot).
	hotMu sync.Mutex
	hot   map[int][]byte

	rounds     []round
	setups     []float64    // every server start's time to ready, in s
	mismatches atomic.Int64 // responses that differ from the expected bytes
	errOnce    sync.Once
	firstErr   string

	// From the fixed inputs.
	attempted, failed int
	energyJ           []float64
	onPath            []time.Duration
	reuse             float64
	agreement         float64
	overhead          []time.Duration // pipeline overhead per frame, per batch
}

func newWorkload(name string, o options, rp *replayer) (*workload, error) {
	w := &workload{name: name, o: o, rp: rp, tpl: map[string]*template{}, hot: map[int][]byte{}}
	w.scene = randomScene(o.seed, o.rows, o.cols)
	// Every HTTP workload's fixed inputs take their scenes from the edge
	// template.
	var err error
	if w.tpl["process:edge"], err = processTemplate(w.scene, "edge"); err != nil {
		return nil, err
	}
	switch name {
	case "infer-plane":
		// The plane is the CA measurement of the run's scene, so its
		// samples sit on the grid the CA produces.
		frame, err := rp.on.arr.Capture(w.scene)
		if err != nil {
			return nil, err
		}
		plane, err := rp.on.ca.CompressSeeded(frame, 0)
		if err != nil {
			return nil, err
		}
		w.tpl["plane:tiny-cnn"], err = inferTemplate(plane, "tiny-cnn", true)
	case "session-video":
		w.lines, err = videoLines(w.scene)
	case "mixed-open":
		for _, k := range servedKernels {
			if w.tpl["process:"+k] != nil {
				continue
			}
			if w.tpl["process:"+k], err = processTemplate(w.scene, k); err != nil {
				return nil, err
			}
		}
		w.tpl["infer:tiny-mlp"], err = inferTemplate(w.scene, "tiny-mlp", false)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// fail notes a failed request's cause; the first one is reported.
func (w *workload) fail(format string, args ...any) bool {
	w.errOnce.Do(func() { w.firstErr = fmt.Sprintf(format, args...) })
	return false
}

// send posts template t's body for counter n and checks the answer: a
// 200 that is not flagged degraded, shaped like t's responses, and, when
// want is set, exactly want.
func (w *workload) send(ctx context.Context, client *http.Client, url string, t *template, n uint64, want []byte) bool {
	body, status, hdr, err := post(ctx, client, url+t.path, t.reader(n), t.size())
	switch {
	case err != nil:
		return w.fail("%s: %v", t.path, err)
	case status != http.StatusOK:
		return w.fail("%s answered %d: %.200s", t.path, status, body)
	case hdr.Get("X-Lightator-Degraded") != "":
		return w.fail("%s answered degraded", t.path)
	case want != nil && !bytes.Equal(body, want):
		w.mismatches.Add(1)
		return w.fail("%s: a cache hit differs from the body its first miss returned", t.path)
	case !bytes.HasPrefix(body, t.check) || !bytes.HasSuffix(body, []byte("}\n")):
		return w.fail("%s: malformed response %.200s", t.path, body)
	}
	return true
}

// runRound first starts and at once stops setupProbes servers, which
// only time set-up. It then starts a server, drives the workload for one
// warm-up plus one measured window, and stops the server. When last is
// set it also runs the fixed inputs against the same server before
// stopping it.
func (w *workload) runRound(ctx context.Context, launch launcher, r int, last bool) error {
	for p := 0; p < setupProbes; p++ {
		inst, err := launch(ctx)
		if err != nil {
			return err
		}
		if err := inst.stop(); err != nil {
			return err
		}
		w.setups = append(w.setups, inst.setup.Seconds())
	}
	inst, err := launch(ctx)
	if err != nil {
		return err
	}
	w.setups = append(w.setups, inst.setup.Seconds())
	err = w.measure(ctx, inst, r)
	if err == nil && last {
		err = w.fixed(ctx, inst)
	}
	if serr := inst.stop(); err == nil {
		err = serr
	}
	return err
}

func (w *workload) measure(ctx context.Context, inst *instance, r int) error {
	client := loadClient()
	defer client.CloseIdleConnections()
	length := w.o.measure / time.Duration(w.o.rounds)
	if w.name == "mixed-open" {
		// The hot set enters the cache before the clock starts.
		for h := 0; h < hotScenes; h++ {
			if err := w.warmHot(ctx, client, inst.url, h); err != nil {
				return err
			}
		}
	}
	start := time.Now()
	win := window{from: start.Add(w.o.warmup), to: start.Add(w.o.warmup + length)}

	// The window's first scrape runs beside the load, at its start.
	var before counters
	scraped := make(chan error, 1)
	go func() {
		select {
		case <-time.After(time.Until(win.from)):
		case <-ctx.Done():
			scraped <- ctx.Err()
			return
		}
		var err error
		before, err = scrape(ctx, &http.Client{Timeout: 10 * time.Second}, inst.url)
		scraped <- err
	}()

	var samples []sample
	var err error
	switch w.name {
	case "process-miss":
		t := w.tpl["process:edge"]
		samples = closedLoop(ctx, clients, win, func(ctx context.Context) bool {
			return w.send(ctx, client, inst.url, t, w.counts.Add(1), nil)
		})
	case "infer-plane":
		t := w.tpl["plane:tiny-cnn"]
		samples = closedLoop(ctx, clients, win, func(ctx context.Context) bool {
			return w.send(ctx, client, inst.url, t, w.counts.Add(1), nil)
		})
	case "mixed-open":
		samples = w.mixedLoad(ctx, client, inst.url, start, win, r)
	case "session-video":
		samples, _, err = w.stream(ctx, client, inst.url, w.sessionSeed(r), win, nil)
	}
	if serr := <-scraped; err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	after, err := scrape(ctx, client, inst.url)
	if err != nil {
		return err
	}
	rss, err := inst.peakRSS()
	if err != nil {
		return err
	}
	w.rounds = append(w.rounds, round{from: win.from, samples: samples, delta: after.sub(before), rssMB: rss})
	return nil
}

// warmHot sends hot scene h once, a cache miss on a fresh server, and
// checks the body against the replayed layer chain's, computed the first
// time and kept in w.hot: every later answer for the scene, hit or miss,
// must repeat it.
func (w *workload) warmHot(ctx context.Context, client *http.Client, url string, h int) error {
	t := w.tpl["process:edge"]
	n := hotCounter + uint64(h)
	body, status, _, err := post(ctx, client, url+t.path, t.reader(n), t.size())
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("bench: hot scene %d answered %d: %.200s", h, status, body)
	}
	w.hotMu.Lock()
	first, seen := w.hot[h]
	w.hotMu.Unlock()
	if !seen {
		// Replayed on a throwaway recorder: the warm-up is not a traced input.
		rp := &replayer{on: w.rp.on, off: w.rp.off, rec: newRecorder()}
		in := input{kind: "hot", target: "edge", seed: lightator.DefaultConfig().Seed, body: t.body(n), scene: t.image(n)}
		ref, err := rp.replay(fmt.Sprintf("%s/hot-%d", w.name, h), in, nil, false)
		if err != nil {
			return err
		}
		first = ref.body
		w.hotMu.Lock()
		w.hot[h] = first
		w.hotMu.Unlock()
	}
	if !bytes.Equal(body, first) {
		w.mismatches.Add(1)
		return fmt.Errorf("bench: hot scene %d answered bytes that differ from the layer chain's", h)
	}
	return nil
}

// mixedPick is one mixed-open request: a template and, for a repeat of
// the hot set, which hot scene (-1 for a unique scene).
type mixedPick struct {
	t   *template
	hot int
}

// mixedDeck is the mix in exact proportions, 32 requests: half unique
// /v1/process scenes spread evenly over the four served kernels, a
// quarter unique /v1/infer scenes on tiny-mlp, and a quarter the hot
// set, each hot scene once.
func (w *workload) mixedDeck() []mixedPick {
	var deck []mixedPick
	for _, k := range servedKernels {
		for i := 0; i < 4; i++ {
			deck = append(deck, mixedPick{w.tpl["process:"+k], -1})
		}
	}
	for h := 0; h < hotScenes; h++ {
		deck = append(deck, mixedPick{w.tpl["infer:tiny-mlp"], -1}, mixedPick{w.tpl["process:edge"], h})
	}
	return deck
}

// mixedLoad drives mixed-open's seeded Poisson arrivals. Requests are
// dealt from shuffled decks (see mixedDeck), so every window holds the
// same mix, to within one deck, and the seed decides only its order and
// timing.
func (w *workload) mixedLoad(ctx context.Context, client *http.Client, url string, start time.Time, win window, r int) []sample {
	rng := rand.New(rand.NewSource(oc.DeriveSeed(w.o.seed, r)))
	deck := w.mixedDeck()
	var dues []time.Duration
	var picks []mixedPick
	// The warm-up and the window each get their own arrivals and decks.
	for _, span := range [][2]time.Duration{{0, win.from.Sub(start)}, {win.from.Sub(start), win.to.Sub(win.from)}} {
		part := arrivals(rng, mixedRate, span[0], span[1])
		dues = append(dues, part...)
		for dealt := 0; dealt < len(part); dealt += len(deck) {
			for _, i := range rng.Perm(len(deck))[:min(len(deck), len(part)-dealt)] {
				picks = append(picks, deck[i])
			}
		}
	}
	return openLoop(ctx, clients, start, dues, win, func(ctx context.Context, i int) bool {
		p := picks[i]
		if p.hot < 0 {
			return w.send(ctx, client, url, p.t, w.counts.Add(1), nil)
		}
		w.hotMu.Lock()
		want := w.hot[p.hot]
		w.hotMu.Unlock()
		return w.send(ctx, client, url, p.t, hotCounter+uint64(p.hot), want)
	})
}

// sessionSeed is the seed chain of round r's session (r < 0 for the
// fixed inputs' session).
func (w *workload) sessionSeed(r int) int64 { return oc.DeriveSeed(w.o.seed, 1000+r) }

// stream opens a process/edge session and streams the video sequence
// through it, two frames in flight. With keep nil it sends frames until
// win closes; otherwise it sends len(keep) frames and stores each result
// line in keep. It returns the samples and the closing summary.
func (w *workload) stream(ctx context.Context, client *http.Client, url string, seed int64, win window, keep [][]byte) ([]sample, lightator.SessionSummary, error) {
	var sum lightator.SessionSummary
	req, err := json.Marshal(lightator.SessionRequest{Kind: "process", Kernel: "edge", Seed: &seed})
	if err != nil {
		return nil, sum, err
	}
	body, status, _, err := post(ctx, client, url+"/v1/session", bytes.NewReader(req), int64(len(req)))
	if err != nil {
		return nil, sum, err
	}
	var sr lightator.SessionResponse
	if status != http.StatusOK {
		return nil, sum, fmt.Errorf("bench: open session answered %d: %.200s", status, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, sum, fmt.Errorf("bench: decode session: %w", err)
	}
	fc, err := dialFrames(url, sr.ID, time.Now().Add(w.o.warmup+w.o.measure+2*time.Minute))
	if err != nil {
		return nil, sum, err
	}
	defer fc.close()
	var col collector
	more := func(i int, due time.Time) bool { return due.Before(win.to) }
	if keep != nil {
		more = func(i int, _ time.Time) bool { return i < len(keep) }
	}
	done, err := streamFrames(ctx, fc, clients, func(i int) []byte { return w.lines[i/4%videoPositions] }, more,
		func(i int, due, sent time.Time, line []byte) error {
			ok := bytes.HasPrefix(line, fmt.Appendf(nil, `{"index":%d,"plane":{`, i)) &&
				!bytes.HasSuffix(line, []byte(`"degraded":true}`))
			if !ok {
				w.fail("session frame %d: unexpected result %.200s", i, line)
			}
			if keep != nil {
				keep[i] = bytes.Clone(line)
			}
			col.add(win, due, sent, time.Now(), ok)
			return nil
		})
	if err != nil {
		return nil, sum, err
	}
	if err := json.Unmarshal(done, &sum); err != nil {
		return nil, sum, fmt.Errorf("bench: decode session summary: %w", err)
	}
	// Close the session so the next round's server state matches.
	del, err := http.NewRequestWithContext(ctx, http.MethodDelete, url+"/v1/session/"+sr.ID, nil)
	if err != nil {
		return nil, sum, err
	}
	if _, status, _, err = do(client, del); err != nil || status != http.StatusOK {
		return nil, sum, fmt.Errorf("bench: close session: status %d: %v", status, err)
	}
	return col.samples, sum, nil
}

// mixedCycle is the fixed composition of mixed-open's fixed inputs: the
// load's 50/25/25 split, in a repeating order, so every run's modelled
// energy is over the same mix.
var mixedCycle = []struct{ kind, target string }{
	{"process", "edge"}, {"infer-scene", "tiny-mlp"}, {"process", "reconstruct"}, {"hot", "edge"},
	{"process", "reconstruct-direct"}, {"infer-scene", "tiny-mlp"}, {"process", "reconstruct-cg"}, {"hot", "edge"},
}

// fixedInput builds fixed input k of an HTTP workload.
func (w *workload) fixedInput(k int) (input, error) {
	n := probeCounter + uint64(k)
	seed := oc.DeriveSeed(w.o.seed, k)
	in := input{seed: seed}
	switch w.name {
	case "process-miss":
		in.kind, in.target = "process", "edge"
	case "infer-plane":
		in.kind, in.target = "infer-plane", "tiny-cnn"
	case "mixed-open":
		c := mixedCycle[k%len(mixedCycle)]
		in.kind, in.target = c.kind, c.target
	}
	var req any
	switch in.kind {
	case "process":
		in.scene = w.tpl["process:edge"].image(n)
		req = lightator.NewProcessRequest(lightator.EncodeImage(in.scene), in.target, &seed)
	case "infer-scene":
		in.scene = w.tpl["process:edge"].image(n)
		wire := lightator.EncodeImage(in.scene)
		r := lightator.InferRequest{Scene: &wire, Model: in.target}
		r.Seed = &seed
		req = r
	case "infer-plane":
		// The scene the plane stands for; its capture and CA are timed
		// off the request path.
		in.scene = w.tpl["process:edge"].image(n)
		in.plane = w.tpl["plane:"+in.target].image(n)
		wire := lightator.EncodeImage(in.plane)
		r := lightator.InferRequest{Plane: &wire, Model: in.target}
		r.Seed = &seed
		req = r
	case "hot":
		// The measured hot requests' bytes exactly: no seed, so the
		// server's default applies, and the cache answers.
		h := k / 4 % hotScenes
		t := w.tpl["process:edge"]
		in.seed = lightator.DefaultConfig().Seed
		in.scene, in.body = t.image(hotCounter+uint64(h)), t.body(hotCounter+uint64(h))
		return in, nil
	}
	body, err := json.Marshal(req)
	in.body = body
	return in, err
}

// fixed sends the workload's fixed inputs to the server, checks every
// answer byte for byte against the replayed layer chain, and reads the
// modelled energy off the responses; a traced run also times every layer.
func (w *workload) fixed(ctx context.Context, inst *instance) error {
	client := loadClient()
	defer client.CloseIdleConnections()
	agree, err := referenceAgreement(ctx, client, inst.url)
	if err != nil {
		return err
	}
	w.agreement = agree
	if w.name == "session-video" {
		return w.fixedSession(ctx, client, inst.url)
	}
	for k := 0; k < w.o.inputs; k++ {
		in, err := w.fixedInput(k)
		if err != nil {
			return err
		}
		path := "/v1/process"
		if in.kind == "infer-scene" || in.kind == "infer-plane" {
			path = "/v1/infer"
		}
		id := fmt.Sprintf("%s/%d", w.name, k)
		sp := w.rp.rec.begin(id, 0, "http")
		body, status, hdr, err := post(ctx, client, inst.url+path, bytes.NewReader(in.body), int64(len(in.body)))
		w.rp.rec.end(sp)
		if err != nil {
			return err
		}
		ref, err := w.rp.replay(id, in, nil, w.o.traced)
		if err != nil {
			return err
		}
		w.onPath = append(w.onPath, ref.onPath)
		// A hot input's first miss matched the chain in warmHot, so
		// matching the chain here also matches that first answer.
		w.check(id, status, body, ref.body)
		w.energy(hdr)
	}
	return nil
}

// fixedSession streams the first inputs frames of the video sequence
// through a fresh session and checks each result line against the
// replayed layer chain under the frame's derived seed. The first
// probeInputs frames also go through /v1/process under the same seeds,
// whose bodies must carry the same planes and whose headers give the
// modelled energy.
func (w *workload) fixedSession(ctx context.Context, client *http.Client, url string) error {
	seed := w.sessionSeed(-1)
	lines := make([][]byte, w.o.inputs)
	sp := w.rp.rec.begin(w.name+"/stream", 0, "http")
	_, sum, err := w.stream(ctx, client, url, seed, window{}, lines)
	w.rp.rec.end(sp)
	if err != nil {
		return err
	}
	w.reuse = sum.Stats.ReusedFrac
	var prev *lightator.Image
	for i, line := range lines {
		id := fmt.Sprintf("%s/%d", w.name, i)
		in := input{kind: "session", target: "edge", seed: oc.DeriveSeed(seed, i),
			body: w.lines[i/4%videoPositions], scene: videoFrame(w.scene, i)}
		if err := json.Unmarshal(line, &in.frame); err != nil {
			return fmt.Errorf("bench: decode session line %d: %w", i, err)
		}
		in.frame.Plane = nil
		ref, err := w.rp.replay(id, in, prev, w.o.traced)
		if err != nil {
			return err
		}
		prev = ref.plane
		w.onPath = append(w.onPath, ref.onPath)
		w.check(id, http.StatusOK, line, ref.body)
		if i < probeInputs {
			s := in.seed
			req, err := json.Marshal(lightator.NewProcessRequest(lightator.EncodeImage(in.scene), "edge", &s))
			if err != nil {
				return err
			}
			body, status, hdr, err := post(ctx, client, url+"/v1/process", bytes.NewReader(req), int64(len(req)))
			if err != nil {
				return err
			}
			want, err := encode(ref.result, input{kind: "process"})
			if err != nil {
				return err
			}
			w.check(id+" (per-frame call)", status, body, want)
			w.energy(hdr)
		}
	}
	return nil
}

// check counts one fixed input's outcome.
func (w *workload) check(id string, status int, got, want []byte) {
	w.attempted++
	switch {
	case status != http.StatusOK:
		w.failed++
		w.fail("%s answered %d: %.200s", id, status, got)
	case !bytes.Equal(got, want):
		w.failed++
		w.mismatches.Add(1)
		w.fail("%s: response differs from the replayed layer chain", id)
	}
}

// energy records a response's modelled energy; cache hits carry none.
func (w *workload) energy(h http.Header) {
	if v := h.Get("X-Lightator-Energy-J"); v != "" {
		if j, err := strconv.ParseFloat(v, 64); err == nil {
			w.energyJ = append(w.energyJ, j)
		}
	}
}

// pooled merges the rounds' samples: latencies in ms with failures as
// +Inf, generator lag in ms, and the ok and within-SLO counts.
func (w *workload) pooled() (lat, late []float64, ok, slo int) {
	for _, r := range w.rounds {
		for _, s := range r.samples {
			late = append(late, ms(s.late))
			if !s.ok {
				lat = append(lat, math.Inf(1))
				continue
			}
			lat = append(lat, ms(s.lat))
			ok++
			if s.lat <= sloLatency {
				slo++
			}
		}
	}
	return lat, late, ok, slo
}

// fixedScene is the scene of fixed input k.
func (w *workload) fixedScene(k int) *lightator.Image {
	if w.name == "session-video" {
		return videoFrame(w.scene, k)
	}
	return w.tpl["process:edge"].image(probeCounter + uint64(k))
}

// facadeLayers times the layers the facade composes on the fixed
// scenes: a session's Stream fed one frame at a time, and the pipeline's
// per-frame overhead, its RunSeeded wall time over batches of 8 minus
// the stage times the results report.
func (w *workload) facadeLayers(ctx context.Context, acc *lightator.Accelerator) error {
	seed := w.sessionSeed(-1)
	sess, err := acc.NewSession(lightator.SessionOptions{Kind: "process", Kernel: "edge", Seed: &seed, Workers: serverWorkers})
	if err != nil {
		return err
	}
	defer sess.Close()
	n := w.o.inputs
	starts, ends := make([]time.Time, n), make([]time.Time, n)
	in := make(chan *lightator.Image)
	emitted := make(chan struct{})
	// The feeder stops when its frames run out or the stream gives up,
	// and the function waits for it either way.
	ctx, cancel := context.WithCancel(ctx)
	fed := make(chan struct{})
	defer func() {
		cancel()
		<-fed
	}()
	go func() {
		defer close(fed)
		defer close(in)
		for k := 0; k < n; k++ {
			scene := w.fixedScene(k)
			starts[k] = time.Now()
			select {
			case in <- scene:
			case <-ctx.Done():
				return
			}
			select {
			case <-emitted:
			case <-ctx.Done():
				return
			}
		}
	}()
	err = sess.Stream(ctx, in, func(fr lightator.SessionFrameResult) error {
		ends[fr.Index] = time.Now()
		if fr.Err != nil {
			return fr.Err
		}
		select {
		case emitted <- struct{}{}:
		case <-ctx.Done():
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("bench: facade session: %w", err)
	}
	for k := range starts {
		w.rp.rec.add(fmt.Sprintf("%s/%d", w.name, k), 0, "session.frame", starts[k], ends[k])
	}
	if w.name != "session-video" {
		w.reuse = sess.Stats().ReusedFrac
	}

	p, err := acc.NewPipeline(lightator.PipelineOptions{Workers: 1, Kernel: "edge"})
	if err != nil {
		return err
	}
	const batch = 8
	for b := 0; b+batch <= n; b += batch {
		jobs := make([]pipeline.SeededScene, batch)
		for i := range jobs {
			jobs[i] = pipeline.SeededScene{Seed: oc.DeriveSeed(w.o.seed, b+i), Scene: w.fixedScene(b + i)}
		}
		start := time.Now()
		results, _, err := p.RunSeeded(jobs)
		end := time.Now()
		if err != nil {
			return err
		}
		stages := time.Duration(0)
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
			stages += r.CaptureTime + r.CompressTime + r.KernelTime
		}
		w.rp.rec.add(fmt.Sprintf("%s/batch-%d", w.name, b/batch), 0, "pipeline.RunSeeded", start, end)
		w.overhead = append(w.overhead, (end.Sub(start)-stages)/batch)
	}
	return nil
}
