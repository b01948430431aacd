package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"lightator"
)

// inProcess launches lightator.NewServer over a rows x cols sensor
// behind httptest, standing in for the subprocess.
func inProcess(rows, cols int) launcher {
	return func(ctx context.Context) (*instance, error) {
		start := time.Now()
		cfg := lightator.DefaultConfig()
		cfg.SensorRows, cfg.SensorCols = rows, cols
		acc, err := lightator.New(cfg)
		if err != nil {
			return nil, err
		}
		srv, err := acc.NewServer(lightator.ServeOptions{Workers: serverWorkers, Debug: true})
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		return &instance{
			url:     ts.URL,
			setup:   time.Since(start),
			peakRSS: func() (float64, error) { return peakRSS("/proc/self/status") },
			stop: func() error {
				defer ts.Close()
				ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
				defer cancel()
				return srv.Drain(ctx)
			},
		}, nil
	}
}

// TestPatchedScenesAreDistinct checks the unique-input patcher: every
// counter gives a body that streams and materialises the same bytes,
// strictly decodes to the image the replay uses, differs from every
// other counter's, and is never answered from the server's cache.
func TestPatchedScenesAreDistinct(t *testing.T) {
	inst, err := inProcess(16, 16)(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.stop()
	tpl, err := processTemplate(randomScene(1, 16, 16), "edge")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]uint64{}
	for _, n := range []uint64{1, 2, 3, 1 << 17, 1<<17 + 1, 1 << 34, hotCounter, probeCounter + 5} {
		body := tpl.body(n)
		var streamed bytes.Buffer
		if _, err := streamed.ReadFrom(tpl.reader(n)); err != nil || !bytes.Equal(streamed.Bytes(), body) || int64(len(body)) != tpl.size() {
			t.Fatalf("counter %d: streamed body differs from the materialised one (%v)", n, err)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req lightator.ProcessRequest
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("counter %d: body does not decode: %v", n, err)
		}
		im, err := lightator.DecodeImage(req.Scene)
		if err != nil {
			t.Fatalf("counter %d: scene does not decode: %v", n, err)
		}
		if want := tpl.image(n); !samePlane(im, want) {
			t.Fatalf("counter %d: decoded scene differs from the replay's", n)
		}
		if prev, dup := seen[req.Scene.Pix]; dup {
			t.Fatalf("counters %d and %d patch to the same scene", prev, n)
		}
		seen[req.Scene.Pix] = n
		resp, err := http.Post(inst.url+tpl.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Lightator-Cache") != "miss" {
			t.Fatalf("counter %d: status %d, cache %q; want a 200 miss", n, resp.StatusCode, resp.Header.Get("X-Lightator-Cache"))
		}
	}
}

// TestSmokeInProcess runs every workload, traced, against an in-process
// server on a 64x64 sensor: no request may fail, every response check
// must pass, and every metric BENCHMARK.json names must be printed with
// its unit, both in the table and in the result line.
func TestSmokeInProcess(t *testing.T) {
	var sp spec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, measure: 1500 * time.Millisecond, rounds: rounds, warmup: 100 * time.Millisecond,
		traced: true, inputs: 16, rows: 64, cols: 64}
	recs, spans, err := runSet(context.Background(), inProcess(64, 64), workloadNames, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	var table bytes.Buffer
	for _, r := range recs {
		r.print(&table)
		if r.Failed != 0 || !r.Correct {
			t.Errorf("%s: %d of %d requests failed, correct=%v: %s", r.Workload, r.Failed, r.Attempted, r.Correct, r.FirstError)
		}
		if v := r.Layers["server.cache_hit_ratio"].Value; r.Workload != "mixed-open" && v != 0 {
			t.Errorf("%s: server.cache_hit_ratio = %g, want 0", r.Workload, v)
		}
	}
	printed := func(name, unit string) bool {
		return regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(name) + `\s+\S+\s+` + regexp.QuoteMeta(unit) + `\s+n=\d+`).Match(table.Bytes())
	}
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		line, ok, err := resultLine(recs, list)
		if err != nil || !ok {
			t.Fatalf("result line %s: ok=%v, %v", line, ok, err)
		}
		var res struct {
			Metrics map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatal(err)
		}
		for _, m := range list {
			if !printed(m.Name, m.Unit) {
				t.Errorf("table lacks %s in %s", m.Name, m.Unit)
			}
			for _, w := range workloadNames {
				if got := res.Metrics[w+"/"+m.Name]; got.Value == nil || got.Unit != m.Unit {
					t.Errorf("result line has %s/%s = %+v, want a value in %s", w, m.Name, got, m.Unit)
				}
			}
		}
		if want := len(list) * len(workloadNames); len(res.Metrics) != want {
			t.Errorf("result line has %d metrics, want %d", len(res.Metrics), want)
		}
	}
	if t.Failed() {
		t.Log(table.String())
	}
}
