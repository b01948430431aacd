package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lightator"
)

// instance is one running server under test.
type instance struct {
	url string
	// setup is the time from start to the first 200 from /readyz.
	setup time.Duration
	// peakRSS reads the server's peak resident set, in MB.
	peakRSS func() (float64, error)
	stop    func() error
}

// launcher starts a fresh server.
type launcher func(ctx context.Context) (*instance, error)

// serverFlags is the served configuration: the default Physical
// fidelity, cache, micro-batch size and delay, two pipeline workers
// (the host has two CPUs) and the debug mux.
var serverFlags = []string{"-workers", "2", "-debug"}

// serverWorkers mirrors -workers in serverFlags: the worker count the
// server hands plane inference, which the replay reproduces.
const serverWorkers = 2

// buildServer compiles cmd/lightator-serve from the source tree at root
// into dir and returns the binary's path. Build time is not measured.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "lightator-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/lightator-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: build lightator-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tailBuffer keeps the last bytes a subprocess wrote, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// processLauncher starts bin as a subprocess on a free loopback port.
func processLauncher(bin string) launcher {
	return func(ctx context.Context) (*instance, error) {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		var logs tailBuffer
		cmd := exec.Command(bin, append([]string{"-addr", addr}, serverFlags...)...)
		cmd.Stdout, cmd.Stderr = &logs, &logs
		// The server dies with the benchmark, however the benchmark ends.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("bench: start server: %w", err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		stop := func() error {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			select {
			case err := <-exited:
				if err != nil {
					return fmt.Errorf("bench: server exit: %v\n%s", err, logs.String())
				}
				return nil
			case <-time.After(30 * time.Second):
				_ = cmd.Process.Kill()
				<-exited
				return fmt.Errorf("bench: server did not drain within 30s")
			}
		}
		url := "http://" + addr
		if err := awaitReady(ctx, url, exited); err != nil {
			_ = stop()
			return nil, fmt.Errorf("%w\n%s", err, logs.String())
		}
		pid := cmd.Process.Pid
		return &instance{
			url:     url,
			setup:   time.Since(start),
			peakRSS: func() (float64, error) { return peakRSS(fmt.Sprintf("/proc/%d/status", pid)) },
			stop:    stop,
		}, nil
	}
}

// awaitReady polls /readyz every millisecond until it answers 200.
func awaitReady(ctx context.Context, url string, exited <-chan error) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := client.Get(url + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-exited:
			return fmt.Errorf("bench: server exited before ready: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return errors.New("bench: server not ready within 60s")
}

// peakRSS reads VmHWM, the peak resident set, from a /proc status file.
func peakRSS(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("bench: no VmHWM in %s", statusPath)
}

// counters are the server counters the per-layer metrics difference
// across a measured window.
type counters struct {
	hits, misses          int64 // response-cache lookups
	sizeFl, deadlineFl    int64 // micro-batch flushes by trigger
	batched               int64 // frames that went through a micro-batch
	abftChecks            int64 // ABFT checksum verifications, all components
	sessionBlocks, reused int64 // session reuse units and those reused
}

func (c counters) sub(o counters) counters {
	return counters{
		hits: c.hits - o.hits, misses: c.misses - o.misses,
		sizeFl: c.sizeFl - o.sizeFl, deadlineFl: c.deadlineFl - o.deadlineFl,
		batched: c.batched - o.batched, abftChecks: c.abftChecks - o.abftChecks,
		sessionBlocks: c.sessionBlocks - o.sessionBlocks, reused: c.reused - o.reused,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		hits: c.hits + o.hits, misses: c.misses + o.misses,
		sizeFl: c.sizeFl + o.sizeFl, deadlineFl: c.deadlineFl + o.deadlineFl,
		batched: c.batched + o.batched, abftChecks: c.abftChecks + o.abftChecks,
		sessionBlocks: c.sessionBlocks + o.sessionBlocks, reused: c.reused + o.reused,
	}
}

// scrape reads the counters from GET /metrics?format=json.
func scrape(ctx context.Context, client *http.Client, url string) (counters, error) {
	body, status, _, err := get(ctx, client, url+"/metrics?format=json")
	if err != nil {
		return counters{}, err
	}
	if status != http.StatusOK {
		return counters{}, fmt.Errorf("bench: /metrics answered %d", status)
	}
	var m lightator.ServerMetrics
	if err := json.Unmarshal(body, &m); err != nil {
		return counters{}, fmt.Errorf("bench: decode /metrics: %w", err)
	}
	c := counters{
		sizeFl: m.Batcher.SizeFlushes, deadlineFl: m.Batcher.DeadlineFlushes,
		batched: m.Batcher.BatchedFrames,
	}
	for _, ep := range m.Endpoints {
		c.hits += ep.CacheHits
		c.misses += ep.CacheMisses
	}
	for _, h := range m.Health {
		c.abftChecks += h.Checks
	}
	if m.Sessions != nil {
		c.sessionBlocks, c.reused = m.Sessions.BlocksTotal, m.Sessions.BlocksReused
	}
	return c, nil
}

// referenceAgreement reads the tiny-cnn optical-vs-reference agreement
// the server measured at construction, from GET /v1/models.
func referenceAgreement(ctx context.Context, client *http.Client, url string) (float64, error) {
	body, status, _, err := get(ctx, client, url+"/v1/models")
	if err != nil {
		return 0, err
	}
	var resp lightator.ModelsResponse
	if status != http.StatusOK {
		return 0, fmt.Errorf("bench: /v1/models answered %d", status)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("bench: decode /v1/models: %w", err)
	}
	for _, m := range resp.Models {
		if m.Name == "tiny-cnn" && m.ReferenceAgreement != nil {
			return *m.ReferenceAgreement, nil
		}
	}
	return 0, errors.New("bench: /v1/models reports no tiny-cnn agreement")
}

// get fetches url and returns its body, status and headers.
func get(ctx context.Context, client *http.Client, url string) ([]byte, int, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, nil, err
	}
	return do(client, req)
}

// post sends body to url and returns the response body, status and headers.
func post(ctx context.Context, client *http.Client, url string, body io.Reader, size int64) ([]byte, int, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return nil, 0, nil, err
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", "application/json")
	return do(client, req)
}

func do(client *http.Client, req *http.Request) ([]byte, int, http.Header, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if resp.ContentLength > 0 {
		buf.Grow(int(resp.ContentLength))
	}
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		return nil, 0, nil, err
	}
	return buf.Bytes(), resp.StatusCode, resp.Header, nil
}

// loadClient is the generator's HTTP client: at most two connections to
// the server, kept alive across requests.
func loadClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}
