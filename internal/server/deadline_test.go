// Requests that end while their frame waits in the micro-batcher: by the
// per-request deadline (504) or by the client hanging up (499). Either
// way the flush drops the frame before the pipeline sees it.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"lightator"
	"lightator/internal/server"
)

// waitMetrics polls srv's metrics until ok holds, failing after 10 s.
func waitMetrics(t *testing.T, srv *lightator.Server, what string, ok func(lightator.ServerMetrics) bool) lightator.ServerMetrics {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		m := srv.Metrics()
		if ok(m) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, m.Batcher)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitExpired waits until srv has dropped n frames at flush in all.
func waitExpired(t *testing.T, srv *lightator.Server, n int64) lightator.ServerMetrics {
	t.Helper()
	return waitMetrics(t, srv, "the expired frame's flush", func(m lightator.ServerMetrics) bool {
		return m.Batcher.ExpiredFrames == n
	})
}

// cancelParked posts req to url and hangs up once the frame is parked in
// one of srv's micro-batchers, then waits for the flush that drops it.
func cancelParked(t *testing.T, srv *lightator.Server, url string, req any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	expired := srv.Metrics().Batcher.ExpiredFrames
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			resp.Body.Close()
			err = errors.New("answered " + resp.Status)
		}
		done <- err
	}()
	waitMetrics(t, srv, "a parked frame", func(m lightator.ServerMetrics) bool {
		for _, q := range m.Queues {
			if q.Occupancy > 0 {
				return true
			}
		}
		return false
	})
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: %v", err)
	}
	waitExpired(t, srv, expired+1)
}

// TestDeadlineDropsParkedFrame: a request whose deadline passes while
// its frame is parked answers 504 deadline_exceeded, counts one
// deadline timeout, and its frame is dropped at flush: the pipeline's
// frame count does not move.
func TestDeadlineDropsParkedFrame(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	srv, ts := testServer(t, acc, lightator.ServeOptions{
		Workers: 1, BatchDelay: 300 * time.Millisecond, RequestTimeout: 20 * time.Millisecond,
		CacheEntries: -1, AgreementFrames: -1,
	})
	before := srv.Metrics()
	req := lightator.NewProcessRequest(lightator.EncodeImage(testScene(3, 32, 32)), "edge", nil)
	status, body := postJSON(t, ts.URL+"/v1/process", req, nil)
	var e server.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || status != http.StatusGatewayTimeout || e.Code != server.CodeDeadlineExceeded {
		t.Fatalf("status %d, body %s; want 504 %s", status, body, server.CodeDeadlineExceeded)
	}
	after := waitExpired(t, srv, before.Batcher.ExpiredFrames+1)
	if got := after.DeadlineTimeouts - before.DeadlineTimeouts; got != 1 {
		t.Errorf("deadline timeouts rose by %d, want 1", got)
	}
	if b, a := before.Process["edge"].Frames, after.Process["edge"].Frames; a != b {
		t.Errorf("the edge pipeline ran %d frames for a request that had timed out", a-b)
	}
	if after.Batcher.BatchedFrames != before.Batcher.BatchedFrames+1 {
		t.Errorf("batched frames %d → %d, want one more", before.Batcher.BatchedFrames, after.Batcher.BatchedFrames)
	}
}

// TestClientCancelIsNotAnError: a client that hangs up while its frame
// is parked is not a server error. The request counts, its frame is
// dropped at flush, and the request error counter does not move.
func TestClientCancelIsNotAnError(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	srv, ts := testServer(t, acc, lightator.ServeOptions{
		Workers: 1, BatchDelay: 300 * time.Millisecond, CacheEntries: -1, AgreementFrames: -1,
	})
	before := srv.Metrics()
	req := lightator.NewProcessRequest(lightator.EncodeImage(testScene(4, 32, 32)), "edge", nil)
	cancelParked(t, srv, ts.URL+"/v1/process", req)
	after := waitMetrics(t, srv, "the cancelled request's accounting", func(m lightator.ServerMetrics) bool {
		return m.Endpoints["/v1/process"].Requests == before.Endpoints["/v1/process"].Requests+1
	})
	if b, a := before.Endpoints["/v1/process"].Errors, after.Endpoints["/v1/process"].Errors; a != b {
		t.Errorf("request errors rose by %d for a client that hung up", a-b)
	}
	if after.DeadlineTimeouts != before.DeadlineTimeouts {
		t.Errorf("a client cancel counted as a deadline timeout")
	}
	if b, a := before.Process["edge"].Frames, after.Process["edge"].Frames; a != b {
		t.Errorf("the edge pipeline ran %d frames for a client that hung up", a-b)
	}
}
