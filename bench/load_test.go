package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http/httputil"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToQueuedRequests injects a stall into one
// request of an open-loop schedule served by one connection: every
// request due during the stall must carry the wait in its latency and
// its generator lag, because latency counts from the due time, not from
// when the generator got round to sending.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		gap   = 10 * time.Millisecond
		stall = 200 * time.Millisecond
	)
	dues := make([]time.Duration, 10)
	for i := range dues {
		dues[i] = time.Duration(i) * gap
	}
	start := time.Now().Add(20 * time.Millisecond)
	// Request 0 is due before the window opens: warm-up, not recorded.
	win := window{from: start.Add(gap / 2), to: start.Add(time.Second)}
	samples := openLoop(context.Background(), 1, start, dues, win, func(_ context.Context, i int) bool {
		if i == 2 {
			time.Sleep(stall)
		}
		return true
	})
	if len(samples) != len(dues)-1 {
		t.Fatalf("%d samples, want %d (request 0 is warm-up)", len(samples), len(dues)-1)
	}
	// Request i >= 3 is due at i*gap but cannot start before request 2
	// (due at 2*gap) has stalled for its full length.
	for _, s := range samples {
		due := s.done.Add(-s.lat)
		i := int((due.Sub(start) + gap/2) / gap)
		if i < 3 {
			continue
		}
		floor := 2*gap + stall - time.Duration(i)*gap
		if s.lat < floor || s.late < floor {
			t.Errorf("request %d: latency %v, lag %v; the stall owes it at least %v", i, s.lat, s.late, floor)
		}
	}
}

// TestArrivalsFixTheCount checks the open-loop schedule: the offered
// count is fixed by rate and span, every arrival falls inside the span,
// and the schedule is sorted and seeded.
func TestArrivalsFixTheCount(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(7)), 40, time.Second, 2500*time.Millisecond)
	b := arrivals(rand.New(rand.NewSource(7)), 40, time.Second, 2500*time.Millisecond)
	if len(a) != 100 {
		t.Fatalf("%d arrivals at 40/s over 2.5s, want 100", len(a))
	}
	for i, d := range a {
		if d < time.Second || d >= 3500*time.Millisecond || (i > 0 && d < a[i-1]) || d != b[i] {
			t.Fatalf("arrival %d at %v: outside [1s, 3.5s), unsorted or not reproducible", i, d)
		}
	}
}

// TestFrameConnChunkedFraming checks the session stream's hand-written
// HTTP/1.1 framing both ways: request lines arrive as a valid chunked
// body, and NDJSON result lines split across arbitrary response chunks
// come back whole, in order, ending with the summary record.
func TestFrameConnChunkedFraming(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	fc := newFrameConn(client)
	lines := [][]byte{[]byte(`{"scene":{"h":1}}` + "\n"), []byte(`{"scene":{"h":2}}` + "\n")}
	wrote := make(chan error, 1)
	go func() {
		for _, l := range lines {
			if err := fc.writeFrame(l); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- fc.finish()
	}()
	body, err := io.ReadAll(httputil.NewChunkedReader(bufio.NewReader(server)))
	if err != nil {
		t.Fatalf("request body is not valid chunked encoding: %v", err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if want := bytes.Join(lines, nil); !bytes.Equal(body, want) {
		t.Fatalf("request body %q, want %q", body, want)
	}

	results := []string{`{"index":0,"plane":{"h":1}}`, `{"index":1,"plane":{"h":2}}`, `{"done":true,"stats":{}}`}
	go func() {
		var buf bytes.Buffer
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n")
		cw := httputil.NewChunkedWriter(&buf)
		all := []byte(fmt.Sprintf("%s\n%s\n%s\n", results[0], results[1], results[2]))
		for len(all) > 0 { // seven-byte chunks split lines mid-record
			n := min(7, len(all))
			cw.Write(all[:n])
			all = all[n:]
		}
		cw.Close()
		buf.WriteString("\r\n")
		server.Write(buf.Bytes())
	}()
	for i, want := range results {
		line, err := fc.next()
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if string(line) != want {
			t.Fatalf("line %d = %q, want %q", i, line, want)
		}
		if doneLine(line) != (i == len(results)-1) {
			t.Fatalf("line %d: doneLine = %v", i, doneLine(line))
		}
	}
	if _, err := fc.next(); err != io.EOF {
		t.Fatalf("after the summary: %v, want io.EOF", err)
	}
}
