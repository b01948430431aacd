package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one measured request, timed from when it was due: for a
// closed loop, when its client finished the previous request; for the
// open loop, its scheduled arrival.
type sample struct {
	lat  time.Duration // completion minus due time
	late time.Duration // send start minus due time (generator lag)
	ok   bool
	done time.Time
}

// window is the measured part of a round; requests due before from are
// warm-up and not recorded, and none is sent once to has passed.
type window struct{ from, to time.Time }

func (w window) contains(t time.Time) bool { return !t.Before(w.from) && t.Before(w.to) }

// collector gathers samples from concurrent senders.
type collector struct {
	mu      sync.Mutex
	samples []sample
}

func (c *collector) add(w window, due, start, end time.Time, ok bool) {
	if !w.contains(due) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, sample{lat: end.Sub(due), late: start.Sub(due), ok: ok, done: end})
}

// closedLoop runs clients that each send their next request as soon as
// the previous one completes, until w.to. send performs one request and
// reports whether it succeeded and passed its output check.
func closedLoop(ctx context.Context, clients int, w window, send func(ctx context.Context) bool) []sample {
	var (
		col collector
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now()
			for due.Before(w.to) && ctx.Err() == nil {
				start := time.Now()
				ok := send(ctx)
				end := time.Now()
				col.add(w, due, start, end, ok)
				due = end
			}
		}()
	}
	wg.Wait()
	return col.samples
}

// arrivals draws a seeded Poisson schedule of rate per second over
// [from, from+span): offsets from the round's start at which requests
// are due. The count is fixed at rate*span, rounded up, and the times are sorted
// uniform draws, which is a Poisson process conditioned on its count:
// bursts as a Poisson process has them, the same offered load on every
// seed.
func arrivals(rng *rand.Rand, rate float64, from, span time.Duration) []time.Duration {
	dues := make([]time.Duration, int(math.Ceil(rate*span.Seconds())))
	for i := range dues {
		dues[i] = from + time.Duration(rng.Int63n(int64(span)))
	}
	slices.Sort(dues)
	return dues
}

// openLoop sends request i at start+dues[i] over at most workers
// connections. A request whose connections are all busy waits for one,
// and its latency still counts from its due time, so a stall is charged
// to every request queued behind it.
func openLoop(ctx context.Context, workers int, start time.Time, dues []time.Duration, w window, send func(ctx context.Context, i int) bool) []sample {
	var (
		col  collector
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) || ctx.Err() != nil {
					return
				}
				due := start.Add(dues[i])
				if wait := time.Until(due); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				sent := time.Now()
				ok := send(ctx, i)
				col.add(w, due, sent, time.Now(), ok)
			}
		}()
	}
	wg.Wait()
	return col.samples
}

// frameConn is one POST /v1/session/{id}/frames request spoken over a
// raw TCP connection with hand-written chunked framing: net/http's
// HTTP/1.1 client buffers request-body writes and stops uploading once
// response headers arrive, which an interactive frame stream cannot
// tolerate. Writes belong to one goroutine and reads to another.
type frameConn struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	sc   *bufio.Scanner
}

// dialFrames opens the frame stream of session id on the server at url.
func dialFrames(url, id string, deadline time.Time) (*frameConn, error) {
	host := strings.TrimPrefix(url, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(deadline); err != nil {
		conn.Close()
		return nil, err
	}
	fc := newFrameConn(conn)
	_, err = fmt.Fprintf(fc.bw, "POST /v1/session/%s/frames HTTP/1.1\r\nHost: %s\r\n"+
		"Content-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n", id, host)
	if err == nil {
		err = fc.bw.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return fc, nil
}

func newFrameConn(conn net.Conn) *frameConn {
	return &frameConn{conn: conn, bw: bufio.NewWriterSize(conn, 64<<10), br: bufio.NewReaderSize(conn, 64<<10)}
}

// writeFrame sends one NDJSON line as one chunk, so the server always
// sees whole lines promptly.
func (fc *frameConn) writeFrame(line []byte) error {
	if _, err := fmt.Fprintf(fc.bw, "%x\r\n", len(line)); err != nil {
		return err
	}
	if _, err := fc.bw.Write(line); err != nil {
		return err
	}
	if _, err := fc.bw.WriteString("\r\n"); err != nil {
		return err
	}
	return fc.bw.Flush()
}

// finish ends the request body with the terminal chunk.
func (fc *frameConn) finish() error {
	if _, err := fc.bw.WriteString("0\r\n\r\n"); err != nil {
		return err
	}
	return fc.bw.Flush()
}

// next returns the next NDJSON response line; the first call reads the
// response head and fails on a non-200 status. The line is valid until
// the following call.
func (fc *frameConn) next() ([]byte, error) {
	if fc.sc == nil {
		resp, err := http.ReadResponse(fc.br, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: frame stream response: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return nil, fmt.Errorf("bench: frame stream answered %d: %s", resp.StatusCode, body)
		}
		fc.sc = bufio.NewScanner(resp.Body)
		fc.sc.Buffer(make([]byte, 64<<10), 64<<20)
	}
	if !fc.sc.Scan() {
		if err := fc.sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	return fc.sc.Bytes(), nil
}

func (fc *frameConn) close() { fc.conn.Close() }

// doneLine reports whether an NDJSON line is the stream's trailing
// summary record.
func doneLine(line []byte) bool { return bytes.HasPrefix(line, []byte(`{"done":true`)) }

// streamFrames drives one frame stream with at most depth frames in
// flight, sending frame(i) for i = 0, 1, ... while more(i) holds and
// handing every result line to result. A frame is due when a slot frees
// up, which makes the stream a closed loop of depth clients. It returns
// the trailing summary line.
func streamFrames(ctx context.Context, fc *frameConn, depth int, frame func(i int) []byte, more func(i int, due time.Time) bool,
	result func(i int, due, sent time.Time, line []byte) error) ([]byte, error) {
	type inflight struct{ due, sent time.Time }
	slots := make(chan struct{}, depth)
	pending := make(chan inflight, depth)
	writeErr := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		defer close(pending)
		for i := 0; ; i++ {
			select {
			case slots <- struct{}{}:
			case <-stop:
				writeErr <- nil
				return
			}
			due := time.Now()
			if !more(i, due) || ctx.Err() != nil {
				writeErr <- fc.finish()
				return
			}
			sent := time.Now()
			if err := fc.writeFrame(frame(i)); err != nil {
				writeErr <- err
				return
			}
			pending <- inflight{due, sent}
		}
	}()
	// end stops the writer, waits for it and joins its error with err.
	end := func(err error) error {
		if err != nil {
			fc.close()
		}
		close(stop)
		return errors.Join(err, <-writeErr)
	}
	for i := 0; ; i++ {
		line, err := fc.next()
		if err != nil {
			return nil, end(err)
		}
		if doneLine(line) {
			return bytes.Clone(line), end(nil)
		}
		f, ok := <-pending
		if !ok {
			return nil, end(fmt.Errorf("bench: frame stream sent result %d for no pending frame", i))
		}
		if err := result(i, f.due, f.sent, line); err != nil {
			return nil, end(err)
		}
		<-slots
	}
}
