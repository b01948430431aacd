package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lightator/internal/pipeline"
	"lightator/internal/sensor"
)

// Admission-control sentinels. They are typed apiErrors (compared by
// pointer identity via errors.Is) so handlers get status and code along
// with the sentinel.
var (
	// errOverloaded means the bounded submission queue was full (429).
	errOverloaded = apiErr(http.StatusTooManyRequests, CodeOverloaded, "overloaded, request queue full")
	// errDraining means the server is shutting down (503).
	errDraining = apiErr(http.StatusServiceUnavailable, CodeDraining, "draining, not accepting new work")
)

// batchItem is one request's trip through the micro-batcher. Once
// submit accepts it, the batch owns scene. Once ctx, the request's
// context, is done, nobody waits for the result.
type batchItem struct {
	ctx   context.Context
	seed  int64
	scene *sensor.Image
	// done receives exactly one Result. It is buffered, so delivery never
	// blocks a flush on a departed client.
	done chan pipeline.Result
}

// batcher coalesces single-frame submissions into pipeline batches. A
// collector goroutine accumulates items and flushes when the batch fills
// (size trigger) or when BatchDelay has elapsed since the batch's first
// item (deadline trigger) — the classic dynamic micro-batching policy.
// Flushes run on their own goroutines, bounded by a slot semaphore, so
// the collector keeps admitting while a batch is in the pipeline.
//
// Every frame carries its own seed into pipeline.RunSeeded, so which
// requests happen to share a batch can never change any response — the
// property the serving determinism contract rests on.
type batcher struct {
	pipe  *pipeline.Pipeline
	size  int
	delay time.Duration
	m     *metrics

	in    chan batchItem
	slots chan struct{} // limits concurrent in-flight flushes

	// parked gauges the collector's currently-accumulating batch (frames
	// admitted but not yet dispatched) for the observability layer.
	parked atomic.Int64

	// mu orders submissions against shutdown: close() flips closed under
	// the write lock, so once it proceeds no submit can still be mid-
	// enqueue and the final drain sweep is guaranteed to see every
	// admitted item.
	mu       sync.RWMutex
	closed   bool
	quit     chan struct{} // closed by close(): collector flushes and exits
	done     chan struct{} // closed by the collector on exit
	flushing sync.WaitGroup
}

// newBatcher starts the collector. queue bounds admission; maxFlights
// bounds concurrent pipeline batches.
func newBatcher(pipe *pipeline.Pipeline, size, queue, maxFlights int, delay time.Duration, m *metrics) *batcher {
	b := &batcher{
		pipe:  pipe,
		size:  size,
		delay: delay,
		m:     m,
		in:    make(chan batchItem, queue),
		slots: make(chan struct{}, maxFlights),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go b.collect()
	return b
}

// submit enqueues one item without blocking; a full queue is an overload.
func (b *batcher) submit(it batchItem) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return errDraining
	}
	select {
	case b.in <- it:
		return nil
	default:
		return errOverloaded
	}
}

// collect is the batching loop. It never processes frames itself: full
// batches are handed to dispatch, which runs them on a flush goroutine.
func (b *batcher) collect() {
	defer close(b.done)
	for {
		// Wait for the batch's first item; its arrival starts the clock.
		var first batchItem
		select {
		case first = <-b.in:
		case <-b.quit:
			b.drainRemaining()
			return
		}
		batch := []batchItem{first}
		b.parked.Store(1)
		timer := time.NewTimer(b.delay)
		trigger := flushDeadline
	collecting:
		for len(batch) < b.size {
			select {
			case it := <-b.in:
				batch = append(batch, it)
				b.parked.Store(int64(len(batch)))
			case <-timer.C:
				break collecting
			case <-b.quit:
				trigger = flushDrain
				break collecting
			}
		}
		if len(batch) == b.size {
			trigger = flushSize
		}
		timer.Stop()
		b.parked.Store(0)
		b.dispatch(batch, trigger)
		select {
		case <-b.quit:
			b.drainRemaining()
			return
		default:
		}
	}
}

// drainRemaining flushes whatever is still queued at shutdown so every
// admitted request gets its response before Drain returns.
func (b *batcher) drainRemaining() {
	var batch []batchItem
	for {
		select {
		case it := <-b.in:
			batch = append(batch, it)
			if len(batch) == b.size {
				b.dispatch(batch, flushDrain)
				batch = nil
			}
		default:
			if len(batch) > 0 {
				b.dispatch(batch, flushDrain)
			}
			return
		}
	}
}

// dispatch runs one batch through the pipeline on its own goroutine,
// bounded by the flight slots, and delivers each frame's result. A frame
// whose request has already ended is dropped unrun. Every scene goes
// back to its pool before any result is delivered: results never alias
// a scene.
func (b *batcher) dispatch(batch []batchItem, trigger flushTrigger) {
	b.slots <- struct{}{}
	b.flushing.Add(1)
	go func() {
		defer func() {
			<-b.slots
			b.flushing.Done()
		}()
		live, jobs := batch[:0], make([]pipeline.SeededScene, 0, len(batch))
		for _, it := range batch {
			if it.ctx.Err() != nil {
				putScene(it.scene)
				continue
			}
			live = append(live, it)
			jobs = append(jobs, pipeline.SeededScene{Seed: it.seed, Scene: it.scene})
		}
		b.m.flush(len(batch), len(batch)-len(live), trigger)
		if len(live) == 0 {
			return
		}
		results, _, err := b.pipe.RunSeeded(jobs)
		for _, it := range live {
			putScene(it.scene)
		}
		for i, it := range live {
			res := pipeline.Result{Err: err}
			if err == nil {
				res = results[i]
			}
			it.done <- res
		}
	}()
}

// queueDepth gauges admitted-but-uncollected frames (channel backlog).
func (b *batcher) queueDepth() int { return len(b.in) }

// load gauges queue fullness in [0,1] — the tiered shedder's input.
func (b *batcher) load() float64 { return float64(len(b.in)) / float64(cap(b.in)) }

// inflightBatches gauges pipeline batches currently executing.
func (b *batcher) inflightBatches() int { return len(b.slots) }

// occupancy gauges the collector's accumulating (parked) batch size.
func (b *batcher) occupancy() int { return int(b.parked.Load()) }

// close stops admission, flushes everything already queued, and waits for
// in-flight flushes, so every admitted request has its response delivered
// before close returns. Safe to call once.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	close(b.quit)
	<-b.done
	b.flushing.Wait()
}
