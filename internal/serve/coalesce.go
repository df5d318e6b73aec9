package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"roadtrojan/internal/eval"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

// Micro-batching coalescer. Every evaluate and detect request parks in a
// small buffer in front of the executor instead of entering the job queue
// directly; the buffer flushes as one batch when either BatchSize requests
// are waiting (size flush) or BatchDeadline has elapsed since the first
// request arrived (deadline flush), whichever comes first — so an idle
// service adds at most one deadline of latency to a lone request while a
// busy one amortizes dispatch and, for evaluations, collapses duplicate
// patch digests into a single run. At BatchSize ≤ 1 every arrival is a size
// flush and no deadline timer is ever started. Closing the input channel
// flushes whatever is pending (drain flush) before the run loop exits.

// Flush reasons, used as the serve_batch_flushes_total label.
const (
	flushSize     = "size"
	flushDeadline = "deadline"
	flushDrain    = "drain"
)

// coalescer batches items of one request kind. The zero-goroutine contract:
// items enter through in (the sender handles full-buffer backpressure), one
// run loop owns the pending batch, and flush is called on the run loop
// goroutine — it must dispatch without blocking on results.
type coalescer[T any] struct {
	in    chan T
	done  chan struct{}
	size  int
	wait  time.Duration
	clock Clock
	flush func(batch []T, reason string)

	// Run-loop state, touched only by step.
	batch []T
	timer <-chan time.Time // armed exactly while batch is non-empty
}

func newCoalescer[T any](size, buffer int, wait time.Duration, clock Clock, flush func([]T, string)) *coalescer[T] {
	c := &coalescer[T]{
		in:    make(chan T, buffer),
		done:  make(chan struct{}),
		size:  size,
		wait:  wait,
		clock: clock,
		flush: flush,
	}
	go c.run()
	return c
}

// run feeds the select loop's events to step. A nil timer channel blocks
// forever, which is exactly the idle state.
func (c *coalescer[T]) run() {
	defer close(c.done)
	var none T
	for {
		select {
		case it, ok := <-c.in:
			if !ok {
				c.step(flushDrain, none)
				return
			}
			c.step("", it)
		case <-c.timer:
			c.step(flushDeadline, none)
		}
	}
}

// step applies one run-loop event to the pending batch. An arrival (reason
// "") appends it, flushes on size, and starts the deadline timer with the
// first item of a batch still below size; the timer firing (flushDeadline)
// or the input closing (flushDrain) flushes what is pending.
func (c *coalescer[T]) step(reason string, it T) {
	if reason == "" {
		c.batch = append(c.batch, it)
		if len(c.batch) < c.size {
			if len(c.batch) == 1 {
				c.timer = c.clock.After(c.wait)
			}
			return
		}
		reason = flushSize
	}
	if len(c.batch) > 0 {
		c.flush(c.batch, reason)
	}
	c.batch, c.timer = nil, nil
}

// check verifies the run-loop state: the pending batch is shorter than
// size, and the deadline timer is armed exactly when the batch is
// non-empty. The model test runs it after every step.
//
//rtlint:ignore deadcode invariant checker: tests run it after every step; the hot path has no hook
func (c *coalescer[T]) check() error {
	if len(c.batch) >= c.size {
		return fmt.Errorf("serve: coalescer holds %d pending items at batch size %d", len(c.batch), c.size)
	}
	if (c.timer != nil) != (len(c.batch) > 0) {
		return fmt.Errorf("serve: coalescer timer armed=%v with %d pending items", c.timer != nil, len(c.batch))
	}
	return nil
}

// close stops intake and waits for the final drain flush to dispatch.
func (c *coalescer[T]) close() {
	close(c.in)
	<-c.done
}

// reply is one waiter's outcome: an EvalResponse or DetectResponse, or err.
type reply struct {
	v   any
	err error
}

// waiter is what every parked request carries into its flush: its context
// (the request's own deadline capped by JobTimeout), a buffered reply
// channel so fan-out never blocks on a waiter that gave up, the parked
// time and trace ID feeding the batch_wait stage histogram, and its flush
// group: nil while parked, the group once dispatched, departed once await
// has returned on ctx.
type waiter struct {
	ctx     context.Context
	done    chan reply
	parked  time.Time
	traceID string
	group   atomic.Pointer[flushGroup]
}

func (w *waiter) base() *waiter { return w }

// parkedCall is a request kind the coalescers carry: *evalCall or
// *detectCall.
type parkedCall interface{ base() *waiter }

// evalCall is one cache-missed evaluate request: its cache key (the dedupe
// identity) and the prepared job.
type evalCall struct {
	waiter
	key string
	job eval.Job
}

// detectCall is one detect request. The batched forward/decode spans parent
// to the span on the first caller's context in each group.
type detectCall struct {
	waiter
	req DetectRequest
}

// observeFlush records one flush: its trigger, its occupancy, and how long
// each request sat parked.
func observeFlush[C parkedCall](e *Executor, batch []C, reason string) {
	e.flushCounter(reason).Inc()
	e.batchOccupancy.Observe(float64(len(batch)))
	now := e.cfg.Clock.Now()
	for _, c := range batch {
		w := c.base()
		e.observeStage(StageBatchWait, now.Sub(w.parked), w.traceID)
	}
}

// groupBy splits a batch into groups sharing a key, in first-arrival order.
func groupBy[C any, K comparable](batch []C, key func(C) K) [][]C {
	index := make(map[K]int, len(batch))
	var groups [][]C
	for _, c := range batch {
		k := key(c)
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], c)
	}
	return groups
}

// flushEvaluate dispatches one evaluate batch: requests are grouped by cache
// key, each group re-checks the cache (an earlier flush may have filled it
// while these waited), and each remaining unique key becomes exactly one
// pool task whose result fans out to every waiter in the group and fills the
// cache once.
func (e *Executor) flushEvaluate(batch []*evalCall, reason string) {
	observeFlush(e, batch, reason)
	for _, g := range groupBy(batch, func(c *evalCall) string { return c.key }) {
		if len(g) > 1 {
			e.batchDedup.Add(int64(len(g) - 1))
		}
		if v, ok := e.cache.get(g[0].key); ok {
			resp := detailToResponse(v.(eval.Detail))
			resp.Cached = true
			for _, c := range g {
				e.cacheHits.Inc()
				c.done <- reply{v: resp}
			}
			continue
		}
		e.cacheMisses.Inc()
		e.dispatchEvalGroup(g)
	}
}

// dispatchEvalGroup runs one unique cache key's job once, caches the detail,
// and answers every waiter in the group with the same response.
func (e *Executor) dispatchEvalGroup(g []*evalCall) {
	key, job := g[0].key, g[0].job
	dispatchGroup(e, g, func(det *yolo.Model) ([]any, error) {
		job.Det = det
		d, err := e.cfg.Job(job)
		if err != nil {
			return nil, err
		}
		e.cache.put(key, d, detailBytes(d))
		resp := detailToResponse(d)
		vs := make([]any, len(g))
		for i := range vs {
			vs[i] = resp
		}
		return vs, nil
	})
}

// flushDetect dispatches one detect batch: frames are grouped by resolution
// and each group runs as one pool task — the batch-first inference path.
func (e *Executor) flushDetect(batch []*detectCall, reason string) {
	observeFlush(e, batch, reason)
	type dims struct{ h, w int }
	for _, g := range groupBy(batch, func(c *detectCall) dims { return dims{c.req.Height, c.req.Width} }) {
		e.dispatchDetectGroup(g)
	}
}

// dispatchDetectGroup stacks one same-resolution group into a single
// [N,3,H,W] tensor, runs one batched forward plus per-sample decode, and
// answers each waiter with its own frame's detections.
func (e *Executor) dispatchDetectGroup(g []*detectCall) {
	h, w := g[0].req.Height, g[0].req.Width
	pixels := make([]float64, 0, len(g)*3*h*w)
	for _, c := range g {
		pixels = append(pixels, c.req.Image...)
	}
	img := tensor.FromSlice(pixels, len(g), 3, h, w)
	// The batched forward runs once for the whole group; its spans and
	// stage observations attribute to the group's first caller (the request
	// whose arrival opened the batch window).
	lead, hook := obs.SpanFromContext(g[0].ctx), e.stageHook(g[0].traceID)
	dispatchGroup(e, g, func(det *yolo.Model) ([]any, error) {
		fsp := lead.Child(StageForward, obs.I("batch", len(g)))
		end := hook(StageForward)
		heads := det.Forward(img)
		end()
		fsp.End()
		dsp := lead.Child(StageDecode, obs.I("batch", len(g)))
		end = hook(StageDecode)
		lists := det.DecodeBatch(heads, yolo.DefaultDecode())
		end()
		dsp.End()
		vs := make([]any, len(lists))
		for i, dets := range lists {
			vs[i] = DetectResponse{Detections: toWireDetections(dets)}
		}
		return vs, nil
	})
}
