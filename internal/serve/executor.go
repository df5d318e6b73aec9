package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/eval"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/telemetry"
	"roadtrojan/internal/yolo"
)

// ErrBadRequest wraps request validation failures so transports (HTTP 400,
// fabric bad_request frames) can distinguish caller mistakes from capacity
// and execution errors.
var ErrBadRequest = errors.New("serve: bad request")

// Executor is the transport-free evaluation core: the worker pool of
// detector replicas, the shared scenes, the LRU result cache, and the
// capacity metrics. Both the HTTP Server and the fabric node front it; it
// knows nothing about either wire.
type Executor struct {
	cfg    Config
	reg    *telemetry.Registry
	cam    scene.Camera
	scenes map[string]attack.Scene
	cache  *lruCache
	jobs   chan *task
	wg     sync.WaitGroup

	// Micro-batching coalescers: every request enters the job queue
	// through one of them.
	evalCo   *coalescer[*evalCall]
	detectCo *coalescer[*detectCall]

	drainMu  sync.RWMutex
	draining bool
	// poolClosed guards the jobs channel close: the coalescers' drain
	// flushes may still enqueue after draining is set (external intake is
	// already refused), so the channel closes only once they have exited.
	poolClosed bool

	// jobSeconds is an EWMA of observed job wall time (float64 bits),
	// feeding the Retry-After hint on queue-full rejections.
	jobSeconds atomic.Uint64

	queueDepth     *telemetry.Gauge
	inflight       *telemetry.Gauge
	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	rejected       *telemetry.Counter
	panics         *telemetry.Counter
	batchDedup     *telemetry.Counter
	batchOccupancy *telemetry.Histogram
	flushCounters  map[string]*telemetry.Counter
	stageHist      map[string]*telemetry.Histogram
}

// NewExecutor builds the evaluation core around a trained detector, cloning
// one fused inference-mode replica per worker and starting the pool. The
// caller keeps ownership of det; the executor never runs inference on it. A
// nil registry gets a fresh one (see Metrics).
func NewExecutor(det *yolo.Model, cfg Config, reg *telemetry.Registry) *Executor {
	cfg.fillDefaults()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	e := &Executor{
		cfg:   cfg,
		reg:   reg,
		cam:   scene.DefaultCamera(),
		cache: newLRUCache(cfg.CacheSize, cfg.CacheBytes),
		jobs:  make(chan *task, cfg.QueueSize),

		queueDepth:  reg.Gauge("serve_queue_depth", "jobs waiting in the bounded queue", nil),
		inflight:    reg.Gauge("serve_inflight_jobs", "jobs currently executing on workers", nil),
		cacheHits:   reg.Counter("serve_cache_hits_total", "evaluate requests answered from the result cache", nil),
		cacheMisses: reg.Counter("serve_cache_misses_total", "evaluate requests that had to run", nil),
		rejected:    reg.Counter("serve_rejected_total", "requests rejected with 429 (queue full)", nil),
		panics:      reg.Counter("serve_job_panics_total", "jobs that panicked and were converted to errors", nil),
		batchDedup:  reg.Counter("serve_batch_dedup_total", "batched evaluate requests collapsed onto another request's run (duplicate cache key in one flush)", nil),
		batchOccupancy: reg.Histogram("serve_batch_occupancy", "requests per coalescer flush",
			nil, []float64{1, 2, 4, 8, 16}),
		flushCounters: map[string]*telemetry.Counter{},
	}
	for _, reason := range []string{flushSize, flushDeadline, flushDrain} {
		e.flushCounters[reason] = reg.Counter("serve_batch_flushes_total", "coalescer flushes by trigger",
			telemetry.Labels{"reason": reason})
	}
	e.initStages()
	reg.Gauge("serve_workers", "worker pool size", nil).Set(float64(cfg.Workers))
	reg.Gauge("serve_queue_capacity", "bounded job queue capacity", nil).Set(float64(cfg.QueueSize))
	reg.GaugeFunc("serve_cache_bytes", "estimated payload bytes held by the result cache", nil,
		func() float64 { return float64(e.cache.bytes()) })
	// The hit ratio is derived at scrape time from the live counters, so
	// /metrics exposes cache-affinity quality without a second bookkeeping
	// path that could drift from the counters.
	reg.GaugeFunc("serve_cache_hit_ratio", "fraction of evaluate lookups served from the result cache", nil,
		func() float64 {
			h, m := e.cacheHits.Value(), e.cacheMisses.Value()
			if h+m == 0 {
				return 0
			}
			return float64(h) / float64(h+m)
		})

	// The two locations evaluation requests can name. Built once: painting
	// the target arrow mutates the ground, but after this the scenes are
	// read-only (Deploy composites onto a clone of the texture).
	e.scenes = map[string]attack.Scene{"road": eval.RoadScene(), "sim": eval.SimScene()}

	for i := 0; i < cfg.Workers; i++ {
		replica := det.Clone()
		replica.SetTraining(false)
		// Fused conv blocks: one convolution and one in-place batch-norm
		// and rectifier pass each, rounding like the unfused chain —
		// replicas answer the same bytes as an unfused detector would.
		replica.SetFused(true)
		e.wg.Add(1)
		go e.worker(replica)
	}
	size := max(cfg.BatchSize, 1)
	e.evalCo = newCoalescer(size, cfg.QueueSize, cfg.BatchDeadline, cfg.Clock, e.flushEvaluate)
	e.detectCo = newCoalescer(size, cfg.QueueSize, cfg.BatchDeadline, cfg.Clock, e.flushDetect)
	return e
}

// flushCounter returns the serve_batch_flushes_total counter for a reason.
func (e *Executor) flushCounter(reason string) *telemetry.Counter {
	return e.flushCounters[reason]
}

// Metrics exposes the registry the executor's counters live in.
func (e *Executor) Metrics() *telemetry.Registry { return e.reg }

// Workers reports the pool size.
func (e *Executor) Workers() int { return e.cfg.Workers }

// QueueDepth reports the number of queued (not yet running) jobs.
func (e *Executor) QueueDepth() int { return len(e.jobs) }

// QueueCapacity reports the bounded queue capacity.
func (e *Executor) QueueCapacity() int { return cap(e.jobs) }

// Inflight reports the number of jobs currently executing on workers.
func (e *Executor) Inflight() int { return int(e.inflight.Value()) }

// CachedResults reports the number of entries in the result cache.
func (e *Executor) CachedResults() int { return e.cache.len() }

// Draining reports whether Close has begun; new submissions are refused.
func (e *Executor) Draining() bool {
	e.drainMu.RLock()
	defer e.drainMu.RUnlock()
	return e.draining
}

// RetryAfterSeconds estimates how long a rejected caller should wait before
// the queue has drained: queued work divided by pool parallelism, scaled by
// the observed per-job wall time. Clamped to [1,60] so the hint is always
// usable in a Retry-After header.
func (e *Executor) RetryAfterSeconds() int {
	per := math.Float64frombits(e.jobSeconds.Load())
	if per <= 0 {
		per = 1
	}
	pending := float64(len(e.jobs) + 1)
	sec := int(math.Ceil(per * pending / float64(e.cfg.Workers)))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// observeJobSeconds folds one job duration into the EWMA behind
// RetryAfterSeconds.
func (e *Executor) observeJobSeconds(d time.Duration) {
	const alpha = 0.3
	s := d.Seconds()
	for {
		old := e.jobSeconds.Load()
		prev := math.Float64frombits(old)
		next := s
		if prev > 0 {
			next = alpha*s + (1-alpha)*prev
		}
		if e.jobSeconds.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Evaluate runs one scenario evaluation (or serves it from the cache),
// applying the configured per-job deadline on top of ctx. A cache miss parks
// in the evaluate coalescer and runs with its flush group, once per unique
// cache key. Validation failures are reported wrapped in ErrBadRequest;
// capacity exhaustion as ErrQueueFull; drain as ErrShuttingDown.
func (e *Executor) Evaluate(ctx context.Context, req EvalRequest) (EvalResponse, error) {
	reqSpan := obs.SpanFromContext(ctx)
	start := e.cfg.Clock.Now()
	defer func() {
		e.observeStage(StageTotal, e.cfg.Clock.Now().Sub(start), reqSpan.TraceID())
	}()

	// Cache short-circuit happens before validation and batching: only a
	// request that passed validation and ran is ever cached, and the key
	// covers every field, so a hit needs neither the patch decode nor a
	// batch slot.
	req.applyDefaults()
	key := req.cacheKey()
	if d, ok := e.cache.get(key); ok {
		e.cacheHits.Inc()
		resp := detailToResponse(d.(eval.Detail))
		resp.Cached = true
		return resp, nil
	}
	p, target, err := req.normalize()
	if err != nil {
		return EvalResponse{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	cond := eval.DefaultCondition()
	if req.Mode == "digital" {
		cond = eval.Digital()
	}
	cond.Runs = req.Runs
	cond.Seed = req.Seed

	job := eval.Job{
		Cam:    e.cam,
		Scene:  e.scenes[req.Scene],
		Patch:  p,
		Target: target,
		Ch:     scene.Challenges(req.Challenge)[0],
		Cond:   cond,
		// Observability riders — never part of the cache identity. Parent
		// hangs the eval span (and its per-frame forward/decode leaves) off
		// the request's causal tree; Stages feeds the stage histograms.
		Parent: reqSpan,
		Stages: e.stageHook(reqSpan.TraceID()),
	}
	sp := e.spanUnder(reqSpan, "evaluate_batched", obs.S("key", key))
	ctx, cancel := context.WithTimeout(ctx, e.cfg.JobTimeout)
	defer cancel()
	call := &evalCall{waiter: e.newWaiter(ctx), key: key, job: job}
	return await[EvalResponse](e, e.evalCo, call, sp)
}

// newWaiter stamps a request about to park: its deadline-carrying context,
// a reply channel, and the batch_wait bookkeeping.
func (e *Executor) newWaiter(ctx context.Context) waiter {
	return waiter{ctx: ctx, done: make(chan reply, 1), parked: e.cfg.Clock.Now(),
		traceID: obs.SpanFromContext(ctx).TraceID()}
}

// await parks call in co and waits for its flush group's reply or its own
// context, whichever comes first. sp brackets the full park-to-answer
// window, so traces show what coalescing costs each request.
func await[R any, C parkedCall](e *Executor, co *coalescer[C], call C, sp *obs.Span) (R, error) {
	w := call.base()
	r := reply{err: park(e, co.in, call)}
	if r.err == nil {
		select {
		case r = <-w.done:
		case <-w.ctx.Done():
			r.err = w.ctx.Err()
			if g := w.group.Swap(departed); g != nil {
				g.leave()
			}
		}
	}
	sp.End(obs.S("outcome", errOutcome(r.err)))
	if r.err != nil {
		var zero R
		return zero, r.err
	}
	return r.v.(R), nil
}

// spanUnder opens name as a child of parent when the request carries a
// span, falling back to a top-level span on the configured trace — so the
// batching spans join the causal tree when one exists and keep their
// pre-tracing shape when not.
func (e *Executor) spanUnder(parent *obs.Span, name string, attrs ...obs.Attr) *obs.Span {
	if parent.Enabled() {
		return parent.Child(name, attrs...)
	}
	return e.cfg.Trace.Span(name, attrs...)
}

// park places a call in a coalescer buffer without blocking: refused once
// draining starts, queue-full when the buffer is at capacity. Holding the
// read lock across the send keeps the channel-close in Close safely ordered
// behind every in-flight send.
func park[T any](e *Executor, in chan T, call T) error {
	e.drainMu.RLock()
	defer e.drainMu.RUnlock()
	if e.draining {
		return ErrShuttingDown
	}
	select {
	case in <- call:
		return nil
	default:
		e.rejected.Inc()
		return ErrQueueFull
	}
}

// errOutcome maps executor errors to span outcome labels.
func errOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrShuttingDown):
		return "shutting_down"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "ctx"
	default:
		return "error"
	}
}

// Detect runs one rendered frame through the detect coalescer: concurrent
// same-resolution frames flushed together share a single batched forward on
// a worker's detector replica, and at BatchSize ≤ 1 each frame runs alone as
// a batch of one. The per-job deadline applies on top of ctx, as for
// Evaluate.
func (e *Executor) Detect(ctx context.Context, req DetectRequest) (DetectResponse, error) {
	reqSpan := obs.SpanFromContext(ctx)
	start := e.cfg.Clock.Now()
	defer func() {
		e.observeStage(StageTotal, e.cfg.Clock.Now().Sub(start), reqSpan.TraceID())
	}()
	if err := req.validate(); err != nil {
		return DetectResponse{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	sp := e.spanUnder(reqSpan, "detect_batched", obs.I("pixels", len(req.Image)))
	ctx, cancel := context.WithTimeout(ctx, e.cfg.JobTimeout)
	defer cancel()
	call := &detectCall{waiter: e.newWaiter(ctx), req: req}
	return await[DetectResponse](e, e.detectCo, call, sp)
}

// Close drains gracefully: refuse new submissions, let the coalescers flush
// whatever is parked (those requests still run), then close the queue and
// wait for the workers to empty it. Idempotent; safe to call from multiple
// owners.
func (e *Executor) Close(context.Context) error {
	e.drainMu.Lock()
	already := e.draining
	e.draining = true
	e.drainMu.Unlock()
	if !already {
		// External intake is now refused; the coalescers' drain flushes may
		// still enqueue through enqueueTask (gated on poolClosed), so the
		// jobs channel closes only after both run loops have exited.
		e.evalCo.close()
		e.detectCo.close()
		e.drainMu.Lock()
		e.poolClosed = true
		close(e.jobs)
		e.drainMu.Unlock()
	}
	e.wg.Wait()
	return nil
}
