package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"roadtrojan/internal/yolo"
)

// ErrQueueFull is returned when the bounded job queue (or the coalescer
// buffer in front of it) is at capacity; the HTTP layer maps it to 429 Too
// Many Requests and the fabric node to a queue_full frame.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrShuttingDown is returned once drain has begun; the HTTP layer maps it
// to 503 Service Unavailable.
var ErrShuttingDown = errors.New("serve: shutting down")

// task is one queued unit of work: one coalescer flush group. run receives
// the worker's private detector replica and returns one value per waiter, in
// group order; finish fans the outcome out and must not block. enqueued
// stamps when the task entered the bounded queue (feeding the queue_wait
// stage histogram, exemplared with traceID).
type task struct {
	ctx      context.Context
	run      func(det *yolo.Model) ([]any, error)
	finish   func(vs []any, err error)
	enqueued time.Time
	traceID  string
}

// enqueueTask is the one way into the worker queue. It places a task on the
// bounded queue without blocking — a full queue is backpressure, not a wait —
// and counts one rejection per waiter the task serves. It gates on
// poolClosed rather than draining: drain flushes run after external intake
// stops but before the queue closes, so already-parked requests still
// execute during a graceful shutdown.
func (e *Executor) enqueueTask(t *task, waiters int) error {
	e.drainMu.RLock()
	defer e.drainMu.RUnlock()
	if e.poolClosed {
		return ErrShuttingDown
	}
	t.enqueued = e.cfg.Clock.Now()
	select {
	case e.jobs <- t:
		e.queueDepth.Add(1)
		return nil
	default:
		e.rejected.Add(int64(waiters))
		return ErrQueueFull
	}
}

// dispatchGroup enqueues one pool task on behalf of a flush group and fans
// run's values out to the group's waiters, value i to waiter i. The task's
// context is the group's deadline: it is cancelled once every waiter has
// left (see flushGroup), so the pool skips a group nobody is waiting for any
// more, while a deduped group still runs as long as one waiter is. A
// one-waiter group therefore carries exactly its request's deadline.
func dispatchGroup[C parkedCall](e *Executor, g []C, run func(det *yolo.Model) ([]any, error)) {
	fg := &flushGroup{}
	fg.ctx, fg.cancel = context.WithCancel(context.Background())
	fg.waiting.Store(int64(len(g)))
	for _, c := range g {
		if !c.base().group.CompareAndSwap(nil, fg) {
			fg.leave() // its await returned before the flush
		}
	}
	t := &task{ctx: fg.ctx, run: run, traceID: g[0].base().traceID, finish: func(vs []any, err error) {
		fg.cancel()
		for i, c := range g {
			r := reply{err: err}
			if err == nil {
				r.v = vs[i]
			}
			c.base().done <- r
		}
	}}
	if err := e.enqueueTask(t, len(g)); err != nil {
		t.finish(nil, err)
	}
}

// flushGroup is one dispatched group's context and the number of its
// waiters still waiting. A waiter whose own context ends leaves the group
// inside await, before await returns, so once the last waiter's caller
// holds its error the group context is already cancelled and no worker can
// start the group after that.
type flushGroup struct {
	ctx     context.Context
	cancel  context.CancelFunc
	waiting atomic.Int64
}

// leave counts one waiter out; the last one out cancels the group context.
func (g *flushGroup) leave() {
	if g.waiting.Add(-1) == 0 {
		g.cancel()
	}
}

// departed marks a waiter whose await has returned on its own context, so a
// later dispatch counts it out at once.
var departed = new(flushGroup)

// worker drains the job queue with its own detector replica until the queue
// closes at shutdown. One clock read at dequeue ends the queue wait and
// starts the job time behind the Retry-After estimate, both on cfg.Clock.
// The job time is folded in before the waiters are answered, so a caller
// that has its reply already sees the estimate include its own job.
func (e *Executor) worker(det *yolo.Model) {
	defer e.wg.Done()
	for t := range e.jobs {
		e.queueDepth.Add(-1)
		start := e.cfg.Clock.Now()
		e.observeStage(StageQueueWait, start.Sub(t.enqueued), t.traceID)
		e.inflight.Add(1)
		vs, err := e.runTask(t, det)
		e.observeJobSeconds(e.cfg.Clock.Now().Sub(start))
		t.finish(vs, err)
		e.inflight.Add(-1)
	}
}

// runTask executes one task, converting an expired deadline into an error
// without running the job, and a job panic into an error instead of killing
// the worker.
func (e *Executor) runTask(t *task, det *yolo.Model) (vs []any, err error) {
	defer func() {
		if p := recover(); p != nil {
			e.panics.Inc()
			vs, err = nil, fmt.Errorf("serve: job panicked: %v", p)
		}
	}()
	if err := t.ctx.Err(); err != nil {
		return nil, err
	}
	return t.run(det)
}
