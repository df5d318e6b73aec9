package serve

import (
	"time"

	"roadtrojan/internal/eval"
	"roadtrojan/internal/telemetry"
)

// Stage-level latency attribution. Every request is decomposed into the
// stages a fleet operator needs to tell apart — time spent waiting in the
// bounded queue, time parked in the micro-batch coalescer, the forward
// pass, decode/NMS, and the end-to-end total — each a serve_stage_seconds
// series. Observations carry the request's trace ID as an OpenMetrics-style
// exemplar, so a p99 outlier on a dashboard links straight to the journal
// trace that explains it. StageStats snapshots the same histograms for the
// fabric Health frame, which is how the gateway builds its fleet view.

// Stage names for the serve_stage_seconds histogram family.
const (
	StageQueueWait = "queue_wait"
	StageBatchWait = "batch_wait"
	StageForward   = eval.StageForward
	StageDecode    = eval.StageDecode
	StageTotal     = "total"
)

// StageNames lists every stage this executor records, in exposition order.
func StageNames() []string {
	return []string{StageQueueWait, StageBatchWait, StageForward, StageDecode, StageTotal}
}

const stageHistHelp = "per-stage request latency (queue wait, batch wait, forward, decode, total)"

// initStages registers the per-stage histograms.
func (e *Executor) initStages() {
	e.stageHist = make(map[string]*telemetry.Histogram, 5)
	for _, st := range StageNames() {
		e.stageHist[st] = e.reg.Histogram("serve_stage_seconds", stageHistHelp,
			telemetry.Labels{"stage": st}, nil)
	}
}

// observeStage folds one stage duration into its histogram, attaching the
// request's trace ID as the bucket exemplar (empty = no exemplar).
func (e *Executor) observeStage(stage string, d time.Duration, traceID string) {
	if h := e.stageHist[stage]; h != nil {
		h.ObserveExemplar(d.Seconds(), traceID)
	}
}

// stageHook adapts observeStage to eval's StageHook: the clock read happens
// here, in serve (allowlisted for wall time), so eval stays deterministic.
func (e *Executor) stageHook(traceID string) eval.StageHook {
	return func(stage string) func() {
		start := e.cfg.Clock.Now()
		return func() {
			e.observeStage(stage, e.cfg.Clock.Now().Sub(start), traceID)
		}
	}
}

// StageStats snapshots every stage histogram — the stages of a fabric
// Health frame.
func (e *Executor) StageStats() map[string]telemetry.HistSnapshot {
	out := make(map[string]telemetry.HistSnapshot, len(e.stageHist))
	for st, h := range e.stageHist {
		out[st] = h.Snapshot()
	}
	return out
}
