// Package serve is the concurrent patch-evaluation service: the paper's
// render → detect → PWC/CWC loop behind an HTTP API. The execution core
// lives in Executor — a fixed-size worker pool owning one deep-cloned
// detector replica per worker (internal/nn modules cache activations during
// Forward, so a shared model is not reentrant), a bounded job queue that
// applies backpressure with 429s instead of unbounded latency, and an LRU
// cache that short-circuits repeated evaluations of the same (patch, scene,
// challenge, seed) tuple. Server is the HTTP transport over that core;
// internal/fabric's node is the framed-protocol transport over the same
// core. internal/telemetry exposes counters/gauges/latency histograms on
// GET /metrics.
//
// Endpoints:
//
//	POST /v1/detect    one rendered frame → decoded detections
//	POST /v1/evaluate  patch + scene + challenge → per-frame results, PWC, CWC
//	GET  /healthz      liveness + queue occupancy
//	GET  /metrics      Prometheus text exposition
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"roadtrojan/internal/eval"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/telemetry"
	"roadtrojan/internal/yolo"
)

// Config tunes the service.
type Config struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueSize bounds the job queue; 0 means 2×Workers. A full queue
	// rejects with 429.
	QueueSize int
	// CacheSize is the evaluation result cache capacity in entries;
	// 0 means 128, negative disables caching.
	CacheSize int
	// CacheBytes bounds the result cache by estimated payload bytes, so a
	// few large batched results can't blow memory even when the entry count
	// is small; 0 means 64 MiB, negative means entries-only accounting.
	CacheBytes int64
	// BatchSize is the micro-batch size. Every evaluate/detect request
	// parks in a coalescer in front of the executor, which flushes as one
	// batch when BatchSize requests are parked or BatchDeadline has elapsed
	// since the first. 0 or 1 flushes each request on arrival, as a batch
	// of one.
	BatchSize int
	// BatchDeadline is the longest the first parked request waits for its
	// batch to fill; 0 means 2ms. Unused when BatchSize ≤ 1.
	BatchDeadline time.Duration
	// Clock injects time for the coalescer deadline and for stage and
	// request latency (tests); nil means the wall clock.
	Clock Clock
	// JobTimeout is the per-job context deadline; 0 means 2 minutes.
	JobTimeout time.Duration
	// Job evaluates one scenario. Nil means eval.RunJob; tests inject
	// stubs to exercise queueing without rendering.
	Job eval.JobFunc
	// Trace receives one span per HTTP request (nil = no tracing). servd
	// journals on obs.NewLogicalClock, so journal bytes depend on event
	// order alone; stage latencies come from Clock, not from the trace.
	Trace *obs.Trace
	// EnablePprof mounts net/http/pprof under /debug/pprof on the service
	// mux. Off by default: the profiler exposes internals and should only
	// be reachable when explicitly requested (cmd/servd -pprof).
	EnablePprof bool
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 2 * c.Workers
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.BatchDeadline <= 0 {
		c.BatchDeadline = 2 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = WallClock()
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.Job == nil {
		c.Job = eval.RunJob
	}
}

// Server is the HTTP transport over an Executor.
type Server struct {
	cfg     Config
	exec    *Executor
	reg     *telemetry.Registry
	ownExec bool
	httpSrv *http.Server

	evalFallbacks, detectFallbacks *telemetry.Counter
}

// New builds the service around a trained detector, cloning one replica per
// worker and starting the pool. The caller keeps ownership of det; the
// server never runs inference on it. The executor is owned: Shutdown drains
// it.
func New(det *yolo.Model, cfg Config) *Server {
	cfg.fillDefaults()
	s := NewWith(NewExecutor(det, cfg, nil), cfg)
	s.ownExec = true
	return s
}

// NewWith wraps an existing executor — the path cmd/servd uses to share one
// pool between the HTTP server and a fabric node. The caller keeps
// ownership of exec: Shutdown stops the listener but does not drain the
// pool.
func NewWith(exec *Executor, cfg Config) *Server {
	cfg.fillDefaults()
	reg := exec.Metrics()
	return &Server{cfg: cfg, exec: exec, reg: reg,
		evalFallbacks: EvalDecodeFallbacks(reg), detectFallbacks: DetectDecodeFallbacks(reg)}
}

// Executor exposes the execution core (for embedding a second transport).
func (s *Server) Executor() *Executor { return s.exec }

// Handler returns the service mux (for embedding or tests).
func (s *Server) Handler() http.Handler {
	edge := Instrument(s.reg, s.cfg.Trace, s.cfg.Clock, "serve_request_seconds", "serve_requests_total", "request")
	mux := http.NewServeMux()
	mux.Handle("/v1/detect", edge("detect", s.handleDetect))
	mux.Handle("/v1/evaluate", edge("evaluate", s.handleEvaluate))
	mux.Handle("/healthz", edge("healthz", s.handleHealthz))
	mux.Handle("/metrics", s.reg.Handler())
	if s.cfg.EnablePprof {
		obs.RegisterPprof(mux)
	}
	return mux
}

// Metrics exposes the registry (for tests and embedding).
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{Handler: s.Handler()}
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	return s.Serve(l)
}

// Shutdown drains gracefully: stop accepting, let in-flight handlers finish
// (bounded by ctx), then — when the executor is owned — close the queue and
// wait for the workers to empty it. Safe to call once; submissions return
// ErrShuttingDown afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	var httpErr error
	if s.httpSrv != nil {
		httpErr = s.httpSrv.Shutdown(ctx)
	}
	if s.ownExec {
		_ = s.exec.Close(ctx)
	}
	return httpErr
}

// Instrument returns the HTTP edge servd and the fabric gateway share: it
// wraps an endpoint's handler with request counting (counter, by endpoint
// and status code), latency observation (histogram, by endpoint, timed on
// clock) and one span per request named span. An incoming
// X-Roadtrojan-Trace header makes the span a child in the caller's trace (a
// bad header is ignored — tracing must never fail a request); otherwise it
// roots a fresh trace.
// The span rides the request context so later stages can parent theirs.
func Instrument(reg *telemetry.Registry, tr *obs.Trace, clock Clock, histogram, counter, span string) func(endpoint string, h http.HandlerFunc) http.Handler {
	return func(endpoint string, h http.HandlerFunc) http.Handler {
		hist := reg.Histogram(histogram, "request latency by endpoint",
			telemetry.Labels{"endpoint": endpoint}, nil)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := clock.Now()
			sc, _ := obs.ParseSpanContext(r.Header.Get(obs.TraceHeader))
			sp := tr.SpanInContext(sc, span, obs.S("endpoint", endpoint), obs.S("method", r.Method))
			if sp != nil {
				r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
			}
			sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
			h(sw, r)
			sp.End(obs.I("code", sw.code))
			hist.Observe(clock.Now().Sub(start).Seconds())
			reg.Counter(counter, "requests by endpoint and status code",
				telemetry.Labels{"endpoint": endpoint, "code": strconv.Itoa(sw.code)}).Inc()
		})
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func writeTooLarge(w http.ResponseWriter, limit int64) {
	WriteJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
		Error: fmt.Sprintf("request body exceeds %d bytes", limit), Code: CodeTooLarge})
}

// writeBodyError answers a body that failed to read or decode: 413 when it
// ran past limit, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error, limit int64) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeTooLarge(w, limit)
		return
	}
	WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad JSON: " + err.Error(), Code: CodeBadRequest})
}

// readBody reads r's whole body, at most limit bytes; both request routes
// read their body this way before decoding it. The buffer is sized from
// the declared length up to MaxEvalBody and grows past that only as bytes
// arrive, so a client declaring a 96 MiB detect body does not get that
// much allocated before it sends any. On failure the reply is already
// written: 413 when the declared length or the body exceeds limit, 400
// when the body does not read.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if r.ContentLength > limit {
		writeTooLarge(w, limit)
		return nil, false
	}
	var buf bytes.Buffer
	buf.Grow(int(min(max(r.ContentLength, 0), MaxEvalBody)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		writeBodyError(w, err, limit)
		return nil, false
	}
	return buf.Bytes(), true
}

// ReadEvalRequest reads an evaluate body of at most MaxEvalBody bytes and
// decodes its first JSON value with DecodeEvalRequest, counting fallbacks
// on fallbacks; whatever follows the value is ignored. It returns the
// request and the exact bytes of the value. On failure the reply is
// already written: 413 when the body exceeds the limit, 400 when it does
// not decode.
func ReadEvalRequest(w http.ResponseWriter, r *http.Request, fallbacks *telemetry.Counter) (EvalRequest, []byte, bool) {
	data, ok := readBody(w, r, MaxEvalBody)
	if !ok {
		return EvalRequest{}, nil, false
	}
	req, n, err := DecodeEvalRequest(data, fallbacks)
	if err != nil {
		writeBodyError(w, err, MaxEvalBody)
		return EvalRequest{}, nil, false
	}
	return req, data[:n], true
}

// readDetectRequest reads a detect body of at most maxDetectBody bytes and
// decodes its first JSON value with DecodeDetectRequest, under a
// read_request child of the request's span. On failure the reply is
// already written, as for ReadEvalRequest.
func (s *Server) readDetectRequest(w http.ResponseWriter, r *http.Request) (DetectRequest, bool) {
	sp := obs.SpanFromContext(r.Context()).Child("read_request")
	defer sp.End()
	data, ok := readBody(w, r, maxDetectBody)
	if !ok {
		return DetectRequest{}, false
	}
	req, err := DecodeDetectRequest(data, s.detectFallbacks)
	if err != nil {
		writeBodyError(w, err, maxDetectBody)
		return DetectRequest{}, false
	}
	return req, true
}

// WriteJSON writes v as a JSON response body with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeExecError maps executor errors to HTTP statuses. Queue-full
// rejections carry a Retry-After hint sized from the observed job rate, so
// well-behaved clients (and the fabric gateway's backpressure path) know
// when capacity is likely back.
func (s *Server) writeExecError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBadRequest):
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: CodeBadRequest})
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.exec.RetryAfterSeconds()))
		WriteJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error(), Code: CodeQueueFull})
	case errors.Is(err, ErrShuttingDown):
		WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error(), Code: CodeShuttingDown})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		WriteJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: err.Error(), Code: CodeTimeout})
	default:
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Code: CodeInternal})
	}
}

// handleDetect runs one frame through a worker's detector replica.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required", Code: CodeMethodNotAllowed})
		return
	}
	req, ok := s.readDetectRequest(w, r)
	if !ok {
		return
	}
	resp, err := s.exec.Detect(r.Context(), req)
	if err != nil {
		s.writeExecError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleEvaluate runs a full scenario evaluation, serving repeats from the
// LRU cache.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required", Code: CodeMethodNotAllowed})
		return
	}
	req, _, ok := ReadEvalRequest(w, r, s.evalFallbacks)
	if !ok {
		return
	}
	resp, err := s.exec.Evaluate(r.Context(), req)
	if err != nil {
		s.writeExecError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func detailToResponse(d eval.Detail) EvalResponse {
	return EvalResponse{
		PWC:        d.Score.PWC,
		CWC:        d.Score.CWC,
		Frames:     d.Score.Frames,
		WrongRun:   d.Score.WrongRun,
		DetectRate: d.Score.DetectRate,
		Runs:       toWireFrames(d.Runs),
	}
}

// handleHealthz is the readiness probe: liveness plus queue occupancy while
// serving, 503 with status "draining" once shutdown has begun — so load
// balancers stop routing to a node that will refuse its submissions.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, code := "ok", http.StatusOK
	if s.exec.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	WriteJSON(w, code, map[string]any{
		"status":         status,
		"draining":       s.exec.Draining(),
		"workers":        s.exec.Workers(),
		"queue_depth":    s.exec.QueueDepth(),
		"queue_capacity": s.exec.QueueCapacity(),
		"cached_results": s.exec.CachedResults(),
	})
}
