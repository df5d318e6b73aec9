package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"roadtrojan/internal/obs"
	"roadtrojan/internal/serve"
	"roadtrojan/internal/telemetry"
)

// GatewayConfig tunes the stateless front-end.
type GatewayConfig struct {
	// Nodes are the backend addresses, fixed for the gateway's lifetime.
	// A node leaves by draining (its Health frames say so) and rejoins by
	// reconnecting without draining; a repeated address counts once.
	Nodes []string
	// MaxAttempts bounds full ring passes per job (the node-failure retry
	// budget); 0 means 3.
	MaxAttempts int
	// RetryBackoff is the base delay between dispatch passes, doubling per
	// attempt; 0 means 50ms.
	RetryBackoff time.Duration
	// RedialBackoff is the base backend reconnect delay; 0 means 100ms.
	RedialBackoff time.Duration
	// HeartbeatTimeout marks a silent backend unavailable; 0 means 5s.
	HeartbeatTimeout time.Duration
	// JobTimeout bounds one job end to end (including retries); 0 means
	// 2 minutes.
	JobTimeout time.Duration
	// AttemptTimeout bounds a single node round-trip; when it expires the
	// job fails over to the next ring owner instead of waiting out the
	// whole JobTimeout on one hung backend. 0 disables the per-attempt
	// bound (cmd/gatewayd defaults it to 30s).
	AttemptTimeout time.Duration
	// HelloTimeout bounds the handshake after a dial, the wait for the
	// node's first Health frame: a peer that accepts the connection but
	// never introduces itself is cut off. 0 means 3s.
	HelloTimeout time.Duration
	// BreakerThreshold is the consecutive transport failures that open a
	// backend's circuit breaker; 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before allowing a
	// half-open probe; 0 means 5s.
	BreakerCooldown time.Duration
	// JobTableSize bounds the async job table; 0 means 1024. A table full
	// of incomplete jobs rejects new submissions with 429.
	JobTableSize int
	// WAL, when non-nil, journals every async job (submit/dispatch/result)
	// and is replayed by NewGateway: finished jobs answer polls again and
	// unfinished ones are re-dispatched. Open it with OpenWAL; the gateway
	// takes ownership and closes it on Close.
	WAL *WAL
	// Dial opens a connection to a node address; nil means TCP with a 5s
	// timeout. Tests inject loopback or in-memory dialers.
	Dial func(addr string) (net.Conn, error)
	// Clock drives staleness checks, backoff, breaker cooldown and edge
	// latency; nil means serve.WallClock. The deterministic tests inject a
	// fake whose After fires at once and whose Now is advanced by hand.
	Clock serve.Clock
	// Trace receives one span per HTTP request (nil = no tracing).
	Trace *obs.Trace
}

func (c *GatewayConfig) fillDefaults() {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 100 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 5 * time.Second
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.HelloTimeout <= 0 {
		c.HelloTimeout = 3 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.JobTableSize <= 0 {
		c.JobTableSize = 1024
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if c.Clock == nil {
		c.Clock = serve.WallClock()
	}
}

// errSaturated reports that every routable shard rejected the job with a
// full queue: the client should back off (429 + Retry-After), not the
// gateway.
type errSaturated struct{ retryAfter int }

func (e *errSaturated) Error() string { return "fabric: all shards saturated" }

// ErrNoBackends means no node is currently routable.
var ErrNoBackends = errors.New("fabric: no live backends")

// ErrGatewayClosed is returned for work submitted after Close.
var ErrGatewayClosed = errors.New("fabric: gateway shut down")

// Gateway is the stateless eval front-end: it owns no detector and no
// result cache, only the hash ring, the backend connections, and a bounded
// table of in-flight async jobs. Any number of gateways can front the same
// fleet; routing is a pure function of (patch digest, which nodes are
// routable).
type Gateway struct {
	cfg   GatewayConfig
	reg   *telemetry.Registry
	clock serve.Clock
	// ring and backends hold every configured node and are fixed once
	// NewGateway returns, so they are read without a lock.
	ring     *Ring
	backends map[string]*backend

	mu     sync.Mutex // serializes Close
	closed chan struct{}

	jobSeq   atomic.Uint64 // wire job ids
	asyncSeq atomic.Uint64 // async job names

	jobsMu   sync.Mutex
	jobTable map[string]*asyncJob
	jobOrder []string
	asyncWG  sync.WaitGroup

	wal *WAL

	retries      *telemetry.Counter
	saturated    *telemetry.Counter
	decodeErrors *telemetry.Counter
	lateReplies  *telemetry.Counter
	walErrors    *telemetry.Counter
	evalFallback *telemetry.Counter
	dispatchHist *telemetry.Histogram
}

// NewGateway builds the front-end and starts dialing the configured nodes.
func NewGateway(cfg GatewayConfig) *Gateway {
	cfg.fillDefaults()
	reg := telemetry.NewRegistry()
	g := &Gateway{
		cfg:      cfg,
		reg:      reg,
		clock:    cfg.Clock,
		ring:     NewRing(DefaultReplicas),
		closed:   make(chan struct{}),
		backends: map[string]*backend{},
		jobTable: map[string]*asyncJob{},

		wal: cfg.WAL,

		retries:      reg.Counter("fabric_gateway_retries_total", "jobs re-dispatched after a node failure", nil),
		saturated:    reg.Counter("fabric_gateway_saturated_total", "jobs rejected because every shard's queue was full", nil),
		decodeErrors: reg.Counter("fabric_gateway_frame_decode_errors_total", "malformed frames received from nodes", nil),
		lateReplies:  reg.Counter("fabric_gateway_late_replies_total", "job replies that arrived after the gateway gave up on the job", nil),
		walErrors:    reg.Counter("fabric_gateway_wal_errors_total", "failed WAL appends (jobs proceed, durability degraded)", nil),
		evalFallback: serve.EvalDecodeFallbacks(reg),
	}
	g.dispatchHist = reg.Histogram("fabric_gateway_stage_seconds", "gateway-side stage latency (exemplars carry trace ids)",
		telemetry.Labels{"stage": "dispatch"}, nil)
	reg.GaugeFunc("fabric_gateway_ring_nodes", "configured nodes that are not draining", nil,
		func() float64 { return float64(g.members()) })
	reg.GaugeFunc("fabric_gateway_backends_available", "backends currently routable", nil,
		func() float64 {
			now := g.clock.Now()
			n := 0
			for _, b := range g.backends {
				if ok, _ := b.available(now); ok {
					n++
				}
			}
			return float64(n)
		})
	for _, addr := range cfg.Nodes {
		if g.backends[addr] != nil {
			continue
		}
		b := newBackend(g, addr)
		g.backends[addr] = b
		g.ring.Add(addr)
		go b.runLoop()
	}
	if g.wal != nil {
		reg.Gauge("fabric_gateway_wal_skipped_lines", "torn or undecodable WAL lines dropped when the journal was opened", nil).
			Set(float64(g.wal.Skipped()))
		g.replayWAL(g.wal.Records())
	}
	return g
}

// Metrics exposes the gateway registry.
func (g *Gateway) Metrics() *telemetry.Registry { return g.reg }

// isClosed reports whether Close has begun.
func (g *Gateway) isClosed() bool {
	select {
	case <-g.closed:
		return true
	default:
		return false
	}
}

// members counts the configured nodes that are not draining: the fleet a
// key can route to once every node is up.
func (g *Gateway) members() int {
	n := 0
	for _, b := range g.backends {
		b.mu.Lock()
		if !b.draining {
			n++
		}
		b.mu.Unlock()
	}
	return n
}

// backendUp records a connectivity transition for the per-node gauge.
func (g *Gateway) backendUp(addr string, up bool) {
	v := 0.0
	if up {
		v = 1
	}
	g.reg.Gauge("fabric_gateway_backend_up", "1 when the backend connection is established",
		telemetry.Labels{"node": addr}).Set(v)
}

// evalJob is one evaluate request as the gateway routes and forwards it:
// the patch digest the ring hashes on and the request JSON the node
// decodes, never re-encoded on the way.
type evalJob struct {
	digest string
	req    []byte
}

// dispatch routes one job: consistent-hash sequence for the patch digest,
// immediate failover across the ring on node failure, bounded backoff
// between full passes, and a saturation verdict when every routable shard
// is queue-full. A draining node is skipped without counting as down, so
// the key routes exactly as a ring without that node would.
//
// Tracing: a "dispatch" span (child of the request span riding ctx, or a
// fresh root) covers the whole routing decision, with one "attempt" child
// per node tried. The attempt span's context travels to the node in the job
// envelope, so in the merged tree exactly the winning attempt carries the
// node's fabric_job subtree while failed attempts sit beside it as siblings
// recording their outcome.
func (g *Gateway) dispatch(ctx context.Context, job evalJob) (payload []byte, err error) {
	key := job.digest
	dsp := g.spanUnder(ctx, "dispatch", obs.S("key", key))
	outcome := "error"
	start := g.clock.Now()
	defer func() {
		if err == nil {
			outcome = "ok"
		}
		dsp.End(obs.S("outcome", outcome))
		g.dispatchHist.ObserveExemplar(g.clock.Now().Sub(start).Seconds(), dsp.TraceID())
	}()
	backoff := g.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < g.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			g.retries.Inc()
			select {
			case <-g.clock.After(backoff):
			case <-ctx.Done():
				outcome = "canceled"
				return nil, ctx.Err()
			case <-g.closed:
				outcome = "gateway_closed"
				return nil, ErrGatewayClosed
			}
			backoff *= 2
		}
		seq := g.ring.Sequence(key, g.ring.Len())
		sawSaturated, sawDown := false, false
		retryAfter := 1
		now := g.clock.Now()
		for _, addr := range seq {
			b := g.backends[addr]
			if ok, draining := b.available(now); !ok {
				sawDown = sawDown || !draining
				continue
			}
			attemptCtx, cancel := ctx, context.CancelFunc(nil)
			if g.cfg.AttemptTimeout > 0 {
				attemptCtx, cancel = context.WithTimeout(ctx, g.cfg.AttemptTimeout)
			}
			asp := dsp.Child("attempt", obs.S("node", addr), obs.I("pass", attempt))
			payload, err := b.roundTrip(attemptCtx, job.req, asp.Context().Encode())
			if cancel != nil {
				cancel()
			}
			if err == nil {
				asp.End(obs.S("outcome", "ok"))
				g.reg.Counter("fabric_gateway_node_jobs_total", "jobs completed per backend",
					telemetry.Labels{"node": addr}).Inc()
				return payload, nil
			}
			var jf *jobFailedError
			switch {
			case errors.Is(err, errBackendDown):
				asp.End(obs.S("outcome", "backend_down"))
				sawDown, lastErr = true, err
			case errors.As(err, &jf):
				asp.End(obs.S("outcome", jf.code))
				g.reg.Counter("fabric_gateway_node_errors_total", "error replies from nodes, by code, including the ones the gateway fails over",
					telemetry.Labels{"code": jf.code}).Inc()
				switch jf.code {
				case CodeQueueFull:
					sawSaturated, lastErr = true, err
					if jf.retryAfter > retryAfter {
						retryAfter = jf.retryAfter
					}
				case CodeDraining, CodeExpired:
					// Expired means the node gave up on the propagated
					// deadline; with job budget left the gateway fails over.
					sawDown, lastErr = true, err
				case CodeBadRequest:
					outcome = CodeBadRequest
					return nil, fmt.Errorf("%w: %s", serve.ErrBadRequest, jf.msg)
				default:
					// The job ran and failed; it is deterministic, so
					// another node would fail identically.
					outcome = "job_failed"
					return nil, jf
				}
			case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
				// This attempt's budget expired, not the job's: the backend
				// is hung, so treat it as down and fail over.
				asp.End(obs.S("outcome", "attempt_timeout"))
				sawDown, lastErr = true, err
			default:
				asp.End(obs.S("outcome", "canceled"))
				outcome = "canceled"
				return nil, err // job-level cancellation/deadline
			}
		}
		if sawSaturated && !sawDown {
			g.saturated.Inc()
			outcome = "saturated"
			return nil, &errSaturated{retryAfter: retryAfter}
		}
	}
	if lastErr == nil {
		lastErr = ErrNoBackends
	}
	outcome = "exhausted"
	return nil, fmt.Errorf("fabric: job failed after %d attempts: %w", g.cfg.MaxAttempts, lastErr)
}

// spanUnder opens a span as a child of the span riding ctx, or as a root on
// the gateway trace when the request was not traced.
func (g *Gateway) spanUnder(ctx context.Context, name string, attrs ...obs.Attr) *obs.Span {
	if parent := obs.SpanFromContext(ctx); parent.Enabled() {
		return parent.Child(name, attrs...)
	}
	return g.cfg.Trace.Span(name, attrs...)
}

// Close shuts the gateway down: redials stop, idle connections close now
// and busy ones with their last reply, a handshake still in progress
// closes its connection when it completes, async jobs get until ctx to
// finish, late submissions fail.
func (g *Gateway) Close(ctx context.Context) error {
	g.mu.Lock()
	if g.isClosed() {
		g.mu.Unlock()
		return nil
	}
	close(g.closed)
	g.mu.Unlock()
	for _, b := range g.backends {
		b.mu.Lock()
		conn, idle := b.conn, len(b.pending) == 0
		b.mu.Unlock()
		if idle && conn != nil {
			conn.Close()
		}
	}
	done := make(chan struct{})
	go func() { g.asyncWG.Wait(); close(done) }()
	select {
	case <-done:
		if g.wal != nil {
			return g.wal.Close()
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fabric: gateway drain: %w", ctx.Err())
	}
}

// --- async job table ---

type asyncJob struct {
	id string

	mu     sync.Mutex
	status string // pending | running | done | failed
	result json.RawMessage
	errMsg string
}

func (j *asyncJob) set(status string, result []byte, errMsg string) {
	j.mu.Lock()
	j.status, j.result, j.errMsg = status, result, errMsg
	j.mu.Unlock()
}

func (j *asyncJob) view() (string, json.RawMessage, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.result, j.errMsg
}

func (j *asyncJob) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == "done" || j.status == "failed"
}

// addJob registers a new async job, evicting the oldest completed entry
// when the table is full. Returns false when every slot holds an
// incomplete job — backpressure for the submit path.
func (g *Gateway) addJob(j *asyncJob) bool {
	g.jobsMu.Lock()
	defer g.jobsMu.Unlock()
	if len(g.jobOrder) >= g.cfg.JobTableSize {
		evicted := false
		for i, id := range g.jobOrder {
			if g.jobTable[id].terminal() {
				delete(g.jobTable, id)
				g.jobOrder = append(g.jobOrder[:i], g.jobOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return false
		}
	}
	g.jobTable[j.id] = j
	g.jobOrder = append(g.jobOrder, j.id)
	return true
}

// checkJobs verifies the async job table: jobOrder and jobTable hold the
// same ids with no duplicates, each entry is keyed by its own id, every
// status is pending, running, done or failed, and the table never exceeds
// JobTableSize. Tests run it after every table operation.
//
//rtlint:ignore deadcode invariant checker: tests run it after every step; the hot path has no hook
func (g *Gateway) checkJobs() error {
	g.jobsMu.Lock()
	defer g.jobsMu.Unlock()
	if n := len(g.jobOrder); n > g.cfg.JobTableSize {
		return fmt.Errorf("fabric: job table holds %d jobs, size %d", n, g.cfg.JobTableSize)
	}
	if len(g.jobOrder) != len(g.jobTable) {
		return fmt.Errorf("fabric: job order lists %d ids, table holds %d", len(g.jobOrder), len(g.jobTable))
	}
	seen := make(map[string]bool, len(g.jobOrder))
	for _, id := range g.jobOrder {
		if seen[id] {
			return fmt.Errorf("fabric: job order lists %q twice", id)
		}
		seen[id] = true
		j := g.jobTable[id]
		if j == nil || j.id != id {
			return fmt.Errorf("fabric: job %q is missing from the table or keyed wrong", id)
		}
		switch status, _, _ := j.view(); status {
		case "pending", "running", "done", "failed":
		default:
			return fmt.Errorf("fabric: job %q in unknown status %q", id, status)
		}
	}
	return nil
}

func (g *Gateway) getJob(id string) *asyncJob {
	g.jobsMu.Lock()
	defer g.jobsMu.Unlock()
	return g.jobTable[id]
}

// --- HTTP front-end ---

// Handler returns the gateway mux.
func (g *Gateway) Handler() http.Handler {
	edge := serve.Instrument(g.reg, g.cfg.Trace, g.clock, "fabric_gateway_request_seconds", "fabric_gateway_requests_total", "gateway_request")
	mux := http.NewServeMux()
	mux.Handle("/v1/evaluate", edge("evaluate", g.handleEvaluate))
	mux.Handle("POST /v1/jobs", edge("jobs_submit", g.handleSubmit))
	mux.Handle("GET /v1/jobs/{id}", edge("jobs_poll", g.handlePoll))
	mux.Handle("/healthz", edge("healthz", g.handleHealthz))
	mux.Handle("/metrics", http.HandlerFunc(g.handleMetrics))
	return mux
}

// writeDispatchError maps dispatch failures onto the serve error surface.
// Every body carries a machine-readable code alongside the message.
func writeDispatchError(w http.ResponseWriter, err error) {
	var sat *errSaturated
	switch {
	case errors.As(err, &sat):
		w.Header().Set("Retry-After", strconv.Itoa(sat.retryAfter))
		serve.WriteJSON(w, http.StatusTooManyRequests, serve.ErrorResponse{Error: err.Error(), Code: serve.CodeSaturated})
	case errors.Is(err, serve.ErrBadRequest):
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error(), Code: serve.CodeBadRequest})
	case errors.Is(err, ErrNoBackends), errors.Is(err, ErrGatewayClosed), errors.Is(err, errBackendDown):
		w.Header().Set("Retry-After", "1")
		serve.WriteJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{Error: err.Error(), Code: serve.CodeUnavailable})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		serve.WriteJSON(w, http.StatusGatewayTimeout, serve.ErrorResponse{Error: err.Error(), Code: serve.CodeTimeout})
	default:
		serve.WriteJSON(w, http.StatusBadGateway, serve.ErrorResponse{Error: err.Error(), Code: serve.CodeInternal})
	}
}

// readEvalJob reads and validates an evaluate body at the edge, so a
// malformed job never costs a node round-trip. The job carries the client's
// bytes; req is the decoded request, normalized by Validate. On failure the
// 400 or 413 reply is already written.
func (g *Gateway) readEvalJob(w http.ResponseWriter, r *http.Request) (serve.EvalRequest, evalJob, bool) {
	req, raw, ok := serve.ReadEvalRequest(w, r, g.evalFallback)
	if !ok {
		return req, evalJob{}, false
	}
	if err := req.Validate(); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error(), Code: serve.CodeBadRequest})
		return req, evalJob{}, false
	}
	return req, evalJob{digest: req.Digest(), req: raw}, true
}

// handleEvaluate is the synchronous compatibility path: same request and
// response shape as single-box serve, with the client's request bytes
// forwarded to the node and the node's response bytes forwarded back.
func (g *Gateway) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.WriteJSON(w, http.StatusMethodNotAllowed, serve.ErrorResponse{Error: "POST required", Code: serve.CodeMethodNotAllowed})
		return
	}
	_, job, ok := g.readEvalJob(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.JobTimeout)
	defer cancel()
	payload, err := g.dispatch(ctx, job)
	if err != nil {
		writeDispatchError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

// submitResponse is the POST /v1/jobs reply.
type submitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// jobStatusResponse is the GET /v1/jobs/{id} reply.
type jobStatusResponse struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// handleSubmit accepts a job asynchronously: validate at the edge, shed
// load when the whole fleet is saturated (same 429 + Retry-After contract
// as the sync path), journal it, park it in the bounded table, dispatch in
// the background, return the poll handle.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ej, ok := g.readEvalJob(w, r)
	if !ok {
		return
	}
	if g.isClosed() {
		serve.WriteJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{Error: ErrGatewayClosed.Error(), Code: serve.CodeShuttingDown})
		return
	}
	if retryAfter, sat := g.fleetSaturated(); sat {
		g.saturated.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		serve.WriteJSON(w, http.StatusTooManyRequests, serve.ErrorResponse{Error: "fabric: all shards saturated", Code: serve.CodeSaturated})
		return
	}
	seq := g.asyncSeq.Add(1)
	id := fmt.Sprintf("j%06d-%.8s", seq, ej.digest)
	job := &asyncJob{id: id, status: "pending"}
	if !g.addJob(job) {
		w.Header().Set("Retry-After", "1")
		serve.WriteJSON(w, http.StatusTooManyRequests, serve.ErrorResponse{Error: "fabric: job table full", Code: serve.CodeSaturated})
		return
	}
	if g.wal != nil {
		// Validate normalized the request in place, so the journaled JSON
		// re-validates and routes identically on replay. The job dispatches
		// the journaled bytes, here and on replay.
		reqJSON, err := json.Marshal(req)
		if err == nil {
			ej.req = reqJSON
			err = g.wal.Append(WALRecord{T: walSubmit, ID: id, Seq: seq, Digest: ej.digest, Req: reqJSON})
		}
		if err != nil {
			g.walErrors.Inc()
		}
	}
	g.runAsync(job, ej)
	serve.WriteJSON(w, http.StatusAccepted, submitResponse{ID: id, Status: "pending"})
}

// fleetSaturated reports whether every routable backend's last health
// report shows a full queue — the async-path analogue of dispatch's
// errSaturated verdict, decided from heartbeats instead of a round-trip.
// The hint returned is the largest RetryAfter any node advertised.
func (g *Gateway) fleetSaturated() (retryAfter int, saturated bool) {
	now := g.clock.Now()
	routable, full := 0, 0
	retryAfter = 1
	for _, b := range g.backends {
		if ok, _ := b.available(now); !ok {
			continue
		}
		routable++
		h, _, _ := b.snapshot()
		if h.QueueCapacity > 0 && h.QueueDepth >= h.QueueCapacity {
			full++
			if h.RetryAfter > retryAfter {
				retryAfter = h.RetryAfter
			}
		}
	}
	return retryAfter, routable > 0 && full == routable
}

// runAsync drives one async job to a terminal state in the background,
// journaling the dispatch and outcome. Shared by handleSubmit and WAL
// replay.
func (g *Gateway) runAsync(job *asyncJob, ej evalJob) {
	g.asyncWG.Add(1)
	go func() {
		defer g.asyncWG.Done()
		job.set("running", nil, "")
		g.walAppend(WALRecord{T: walDispatch, ID: job.id})
		ctx, cancel := context.WithTimeout(context.Background(), g.cfg.JobTimeout)
		defer cancel()
		payload, err := g.dispatch(ctx, ej)
		if err != nil {
			g.reg.Counter("fabric_gateway_jobs_total", "async jobs by final status",
				telemetry.Labels{"status": "failed"}).Inc()
			job.set("failed", nil, err.Error())
			g.walAppend(WALRecord{T: walResult, ID: job.id, Status: "failed", Error: err.Error()})
			return
		}
		g.reg.Counter("fabric_gateway_jobs_total", "async jobs by final status",
			telemetry.Labels{"status": "done"}).Inc()
		job.set("done", payload, "")
		g.walAppend(WALRecord{T: walResult, ID: job.id, Status: "done", Result: payload})
	}()
}

// walAppend journals one record when a WAL is configured; append failures
// degrade durability, not availability.
func (g *Gateway) walAppend(rec WALRecord) {
	if g.wal == nil {
		return
	}
	if err := g.wal.Append(rec); err != nil {
		g.walErrors.Inc()
	}
}

// replayWAL rebuilds the async-job table from a journal: terminal jobs
// answer polls again with their recorded bytes, and jobs that never
// reached a result record are re-dispatched. Re-dispatch cannot double
// execute on the fleet — routing keys on the patch digest, so the job
// lands on the node whose cache already holds the evaluation.
func (g *Gateway) replayWAL(records []WALRecord) {
	type walEntry struct {
		req    json.RawMessage
		status string
		result json.RawMessage
		errMsg string
	}
	byID := map[string]*walEntry{}
	var order []string
	var maxSeq uint64
	for _, rec := range records {
		switch rec.T {
		case walSubmit:
			if byID[rec.ID] != nil {
				continue
			}
			byID[rec.ID] = &walEntry{req: rec.Req}
			order = append(order, rec.ID)
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
		case walResult:
			if e := byID[rec.ID]; e != nil {
				e.status, e.result, e.errMsg = rec.Status, rec.Result, rec.Error
			}
		}
	}
	g.asyncSeq.Store(maxSeq) // fresh ids continue past every replayed one
	replayed := g.reg.Counter("fabric_gateway_wal_replayed_jobs_total", "unfinished jobs re-dispatched from the WAL on startup", nil)
	for _, id := range order {
		e := byID[id]
		job := &asyncJob{id: id}
		switch e.status {
		case "done":
			job.status, job.result = "done", e.result
		case "failed":
			job.status, job.errMsg = "failed", e.errMsg
		default:
			job.status = "pending"
		}
		if !g.addJob(job) {
			g.walErrors.Inc()
			continue
		}
		if e.status == "" {
			var req serve.EvalRequest
			if err := json.Unmarshal(e.req, &req); err != nil {
				msg := "fabric: wal: undecodable request: " + err.Error()
				job.set("failed", nil, msg)
				g.walAppend(WALRecord{T: walResult, ID: id, Status: "failed", Error: msg})
				continue
			}
			replayed.Inc()
			g.runAsync(job, evalJob{digest: req.Digest(), req: e.req})
		}
	}
}

// handlePoll reports an async job's state, embedding the finished result.
func (g *Gateway) handlePoll(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job := g.getJob(id)
	if job == nil {
		serve.WriteJSON(w, http.StatusNotFound, serve.ErrorResponse{Error: "unknown job " + id, Code: serve.CodeNotFound})
		return
	}
	status, result, errMsg := job.view()
	serve.WriteJSON(w, http.StatusOK, jobStatusResponse{ID: id, Status: status, Result: result, Error: errMsg})
}

// handleHealthz reports the fleet as the gateway sees it. A shut-down
// gateway (or one whose every configured node is draining — nothing
// routable) answers 503 so load balancers stop sending it traffic; the
// body still carries the full per-node picture for operators.
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	now := g.clock.Now()
	nodes := map[string]any{}
	for _, b := range g.backends {
		h, up, lastSeen := b.snapshot()
		available, _ := b.available(now)
		nodes[b.addr] = map[string]any{
			"up":         up,
			"available":  available,
			"id":         h.ID,
			"queueDepth": h.QueueDepth,
			"queueCap":   h.QueueCapacity,
			"inflight":   h.Inflight,
			"lastSeenMs": now.Sub(lastSeen).Milliseconds(),
		}
	}
	members := g.members()
	status, code, draining := "ok", http.StatusOK, false
	switch {
	case g.isClosed():
		status, code, draining = "draining", http.StatusServiceUnavailable, true
	case members == 0:
		status, code = "no_backends", http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, code, map[string]any{
		"status":     status,
		"draining":   draining,
		"ring_nodes": members,
		"nodes":      nodes,
	})
}

// handleMetrics serves the gateway registry plus the fleet-aggregated stage
// histograms: each node sends its stage snapshots in every Health frame,
// and the gateway merges them (bucket-wise sums, latest exemplar wins) into one
// fabric_fleet_stage_seconds family labelled by stage. Exemplar trace ids
// survive the merge, so a high fleet bucket links straight to a traceable
// request.
func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.reg.WriteText(w)
	fleet := g.fleetStageStats()
	if len(fleet) == 0 {
		return
	}
	stages := make([]string, 0, len(fleet))
	for st := range fleet {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	_ = telemetry.WriteFamilyHeader(w, "fabric_fleet_stage_seconds", "stage latency aggregated across all fleet nodes")
	for _, st := range stages {
		_ = telemetry.WriteSnapshotSeries(w, "fabric_fleet_stage_seconds", telemetry.Labels{"stage": st}, fleet[st])
	}
}

// fleetStageStats merges every backend's last reported stage snapshots into
// one per-stage view. Backends are visited in address order so exemplar
// tie-breaking is deterministic; stages whose snapshots disagree on bucket
// bounds (mid-upgrade fleets) are dropped rather than summed wrongly.
func (g *Gateway) fleetStageStats() map[string]telemetry.HistSnapshot {
	backends := make([]*backend, 0, len(g.backends))
	for _, b := range g.backends {
		backends = append(backends, b)
	}
	sort.Slice(backends, func(i, j int) bool { return backends[i].addr < backends[j].addr })
	perStage := map[string][]telemetry.HistSnapshot{}
	for _, b := range backends {
		for st, snap := range b.stageStats() {
			perStage[st] = append(perStage[st], snap)
		}
	}
	out := make(map[string]telemetry.HistSnapshot, len(perStage))
	for st, snaps := range perStage {
		merged, err := telemetry.MergeSnapshots(snaps)
		if err != nil {
			continue
		}
		out[st] = merged
	}
	return out
}
