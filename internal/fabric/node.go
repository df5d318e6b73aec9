package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"roadtrojan/internal/obs"
	"roadtrojan/internal/serve"
	"roadtrojan/internal/telemetry"
)

// NodeConfig tunes the fabric listener side.
type NodeConfig struct {
	// ID names this node in Health frames; "" means the listener
	// address at Serve time.
	ID string
	// Heartbeat is the Health frame interval; 0 means 1 second.
	Heartbeat time.Duration
	// Trace receives one span per fabric job (nil = no tracing).
	Trace *obs.Trace
}

func (c *NodeConfig) fillDefaults() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
}

// Node serves the fabric protocol over a serve.Executor: the gateway dials
// it, streams Job frames, and receives one Result or Error frame per job
// back plus Health frames (first, on every heartbeat, and on Close). One
// Node handles any number of gateway connections; the executor's bounded
// queue is the shared capacity limit.
type Node struct {
	exec *serve.Executor
	cfg  NodeConfig

	mu       sync.Mutex
	listener net.Listener
	conns    map[*nodeConn]bool
	draining bool

	jobs sync.WaitGroup // in-flight job handlers, for drain

	jobsTotal    *telemetry.Counter
	jobErrors    *telemetry.Counter
	decodeErrors *telemetry.Counter
	evalFallback *telemetry.Counter
	connsGauge   *telemetry.Gauge
}

// NewNode wraps an executor with the fabric transport. The node does not
// own the executor: Close drains the node's own in-flight jobs but leaves
// the pool running (cmd/servd shares it with the HTTP server).
func NewNode(exec *serve.Executor, cfg NodeConfig) *Node {
	cfg.fillDefaults()
	reg := exec.Metrics()
	return &Node{
		exec:  exec,
		cfg:   cfg,
		conns: map[*nodeConn]bool{},

		jobsTotal:    reg.Counter("fabric_node_jobs_total", "fabric jobs accepted by this node", nil),
		jobErrors:    reg.Counter("fabric_node_job_errors_total", "fabric jobs answered with an error frame", nil),
		decodeErrors: reg.Counter("fabric_node_frame_decode_errors_total", "malformed frames received", nil),
		evalFallback: serve.EvalDecodeFallbacks(reg),
		connsGauge:   reg.Gauge("fabric_node_connections", "open gateway connections", nil),
	}
}

// nodeConn is one gateway connection: a read loop plus a write mutex so
// job goroutines and the heartbeat can interleave frames safely.
type nodeConn struct {
	conn    net.Conn
	writeMu sync.Mutex
}

func (c *nodeConn) write(f Frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return WriteFrame(c.conn, f)
}

// health snapshots the executor state, stage histograms included, for a
// Health payload.
func (n *Node) health() Health {
	n.mu.Lock()
	draining := n.draining
	n.mu.Unlock()
	h := Health{
		ID:            n.cfg.ID,
		Workers:       n.exec.Workers(),
		QueueDepth:    n.exec.QueueDepth(),
		QueueCapacity: n.exec.QueueCapacity(),
		Inflight:      n.exec.Inflight(),
		CachedResults: n.exec.CachedResults(),
		Draining:      draining || n.exec.Draining(),
		Stages:        n.exec.StageStats(),
	}
	if h.QueueCapacity > 0 && h.QueueDepth >= h.QueueCapacity {
		h.RetryAfter = n.exec.RetryAfterSeconds()
	}
	return h
}

// Listen binds addr and serves the fabric protocol until Close.
func (n *Node) Listen(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	return n.Serve(l)
}

// Serve accepts gateway connections on l until Close. A nil error means a
// clean shutdown.
func (n *Node) Serve(l net.Listener) error {
	n.mu.Lock()
	if n.cfg.ID == "" {
		n.cfg.ID = l.Addr().String()
	}
	n.listener = l
	closed := n.draining
	n.mu.Unlock()
	if closed {
		l.Close()
		return nil
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			n.mu.Lock()
			draining := n.draining
			n.mu.Unlock()
			if draining {
				return nil
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("fabric: accept: %w", err)
		}
		c := &nodeConn{conn: conn}
		n.mu.Lock()
		n.conns[c] = true
		n.mu.Unlock()
		n.connsGauge.Add(1)
		go n.handleConn(c)
	}
}

// Close drains gracefully: stop accepting, send a draining Health on every
// open connection, let in-flight jobs finish (bounded by ctx), then
// half-close the connections. Job frames the node never read may still sit
// in a socket, and a full close would then reset it, losing replies the
// peer has not read yet; so the node stops writing and its reader ends when
// the peer hangs up on the EOF (or at ctx's deadline, if it has one). A
// connection without CloseWrite is closed outright. The executor stays up —
// it belongs to the caller.
func (n *Node) Close(ctx context.Context) error {
	n.mu.Lock()
	if n.draining {
		n.mu.Unlock()
		return nil
	}
	n.draining = true
	l := n.listener
	conns := make([]*nodeConn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()

	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		_ = n.writeHealth(c)
	}

	done := make(chan struct{})
	go func() { n.jobs.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("fabric: drain: %w", ctx.Err())
	}
	dl, hasDeadline := ctx.Deadline()
	for _, c := range conns {
		hc, ok := c.conn.(interface{ CloseWrite() error })
		if !ok {
			c.conn.Close()
			continue
		}
		// Not under writeMu: a writer blocked on a peer that stopped
		// reading holds it, and the shutdown is what wakes that writer.
		_ = hc.CloseWrite()
		if hasDeadline {
			_ = c.conn.SetReadDeadline(dl)
		}
	}
	return err
}

// handleConn speaks the protocol on one gateway connection: a Health frame
// first, then heartbeats and job dispatch until the peer hangs up.
func (n *Node) handleConn(c *nodeConn) {
	defer func() {
		n.mu.Lock()
		delete(n.conns, c)
		n.mu.Unlock()
		n.connsGauge.Add(-1)
		c.conn.Close()
	}()

	if err := n.writeHealth(c); err != nil {
		return
	}

	stop := make(chan struct{})
	defer close(stop)
	go n.heartbeat(c, stop)

	for {
		f, err := ReadFrame(c.conn)
		if err != nil {
			if errors.Is(err, ErrBadFrame) {
				n.decodeErrors.Inc()
			}
			return
		}
		// Job is the only frame a gateway sends; any other valid type is
		// ignored.
		if f.Type == FrameJob {
			n.startJob(c, f)
		}
	}
}

// heartbeat pushes Health frames until the connection closes.
func (n *Node) heartbeat(c *nodeConn, stop <-chan struct{}) {
	t := time.NewTicker(n.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if n.writeHealth(c) != nil {
				return
			}
		}
	}
}

func (n *Node) writeHealth(c *nodeConn) error {
	payload, err := json.Marshal(n.health())
	if err != nil {
		return err
	}
	return c.write(Frame{Type: FrameHealth, Payload: payload})
}

// startJob validates and dispatches one Job frame. The executor's bounded
// queue applies backpressure: a full queue answers immediately with a
// queue_full error frame instead of parking the connection. The draining
// check and jobs.Add share one critical section, so a job either sees
// Close's draining flag or is counted before Close waits on jobs.
func (n *Node) startJob(c *nodeConn, f Frame) {
	req, timeout, trace, err := decodeJob(f.Payload, n.evalFallback)
	if err != nil {
		n.writeJobError(c, f.JobID, JobError{Code: CodeBadRequest, Error: "bad job payload: " + err.Error()})
		return
	}
	n.mu.Lock()
	draining := n.draining
	if !draining {
		n.jobs.Add(1)
	}
	n.mu.Unlock()
	if draining {
		n.writeJobError(c, f.JobID, JobError{Code: CodeDraining, Error: "node is draining"})
		return
	}
	n.jobsTotal.Inc()
	go func() {
		defer n.jobs.Done()
		n.runJob(c, f.JobID, req, timeout, trace)
	}()
}

// runJob executes one evaluation and writes the Result or Error frame. The
// response is encoded exactly like the HTTP server encodes it (json.Encoder,
// trailing newline) so the gateway can forward the payload bytes verbatim
// and stay bit-identical with single-box serve. A trace context from the
// envelope parents this node's fabric_job span under the gateway's attempt
// span; the span rides the context so the executor's stage spans (queue,
// batch, per-replica forward/decode) nest beneath it.
func (n *Node) runJob(c *nodeConn, id uint64, req serve.EvalRequest, timeout time.Duration, trace string) {
	sc, ok := obs.ParseSpanContext(trace)
	if !ok {
		// A malformed context must not fail the job: trace locally instead.
		sc = obs.SpanContext{}
	}
	sp := n.cfg.Trace.SpanInContext(sc, "fabric_job", obs.S("node", n.cfg.ID), obs.I64("job", int64(id)))
	ctx := obs.ContextWithSpan(context.Background(), sp)
	if timeout > 0 {
		// The gateway's remaining budget: the executor's flush group
		// carries it to the pool, which checks it before running a queued
		// job, so work the gateway already abandoned is skipped instead of
		// burning a worker slot, at any batch size.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	resp, err := n.exec.Evaluate(ctx, req)
	if err != nil {
		n.jobErrors.Inc()
		je := JobError{Code: CodeInternal, Error: err.Error()}
		switch {
		case errors.Is(err, serve.ErrBadRequest):
			je.Code = CodeBadRequest
		case errors.Is(err, serve.ErrQueueFull):
			je.Code = CodeQueueFull
			je.RetryAfter = n.exec.RetryAfterSeconds()
		case errors.Is(err, serve.ErrShuttingDown):
			je.Code = CodeDraining
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			je.Code = CodeExpired
		}
		n.writeJobError(c, id, je)
		sp.End(obs.S("code", je.Code))
		return
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		n.jobErrors.Inc()
		n.writeJobError(c, id, JobError{Code: CodeInternal, Error: "encode result: " + err.Error()})
		sp.End(obs.S("code", CodeInternal))
		return
	}
	_ = c.write(Frame{Type: FrameResult, JobID: id, Payload: buf.Bytes()})
	sp.End(obs.S("code", "ok"), obs.I("bytes", buf.Len()))
}

// decodeJob decodes a Job frame's payload: a JobPayload envelope (request,
// remaining budget, trace context). scanJob reads the envelope the gateway
// writes in one pass; any other payload is counted on fallbacks and
// decoded with one json.Unmarshal. A payload without a request is an
// error.
func decodeJob(payload []byte, fallbacks *telemetry.Counter) (serve.EvalRequest, time.Duration, string, error) {
	env, ok := scanJob(payload)
	if !ok {
		fallbacks.Inc()
		env = JobPayload{}
		if err := json.Unmarshal(payload, &env); err != nil {
			return serve.EvalRequest{}, 0, "", err
		}
	}
	if env.Req == nil {
		return serve.EvalRequest{}, 0, "", errors.New(`no "req" in job envelope`)
	}
	var timeout time.Duration
	if env.TimeoutMs > 0 {
		timeout = time.Duration(env.TimeoutMs) * time.Millisecond
	}
	return *env.Req, timeout, env.Trace, nil
}

// scanJob reads the envelope appendJobPayload writes with
// serve.ObjectReader: the keys timeoutMs, trace and req, and nothing after
// the object. ok is false for anything else, so the result is always what
// json.Unmarshal would make of the payload; a repeated req merges into the
// same request, as Unmarshal's reuse of the Req pointer does.
func scanJob(payload []byte) (env JobPayload, ok bool) {
	var req serve.EvalRequest
	o := serve.NewObjectReader(payload)
	ok = o.Object(func(key string) bool {
		switch key {
		case "timeoutMs":
			env.TimeoutMs, ok = o.Int(64)
		case "trace":
			env.Trace, ok = o.String()
		case "req":
			env.Req, ok = &req, o.EvalRequest(&req)
		default:
			ok = false
		}
		return ok
	}) && o.AtEnd()
	return env, ok
}

func (n *Node) writeJobError(c *nodeConn, id uint64, je JobError) {
	payload, err := json.Marshal(je)
	if err != nil {
		payload = []byte(`{"code":"internal","error":"encode error"}`)
	}
	_ = c.write(Frame{Type: FrameError, JobID: id, Payload: payload})
}

// Addr returns the bound listener address ("" before Serve).
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}
