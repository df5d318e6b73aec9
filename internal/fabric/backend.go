package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"roadtrojan/internal/telemetry"
)

// errBackendDown marks a transport-level failure (dial refused, connection
// died mid-job). Evaluation jobs are idempotent — pure functions of
// (patch, scene, seed) — so the gateway is free to re-dispatch.
var errBackendDown = errors.New("fabric: backend down")

// jobFailedError is a node-reported job failure (an Error frame).
type jobFailedError struct {
	code       string
	msg        string
	retryAfter int
}

func (e *jobFailedError) Error() string { return "fabric: node error " + e.code + ": " + e.msg }

// Is makes a node's expired reply match context.DeadlineExceeded: it is the
// job's own propagated deadline, which the node can report before the
// gateway's context fires. Dispatch checks errors.As first, so an expired
// reply still fails over while job budget remains.
func (e *jobFailedError) Is(target error) bool {
	return target == context.DeadlineExceeded && e.code == CodeExpired
}

// backend manages the gateway's relationship with one node: a persistent
// framed connection with automatic redial, the pending-job table, and the
// node's last health report.
type backend struct {
	g       *Gateway
	addr    string
	breaker *breaker

	mu       sync.Mutex
	conn     net.Conn
	writeMu  sync.Mutex
	pending  map[uint64]chan jobReply // each buffered 1
	up       bool
	draining bool // node reported Draining
	removed  bool // gateway closing: stop redialing
	health   Health
	lastSeen time.Time

	removedCh chan struct{} // closed on remove, wakes the redial wait
	done      chan struct{} // closed when runLoop exits
}

type jobReply struct {
	payload []byte
	jerr    *JobError
	err     error
}

func newBackend(g *Gateway, addr string) *backend {
	b := &backend{
		g:    g,
		addr: addr,
		breaker: newBreaker(g.cfg.BreakerThreshold, g.cfg.BreakerCooldown, g.clock,
			g.reg.Counter("fabric_gateway_breaker_opens_total", "breaker closed→open transitions per backend",
				telemetry.Labels{"node": addr})),
		pending:   map[uint64]chan jobReply{},
		removedCh: make(chan struct{}),
		done:      make(chan struct{}),
	}
	// A node that leaves and re-joins gets a fresh backend (and breaker);
	// SetGaugeFunc explicitly re-points the series at the new breaker's
	// state instead of silently shadowing or panicking on the duplicate.
	g.reg.SetGaugeFunc("fabric_gateway_breaker_state", "per-backend circuit breaker state (0 closed, 1 open, 2 half-open)",
		telemetry.Labels{"node": addr}, b.breaker.stateValue)
	return b
}

// runLoop dials the node, reads its first Health frame, pumps frames until
// the connection dies, and redials with bounded backoff — gated by the
// circuit breaker, so a persistently failing peer costs one probe per
// cooldown instead of a dial every backoff tick.
func (b *backend) runLoop() {
	defer close(b.done)
	backoff := b.g.cfg.RedialBackoff
	wait := func(d time.Duration) bool {
		select {
		case <-b.g.clock.After(d):
			return true
		case <-b.removedCh:
			return false
		case <-b.g.closed:
			return false
		}
	}
	for {
		if b.isGone() {
			return
		}
		if ok, cooldown := b.breaker.ready(); !ok {
			if !wait(cooldown) {
				return
			}
			continue
		}
		conn, err := b.g.cfg.Dial(b.addr)
		if err == nil {
			var h Health
			h, err = b.awaitHello(conn)
			if err != nil {
				conn.Close()
			} else {
				b.breaker.success()
				backoff = b.g.cfg.RedialBackoff
				b.attach(conn, h)
				b.readLoop(conn)
				b.detach(conn)
				if b.isGone() {
					return
				}
				// The connection died underneath us: one breaker strike.
				b.breaker.failure()
				continue
			}
		}
		b.breaker.failure()
		if !wait(backoff) {
			return
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// awaitHello reads the node's mandatory first frame, a Health report,
// bounded by HelloTimeout so a peer that accepts the dial but never speaks
// (or trickles bytes slow-loris style) cannot hold the slot indefinitely.
// The bound is a real read deadline on the socket — wall time by
// necessity — which also keeps it effective under the virtual test clock.
func (b *backend) awaitHello(conn net.Conn) (Health, error) {
	if d := b.g.cfg.HelloTimeout; d > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(d))
		defer func() { _ = conn.SetReadDeadline(time.Time{}) }()
	}
	f, err := ReadFrame(conn)
	if err != nil {
		if errors.Is(err, ErrBadFrame) {
			b.g.decodeErrors.Inc()
		}
		return Health{}, fmt.Errorf("fabric: hello from %s: %w", b.addr, err)
	}
	if f.Type != FrameHealth {
		return Health{}, fmt.Errorf("fabric: hello from %s: unexpected frame type %d", b.addr, f.Type)
	}
	var h Health
	if err := json.Unmarshal(f.Payload, &h); err != nil {
		b.g.decodeErrors.Inc()
		return Health{}, fmt.Errorf("fabric: hello from %s: bad payload: %v", b.addr, err)
	}
	return h, nil
}

func (b *backend) isGone() bool {
	select {
	case <-b.removedCh:
		return true
	case <-b.g.closed:
		return true
	default:
		return false
	}
}

// attach marks the backend routable. The first health report h was already
// consumed by the handshake, so it is recorded here.
func (b *backend) attach(conn net.Conn, h Health) {
	b.mu.Lock()
	b.conn = conn
	b.up = true
	b.draining = false
	b.health = h
	b.lastSeen = b.g.clock.Now()
	b.mu.Unlock()
	b.g.backendUp(b.addr, true)
	if h.Draining {
		b.markDraining()
	}
}

// detach fails every pending job with errBackendDown so dispatch can retry
// them on the next ring owner immediately.
func (b *backend) detach(conn net.Conn) {
	conn.Close()
	b.mu.Lock()
	if b.conn == conn {
		b.conn = nil
		b.up = false
	}
	orphans := make([]chan jobReply, 0, len(b.pending))
	for id, done := range b.pending {
		orphans = append(orphans, done)
		delete(b.pending, id)
	}
	b.mu.Unlock()
	b.g.backendUp(b.addr, false)
	for _, done := range orphans {
		done <- jobReply{err: errBackendDown}
	}
}

// readLoop decodes node frames until the connection fails.
func (b *backend) readLoop(conn net.Conn) {
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			if errors.Is(err, ErrBadFrame) {
				b.g.decodeErrors.Inc()
			}
			return
		}
		b.mu.Lock()
		b.lastSeen = b.g.clock.Now()
		b.mu.Unlock()
		switch f.Type {
		case FrameHealth:
			var h Health
			if err := json.Unmarshal(f.Payload, &h); err != nil {
				b.g.decodeErrors.Inc()
				continue
			}
			b.mu.Lock()
			b.health = h
			b.mu.Unlock()
			if h.Draining {
				b.markDraining()
			}
		case FrameResult:
			b.deliver(f.JobID, jobReply{payload: f.Payload})
		case FrameError:
			var je JobError
			if err := json.Unmarshal(f.Payload, &je); err != nil {
				b.g.decodeErrors.Inc()
				je = JobError{Code: CodeInternal, Error: "undecodable error frame"}
			}
			b.deliver(f.JobID, jobReply{jerr: &je})
		}
	}
}

// stageStats returns the stage snapshots of the node's last health report.
func (b *backend) stageStats() map[string]telemetry.HistSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.health.Stages
}

// markDraining takes the node out of routing; the gateway keeps the
// connection until its pending jobs drain (graceful leave).
func (b *backend) markDraining() {
	b.mu.Lock()
	already := b.draining
	b.draining = true
	b.mu.Unlock()
	if !already {
		b.g.nodeDraining(b.addr)
	}
}

// deliver hands a job's reply to its waiting roundTrip. A reply for a job
// the gateway already gave up on (attempt timeout, cancel, failover) has
// no waiter; it is dropped and counted as late.
func (b *backend) deliver(id uint64, r jobReply) {
	b.mu.Lock()
	done := b.pending[id]
	delete(b.pending, id)
	closeIdle := b.removed && len(b.pending) == 0
	conn := b.conn
	b.mu.Unlock()
	if done != nil {
		done <- r
	} else {
		b.g.lateReplies.Inc()
	}
	// A removed backend lingers only for its in-flight jobs; the last
	// result closes the connection (graceful leave with in-flight drain).
	if closeIdle && conn != nil {
		conn.Close()
	}
}

// available reports whether dispatch may route new jobs here.
func (b *backend) available(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.up || b.draining || b.removed {
		return false
	}
	return now.Sub(b.lastSeen) <= b.g.cfg.HeartbeatTimeout
}

// snapshot returns the last health report and liveness for /healthz.
func (b *backend) snapshot() (Health, bool, time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.health, b.up && !b.draining && !b.removed, b.lastSeen
}

// remove initiates a graceful leave: no new jobs, redial stops, and the
// connection closes as soon as the pending table is empty.
func (b *backend) remove() {
	b.mu.Lock()
	if b.removed {
		b.mu.Unlock()
		return
	}
	b.removed = true
	idle := len(b.pending) == 0
	conn := b.conn
	b.mu.Unlock()
	close(b.removedCh)
	if idle && conn != nil {
		conn.Close()
	}
}

// roundTrip sends one job and blocks for its reply. req is the request JSON
// as the client sent it; it travels in a JobPayload envelope with the
// remaining budget of ctx, which lets the node cancel work the gateway has
// abandoned, and with trace, an encoded obs.SpanContext that parents the
// node's fabric_job span under the gateway's attempt span.
func (b *backend) roundTrip(ctx context.Context, req []byte, trace string) ([]byte, error) {
	var ms int64
	if dl, ok := ctx.Deadline(); ok {
		ms = max(time.Until(dl).Milliseconds(), 1) // expired budgets still travel: the node rejects them
	}
	payload := appendJobPayload(make([]byte, 0, len(req)+len(trace)+64), ms, trace, req)
	id := b.g.jobSeq.Add(1)
	done := make(chan jobReply, 1)

	b.mu.Lock()
	if !b.up || b.conn == nil {
		b.mu.Unlock()
		return nil, errBackendDown
	}
	conn := b.conn
	b.pending[id] = done
	b.mu.Unlock()

	b.writeMu.Lock()
	err := WriteFrame(conn, Frame{Type: FrameJob, JobID: id, Payload: payload})
	b.writeMu.Unlock()
	if err != nil {
		b.forget(id)
		conn.Close() // wake the read loop; detach fails the rest
		return nil, errBackendDown
	}

	select {
	case r := <-done:
		switch {
		case r.err != nil:
			return nil, r.err
		case r.jerr != nil:
			return nil, &jobFailedError{code: r.jerr.Code, msg: r.jerr.Error, retryAfter: r.jerr.RetryAfter}
		default:
			return r.payload, nil
		}
	case <-ctx.Done():
		b.forget(id)
		return nil, ctx.Err()
	}
}

func (b *backend) forget(id uint64) {
	b.mu.Lock()
	delete(b.pending, id)
	b.mu.Unlock()
}
