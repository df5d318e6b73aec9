package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roadtrojan/internal/chaos"
	"roadtrojan/internal/eval"
	"roadtrojan/internal/serve"
)

// chaosSeed pins every fabric chaos scenario: `make chaos` runs this file
// twice (via -count in CI it is once, but the determinism test below runs
// its scenario twice in-process) and the fault schedules must be identical.
const chaosSeed = 0xD15EA5E

// tcpDial is the plain dialer the chaos injector wraps in these tests.
func tcpDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// TestChaosPartitionDuringDispatchExactlyOnce partitions the ring owner
// mid-dispatch: the Job frame vanishes into the partition, the per-attempt
// timeout fires, and the gateway fails over to the next ring owner —
// executing the job exactly once. After Heal the partitioned backend
// recovers and serves again.
func TestChaosPartitionDuringDispatchExactlyOnce(t *testing.T) {
	det := fabricDetector()
	var counts sync.Map // addr -> *atomic.Int64
	jobFor := func(addr string) eval.JobFunc {
		n := &atomic.Int64{}
		counts.Store(addr, n)
		return func(eval.Job) (eval.Detail, error) {
			n.Add(1)
			return stubDetail(0.25), nil
		}
	}
	nodes := startNodes(t, det, 2, serve.Config{Workers: 2, QueueSize: 4}, jobFor)

	in := chaos.New(chaosSeed, chaos.Plan{}, nil)
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), func(cfg *GatewayConfig) {
		cfg.Dial = in.Dial(tcpDial)
		cfg.AttemptTimeout = 500 * time.Millisecond
	})
	waitRoutable(t, g, nodeAddrs(nodes)...)

	req := evalReq(t, 301)
	primary := lookup(g.ring, req.Digest())
	seq := g.ring.Sequence(req.Digest(), 2)
	secondary := seq[1]
	execs := func(addr string) int64 {
		v, _ := counts.Load(addr)
		return v.(*atomic.Int64).Load()
	}

	in.Partition(primary)
	payload, err := g.dispatch(context.Background(), jobOf(t, req))
	if err != nil {
		t.Fatalf("dispatch across partition: %v", err)
	}
	if resp := decodeEvalResponse(t, payload); resp.PWC != 0.25 {
		t.Errorf("failover result PWC = %v, want 0.25", resp.PWC)
	}
	if n := execs(primary); n != 0 {
		t.Errorf("partitioned primary executed %d jobs, want 0 (frame should be lost)", n)
	}
	if n := execs(secondary); n != 1 {
		t.Errorf("secondary executed %d jobs, want exactly 1", n)
	}

	// Heal: the parked connection dies, the backend redials clean, and the
	// primary serves its own key again (cache-missing, so it executes).
	// The parked connection still looks routable until its read wakes up,
	// so wait for the redial itself: a job sent on the dying connection
	// would fail over to the secondary's cache and never reach the primary.
	b := g.backend(primary)
	conn := func() net.Conn {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.conn
	}
	parked := conn()
	in.Heal(primary)
	for deadline := time.Now().Add(10 * time.Second); conn() == nil || conn() == parked; {
		if time.Now().After(deadline) {
			t.Fatal("partitioned backend never redialed after heal")
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitRoutable(t, g, primary)
	if _, err := g.dispatch(context.Background(), jobOf(t, req)); err != nil {
		t.Fatalf("dispatch after heal: %v", err)
	}
	if n := execs(primary); n != 1 {
		t.Errorf("healed primary executed %d jobs, want 1", n)
	}
	if n := execs(secondary); n != 1 {
		t.Errorf("secondary executed %d jobs after heal, want still 1 (no duplicate)", n)
	}
}

// TestChaosCorruptFrameTripsBadFrameAndBreaker corrupts the first Health
// frame's version byte on the first three connections: each trips ErrBadFrame,
// three consecutive failures open the circuit breaker, and only after the
// cooldown elapses (on the virtual clock) does a clean half-open probe
// close it again. The whole scenario runs twice with the same seed and the
// two chaos schedules must be byte-identical.
func TestChaosCorruptFrameTripsBadFrameAndBreaker(t *testing.T) {
	det := fabricDetector()
	jobFor := func(string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) { return stubDetail(0.25), nil }
	}
	nodes := startNodes(t, det, 1, serve.Config{Workers: 1, QueueSize: 2}, jobFor)
	addr := nodes[0].addr

	run := func() []string {
		// XOR 0 lets the injector pick the mask from the seeded PRNG — any
		// nonzero mask on the version byte (header offset 4) is ErrBadFrame.
		in := chaos.New(chaosSeed, chaos.Plan{Rules: []chaos.Rule{
			chaos.On(addr, 0, chaos.Fault{Kind: chaos.KindCorrupt, Dir: chaos.Inbound, After: 4}),
			chaos.On(addr, 1, chaos.Fault{Kind: chaos.KindCorrupt, Dir: chaos.Inbound, After: 4}),
			chaos.On(addr, 2, chaos.Fault{Kind: chaos.KindCorrupt, Dir: chaos.Inbound, After: 4}),
		}}, nil)
		clock := newFakeClock()
		g := newTestGateway(t, clock, []string{addr}, func(cfg *GatewayConfig) {
			cfg.Dial = in.Dial(tcpDial)
			cfg.BreakerThreshold = 3
			cfg.BreakerCooldown = time.Hour
		})

		b := g.backend(addr)
		deadline := time.Now().Add(10 * time.Second)
		for b.breaker.stateValue() != breakerOpen {
			if time.Now().After(deadline) {
				t.Fatal("breaker never opened on corrupt first Health frames")
			}
			time.Sleep(2 * time.Millisecond)
		}
		if g.decodeErrors.Value() == 0 {
			t.Error("corrupt frames did not count as decode errors")
		}
		// While open, the breaker suppresses dialing entirely: the probe
		// (connection #3) must not exist until the cooldown elapses.
		time.Sleep(20 * time.Millisecond)
		if b.available(clock.Now()) {
			t.Error("backend routable while breaker open")
		}

		clock.advance(2 * time.Hour)
		waitRoutable(t, g, addr) // half-open probe succeeds, breaker closes
		if st := b.breaker.stateValue(); st != breakerClosed {
			t.Errorf("breaker state after clean probe = %v, want closed", st)
		}
		if _, err := g.dispatch(context.Background(), jobOf(t, evalReq(t, 311))); err != nil {
			t.Fatalf("dispatch after breaker recovery: %v", err)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = g.Close(ctx)
		return in.Schedule()
	}

	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("chaos schedule empty; faults never armed")
	}
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Errorf("same-seed chaos schedules differ:\n--- run 1\n%s\n--- run 2\n%s",
			strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
}

// TestChaosSlowLorisHelloTimeout trickles the first Health frame one byte
// every 30ms on the first connection: the handshake deadline (150ms) cuts
// it off instead of letting the peer hold the slot for the full 20-byte
// header (600ms). The retry connection is clean and the backend comes up.
func TestChaosSlowLorisHelloTimeout(t *testing.T) {
	det := fabricDetector()
	jobFor := func(string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) { return stubDetail(0.25), nil }
	}
	nodes := startNodes(t, det, 1, serve.Config{Workers: 1, QueueSize: 2}, jobFor)
	addr := nodes[0].addr

	in := chaos.New(chaosSeed, chaos.Plan{Rules: []chaos.Rule{
		chaos.On(addr, 0, chaos.Fault{Kind: chaos.KindSlowLoris, Dir: chaos.Inbound, Chunk: 1, Delay: 30 * time.Millisecond}),
	}}, nil)
	start := time.Now()
	g := newTestGateway(t, serve.WallClock(), []string{addr}, func(cfg *GatewayConfig) {
		cfg.Dial = in.Dial(tcpDial)
		cfg.HelloTimeout = 150 * time.Millisecond
	})
	waitRoutable(t, g, addr)
	if elapsed := time.Since(start); elapsed >= 600*time.Millisecond {
		t.Errorf("backend took %v to come up; the slow-loris handshake was not cut off by the handshake timeout", elapsed)
	}
	if g.decodeErrors.Value() == 0 {
		t.Error("timed-out handshake did not surface as a decode error")
	}
	if _, err := g.dispatch(context.Background(), jobOf(t, evalReq(t, 321))); err != nil {
		t.Fatalf("dispatch after slow-loris recovery: %v", err)
	}
}

// TestChaosDeadlinePropagation: a job the gateway has already abandoned
// must not burn a worker slot on the node. The node's only worker is
// pinned; a second job is dispatched with a deadline that has already
// passed. The gateway gives up on it at once, but its Job frame still
// carries the expired budget (the 1 ms minimum), so the node answers it
// expired and the pool skips it when the worker frees up. No step waits
// out a wall-clock budget: the test waits for the node's expired reply and
// for the job to reach the queue, then releases the worker, as
// TestGroupContextFollowsWaiters does for the executor. The node runs at
// BatchSize 0 (a batch of one per request) and at BatchSize 2, the shape
// the ledger and the README recommend: the request's deadline must reach
// the pool either way.
func TestChaosDeadlinePropagation(t *testing.T) {
	for _, batch := range []int{0, 2} {
		t.Run("batch="+strconv.Itoa(batch), func(t *testing.T) { chaosDeadlinePropagation(t, batch) })
	}
}

func chaosDeadlinePropagation(t *testing.T, batch int) {
	det := fabricDetector()
	var calls atomic.Int64
	release := make(chan struct{})
	jobFor := func(string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) {
			if calls.Add(1) == 1 {
				<-release
			}
			return stubDetail(0.25), nil
		}
	}
	nodes := startNodes(t, det, 1, serve.Config{Workers: 1, QueueSize: 2, BatchSize: batch}, jobFor)
	node := nodes[0]
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), func(cfg *GatewayConfig) {
		cfg.MaxAttempts = 1
	})
	waitRoutable(t, g, node.addr)

	// Pin the worker with job A (no deadline: background context).
	resA := make(chan error, 1)
	jobA := jobOf(t, evalReq(t, 331))
	go func() {
		_, err := g.dispatch(context.Background(), jobA)
		resA <- err
	}()
	waitUntil(t, "the pinned job to start", func() bool { return node.exec.Inflight() == 1 })

	// Job B's deadline passed before its dispatch.
	ctxB, cancelB := context.WithDeadline(context.Background(), time.Now())
	defer cancelB()
	if _, err := g.dispatch(ctxB, jobOf(t, evalReq(t, 332))); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned dispatch returned %v, want context.DeadlineExceeded", err)
	}

	// The node answers B expired while B waits in the queue; then the
	// worker is freed. The pool checks the job context before running, so
	// B is skipped, not executed.
	waitUntil(t, "the node's expired reply to the queued job", func() bool {
		return node.node.jobErrors.Value() == 1 && node.exec.QueueDepth() == 1
	})
	releaseAll()
	if err := <-resA; err != nil {
		t.Fatalf("pinned job failed: %v", err)
	}
	waitUntil(t, "the node queue to drain", func() bool {
		return node.exec.QueueDepth() == 0 && node.exec.Inflight() == 0
	})
	if n := calls.Load(); n != 1 {
		t.Errorf("stub executed %d times, want 1: the abandoned job burned a worker slot", n)
	}
}

// scriptedNode speaks the node side of the protocol on conn: a Health
// frame, then answer's reply to every Job frame.
func scriptedNode(conn net.Conn, answer func(job Frame) Frame) {
	defer conn.Close()
	hello, _ := json.Marshal(Health{ID: "scripted", Workers: 1, QueueCapacity: 1})
	if WriteFrame(conn, Frame{Type: FrameHealth, Payload: hello}) != nil {
		return
	}
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			return
		}
		if f.Type == FrameJob && WriteFrame(conn, answer(f)) != nil {
			return
		}
	}
}

// scriptedExpiredNode answers every job with an "expired" error, as a node
// does once the propagated deadline has passed.
func scriptedExpiredNode(conn net.Conn) {
	reply, _ := json.Marshal(JobError{Code: CodeExpired, Error: "job deadline passed"})
	scriptedNode(conn, func(f Frame) Frame { return Frame{Type: FrameError, JobID: f.JobID, Payload: reply} })
}

// TestLateReplyIsCounted: a Result for a job the gateway already gave up on
// (here, its caller canceled) has no waiter; the gateway drops it and
// counts it in fabric_gateway_late_replies_total.
func TestLateReplyIsCounted(t *testing.T) {
	got, release := make(chan struct{}), make(chan struct{})
	g := newTestGateway(t, newFakeClock(), []string{"scripted:1"}, func(cfg *GatewayConfig) {
		cfg.MaxAttempts = 1
		cfg.Dial = func(string) (net.Conn, error) {
			gw, node := net.Pipe()
			go scriptedNode(node, func(f Frame) Frame {
				close(got)
				<-release
				return Frame{Type: FrameResult, JobID: f.JobID, Payload: []byte(`{}`)}
			})
			return gw, nil
		}
	})
	waitRoutable(t, g, "scripted:1")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.dispatch(ctx, jobOf(t, evalReq(t, 334)))
		done <- err
	}()
	<-got
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("dispatch returned %v, want context.Canceled", err)
	}
	if n := g.lateReplies.Value(); n != 0 {
		t.Fatalf("%d late replies before the node answered", n)
	}
	close(release)
	waitUntil(t, "the late reply to be counted", func() bool { return g.lateReplies.Value() == 1 })
}

// TestGatewayEdgeLatencyFollowsInjectedClock: the gateway's HTTP edge
// times requests on GatewayConfig.Clock, so a node reply that moves the
// virtual clock by 2.5 s lands in fabric_gateway_request_seconds as
// exactly 2.5 s.
func TestGatewayEdgeLatencyFollowsInjectedClock(t *testing.T) {
	clock := newFakeClock()
	g := newTestGateway(t, clock, []string{"scripted:1"}, func(cfg *GatewayConfig) {
		cfg.Dial = func(string) (net.Conn, error) {
			gw, node := net.Pipe()
			go scriptedNode(node, func(f Frame) Frame {
				clock.advance(2500 * time.Millisecond)
				return Frame{Type: FrameResult, JobID: f.JobID, Payload: []byte(`{}`)}
			})
			return gw, nil
		}
	})
	waitRoutable(t, g, "scripted:1")
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()
	body, _ := json.Marshal(evalReq(t, 335))
	resp, err := http.Post(gwSrv.URL+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: status %d", resp.StatusCode)
	}
	var scrape bytes.Buffer
	if err := g.reg.WriteText(&scrape); err != nil {
		t.Fatal(err)
	}
	if want := `fabric_gateway_request_seconds_sum{endpoint="evaluate"} 2.5` + "\n"; !strings.Contains(scrape.String(), want) {
		t.Fatalf("gateway registry lacks %q:\n%s", want, scrape.String())
	}
}

// TestChaosExpiredReplyIsDeadline pins, without timing, the race
// TestChaosDeadlinePropagation can hit: a node's expired reply that wins
// against the gateway's own context must still classify as the job deadline
// and answer 504, not 502.
func TestChaosExpiredReplyIsDeadline(t *testing.T) {
	g := newTestGateway(t, newFakeClock(), []string{"scripted:1"}, func(cfg *GatewayConfig) {
		cfg.MaxAttempts = 1
		cfg.Dial = func(string) (net.Conn, error) {
			gw, node := net.Pipe()
			go scriptedExpiredNode(node)
			return gw, nil
		}
	})
	waitRoutable(t, g, "scripted:1")

	_, err := g.dispatch(context.Background(), jobOf(t, evalReq(t, 333)))
	var jf *jobFailedError
	if !errors.As(err, &jf) || jf.code != CodeExpired {
		t.Fatalf("dispatch returned %v, want the node's expired reply", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired reply %v does not match context.DeadlineExceeded", err)
	}
	rec := httptest.NewRecorder()
	writeDispatchError(rec, err)
	var body serve.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusGatewayTimeout || body.Code != serve.CodeTimeout {
		t.Fatalf("expired reply mapped to %d %q, want %d %q", rec.Code, body.Code, http.StatusGatewayTimeout, serve.CodeTimeout)
	}
	var scrape bytes.Buffer
	if err := g.reg.WriteText(&scrape); err != nil {
		t.Fatal(err)
	}
	if want := `fabric_gateway_node_errors_total{code="expired"} 1` + "\n"; !strings.Contains(scrape.String(), want) {
		t.Fatalf("gateway registry lacks %q:\n%s", want, scrape.String())
	}
}

// TestChaosWALReplayAfterKill: a gateway dies with two finished jobs and
// one journaled-but-unfinished job in its WAL (plus a torn final line, the
// classic crash artifact). The restarted gateway must answer polls for the
// finished jobs byte-identically, and re-dispatch the unfinished one
// without a duplicate backend execution — the digest routes it to the node
// whose cache already holds the result.
func TestChaosWALReplayAfterKill(t *testing.T) {
	det := fabricDetector()
	var calls atomic.Int64
	jobFor := func(string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) {
			calls.Add(1)
			return stubDetail(0.25), nil
		}
	}
	nodes := startNodes(t, det, 1, serve.Config{Workers: 2, QueueSize: 4}, jobFor)
	walPath := t.TempDir() + "/gateway.wal"

	poll := func(srv *httptest.Server, id string) (string, []byte) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			r, err := http.Get(srv.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(r.Body); err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			var status jobStatusResponse
			if err := json.Unmarshal(buf.Bytes(), &status); err != nil {
				t.Fatalf("poll %s: %v (%s)", id, err, buf.Bytes())
			}
			if status.Status == "done" || status.Status == "failed" {
				return status.Status, buf.Bytes()
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %q", id, status.Status)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	submit := func(srv *httptest.Server, req serve.EvalRequest) string {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sub submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		return sub.ID
	}

	// --- first life: two jobs submitted and finished ---
	wal1, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	g1 := NewGateway(GatewayConfig{
		Nodes: nodeAddrs(nodes), Clock: newFakeClock(), WAL: wal1,
		RetryBackoff: time.Millisecond, RedialBackoff: time.Millisecond,
		HeartbeatTimeout: time.Hour, JobTimeout: 20 * time.Second,
	})
	waitRoutable(t, g1, nodeAddrs(nodes)...)
	srv1 := httptest.NewServer(g1.Handler())

	reqA, reqB := evalReq(t, 341), evalReq(t, 342)
	idA, idB := submit(srv1, reqA), submit(srv1, reqB)
	statusA, bodyA := poll(srv1, idA)
	statusB, bodyB := poll(srv1, idB)
	if statusA != "done" || statusB != "done" {
		t.Fatalf("first-life jobs finished %q/%q, want done/done", statusA, statusB)
	}
	if calls.Load() != 2 {
		t.Fatalf("first life executed %d jobs, want 2", calls.Load())
	}
	srv1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = g1.Close(ctx) // closes wal1; the journal stays on disk

	// --- the crash: a submit-only record (journaled, never finished) for
	// the same request as job A, plus a torn final line mid-append ---
	reqJSON, _ := json.Marshal(reqA)
	pending := WALRecord{T: walSubmit, ID: "j000099-replayed", Seq: 99, Digest: reqA.Digest(), Req: reqJSON}
	line, _ := json.Marshal(pending)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(line, "\n{\"t\":\"resu"...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// --- second life: replay ---
	wal2, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	g2 := newTestGateway(t, serve.WallClock(), nodeAddrs(nodes), func(cfg *GatewayConfig) {
		cfg.WAL = wal2
		cfg.RetryBackoff = 20 * time.Millisecond
		cfg.MaxAttempts = 10 // replay races the first backend dial; be patient
		cfg.JobTimeout = 20 * time.Second
	})
	srv2 := httptest.NewServer(g2.Handler())
	defer srv2.Close()

	status, body := poll(srv2, idA)
	if status != "done" || !bytes.Equal(body, bodyA) {
		t.Errorf("job A after replay: status %q, body\n got: %s\nwant: %s", status, body, bodyA)
	}
	status, body = poll(srv2, idB)
	if status != "done" || !bytes.Equal(body, bodyB) {
		t.Errorf("job B after replay: status %q, body\n got: %s\nwant: %s", status, body, bodyB)
	}
	status, body = poll(srv2, "j000099-replayed")
	if status != "done" {
		t.Fatalf("replayed pending job finished %q (%s), want done", status, body)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("fleet executed %d jobs after replay, want still 2 (idempotent re-dispatch)", n)
	}
	// Fresh submissions continue past the replayed sequence numbers.
	if id := submit(srv2, evalReq(t, 343)); !strings.HasPrefix(id, "j000100-") {
		t.Errorf("post-replay job id %q, want sequence to continue at j000100", id)
	}
}

// TestChaosMembershipChurn takes two nodes off the ring (the draining
// path) and puts them back, from two goroutines, while a third keeps jobs
// in flight — the ring-rebalance race test. Run under -race this pins the
// locking story; functionally, dispatches must keep succeeding on the
// stable core nodes and the fleet must converge.
func TestChaosMembershipChurn(t *testing.T) {
	det := fabricDetector()
	jobFor := func(string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) { return stubDetail(0.25), nil }
	}
	nodes := startNodes(t, det, 4, serve.Config{Workers: 2, QueueSize: 8}, jobFor)
	core := nodes[:2]
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), func(cfg *GatewayConfig) {
		cfg.MaxAttempts = 5
	})
	waitRoutable(t, g, nodeAddrs(nodes)...)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, churnNode := range nodes[2:] {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					g.nodeDraining(addr)
				} else {
					g.ring.Add(addr)
				}
				time.Sleep(time.Millisecond) // pace the churn
			}
		}(churnNode.addr)
	}

	var ok, failed atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := g.dispatch(context.Background(), jobOf(t, evalReq(t, 400+i%8))); err != nil {
				failed.Add(1)
			} else {
				ok.Add(1)
			}
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatalf("no dispatch succeeded during churn (%d failures)", failed.Load())
	}
	// Converge: both churn nodes out, core still routable, dispatch clean.
	g.nodeDraining(nodes[2].addr)
	g.nodeDraining(nodes[3].addr)
	if n := g.ring.Len(); n != 2 {
		t.Fatalf("ring has %d nodes after churn settled, want 2", n)
	}
	waitRoutable(t, g, nodeAddrs(core)...)
	if _, err := g.dispatch(context.Background(), jobOf(t, evalReq(t, 451))); err != nil {
		t.Fatalf("dispatch after churn settled: %v", err)
	}
	t.Logf("churn: %d dispatches succeeded, %d transiently failed", ok.Load(), failed.Load())
}

// TestAsyncSubmitSaturationRetryAfter: POST /v1/jobs sheds load with the
// same 429 + Retry-After contract as the sync path once every routable
// node's heartbeat reports a full queue.
func TestAsyncSubmitSaturationRetryAfter(t *testing.T) {
	det := fabricDetector()
	release := make(chan struct{})
	jobFor := func(string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) {
			<-release
			return stubDetail(0.25), nil
		}
	}
	nodes := startNodes(t, det, 1, serve.Config{Workers: 1, QueueSize: 1}, jobFor)
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), nil)
	waitRoutable(t, g, nodeAddrs(nodes)...)
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()

	// One running + one queued job saturate the single node.
	errs := make(chan error, 2)
	for i := int64(0); i < 2; i++ {
		req := evalReq(t, 500+i)
		go func(req serve.EvalRequest) {
			_, err := g.dispatch(context.Background(), jobOf(t, req))
			errs <- err
		}(req)
	}
	// Wait for a heartbeat that reports the full queue to reach the gateway.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, sat := g.fleetSaturated(); sat {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never saw the fleet saturated (node depth=%d cap=%d)",
				nodes[0].exec.QueueDepth(), nodes[0].exec.QueueCapacity())
		}
		time.Sleep(2 * time.Millisecond)
	}

	body, _ := json.Marshal(evalReq(t, 510))
	resp, err := http.Post(gwSrv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated async submit answered %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	var eresp serve.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Code != serve.CodeSaturated {
		t.Errorf("error code %q, want %q", eresp.Code, serve.CodeSaturated)
	}

	releaseAll()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("filler job failed: %v", err)
		}
	}
}

// TestGatewayErrorBodiesCarryCodes sweeps the gateway's HTTP error paths
// and requires every body to carry a machine-readable code.
func TestGatewayErrorBodiesCarryCodes(t *testing.T) {
	det := fabricDetector()
	jobFor := func(string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) { return stubDetail(0.25), nil }
	}
	nodes := startNodes(t, det, 1, serve.Config{Workers: 1, QueueSize: 2}, jobFor)
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), nil)
	waitRoutable(t, g, nodeAddrs(nodes)...)
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()

	check := func(name, method, path, body, wantCode string, wantStatus int) {
		t.Helper()
		req, err := http.NewRequest(method, gwSrv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, wantStatus)
		}
		var eresp serve.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
			t.Fatalf("%s: undecodable error body: %v", name, err)
		}
		if eresp.Code != wantCode {
			t.Errorf("%s: code %q, want %q", name, eresp.Code, wantCode)
		}
		if eresp.Error == "" {
			t.Errorf("%s: empty error message", name)
		}
	}

	check("bad verb", http.MethodGet, "/v1/evaluate", "", serve.CodeMethodNotAllowed, http.StatusMethodNotAllowed)
	check("bad json sync", http.MethodPost, "/v1/evaluate", "{", serve.CodeBadRequest, http.StatusBadRequest)
	check("invalid request sync", http.MethodPost, "/v1/evaluate", "{}", serve.CodeBadRequest, http.StatusBadRequest)
	check("bad json async", http.MethodPost, "/v1/jobs", "{", serve.CodeBadRequest, http.StatusBadRequest)
	check("unknown job", http.MethodGet, "/v1/jobs/nope", "", serve.CodeNotFound, http.StatusNotFound)
}
