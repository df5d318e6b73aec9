package fabric

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/eval"
	"roadtrojan/internal/metrics"
	"roadtrojan/internal/serve"
	"roadtrojan/internal/shapes"
	"roadtrojan/internal/telemetry"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

// --- deterministic test scaffolding ---

// fakeClock is the injected gateway clock: Now is virtual (advanced by
// hand, never by the wall), and After fires after a nominal real
// millisecond regardless of the requested delay, so backoff paths execute
// deterministically without the test sleeping through them.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(time.Duration) <-chan time.Time { return time.After(time.Millisecond) }

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// killableListener records accepted connections so a test can simulate a
// node crash: listener and every live connection torn down at once.
type killableListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *killableListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *killableListener) kill() {
	l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

func fabricDetector() *yolo.Model {
	m := yolo.New(rand.New(rand.NewSource(11)), yolo.DefaultConfig())
	m.SetTraining(false)
	return m
}

type fabricNode struct {
	node   *Node
	exec   *serve.Executor
	lis    *killableListener
	addr   string
	served chan error
}

// startNodes brings up count fabric nodes on loopback listeners. jobFor
// (optional) builds each node's eval stub keyed by its address; nil keeps
// the real evaluation path.
func startNodes(t *testing.T, det *yolo.Model, count int, cfg serve.Config,
	jobFor func(addr string) eval.JobFunc) []*fabricNode {
	t.Helper()
	listeners := make([]net.Listener, count)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
	}
	nodes := make([]*fabricNode, count)
	for i, l := range listeners {
		c := cfg
		if jobFor != nil {
			c.Job = jobFor(l.Addr().String())
		}
		nodes[i] = serveNode(t, det, l, c)
	}
	return nodes
}

// serveNode serves the fabric protocol on l over a fresh executor until
// the test ends.
func serveNode(t *testing.T, det *yolo.Model, l net.Listener, cfg serve.Config) *fabricNode {
	t.Helper()
	fn := &fabricNode{
		lis:    &killableListener{Listener: l},
		addr:   l.Addr().String(),
		served: make(chan error, 1),
		exec:   serve.NewExecutor(det, cfg, nil),
	}
	fn.node = NewNode(fn.exec, NodeConfig{ID: fn.addr, Heartbeat: 50 * time.Millisecond})
	go func() { fn.served <- fn.node.Serve(fn.lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = fn.node.Close(ctx)
		_ = fn.exec.Close(ctx)
	})
	return fn
}

// listenAt binds addr again, the way a restarted node takes back its port.
func listenAt(t *testing.T, addr string) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func nodeAddrs(nodes []*fabricNode) []string {
	out := make([]string, len(nodes))
	for i, fn := range nodes {
		out[i] = fn.addr
	}
	return out
}

func nodeByAddr(t *testing.T, nodes []*fabricNode, addr string) *fabricNode {
	t.Helper()
	for _, fn := range nodes {
		if fn.addr == addr {
			return fn
		}
	}
	t.Fatalf("no test node at %s", addr)
	return nil
}

func newTestGateway(t *testing.T, clock serve.Clock, addrs []string, mutate func(*GatewayConfig)) *Gateway {
	t.Helper()
	cfg := GatewayConfig{
		Nodes:            addrs,
		Clock:            clock,
		RetryBackoff:     time.Millisecond,
		RedialBackoff:    time.Millisecond,
		HeartbeatTimeout: time.Hour, // staleness is driven by the injected clock
		JobTimeout:       20 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g := NewGateway(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = g.Close(ctx)
	})
	return g
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitRoutable blocks until every listed backend is dial-connected and
// routable from the gateway's point of view.
func waitRoutable(t *testing.T, g *Gateway, addrs ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		now := g.clock.Now()
		all := true
		for _, a := range addrs {
			if ok, _ := g.backends[a].available(now); !ok {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("backends never became routable")
}

// route is the node dispatch tries first for key: the first routable
// backend in the key's ring sequence, or "" when none is.
func route(g *Gateway, key string) string {
	now := g.clock.Now()
	for _, addr := range g.ring.Sequence(key, g.ring.Len()) {
		if ok, _ := g.backends[addr].available(now); ok {
			return addr
		}
	}
	return ""
}

// waitMembers blocks until n configured nodes are not draining.
func waitMembers(t *testing.T, g *Gateway, n int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d non-draining node(s)", n), func() bool { return g.members() == n })
}

// fabricPatchB64 builds a distinct valid patch payload per seed; distinct
// payloads hash to distinct ring keys, which is how tests steer routing.
func fabricPatchB64(t *testing.T, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gray := tensor.New(1, 32, 32)
	for i := range gray.Data() {
		gray.Data()[i] = rng.Float64()
	}
	cfg := attack.DefaultConfig()
	p := &attack.Patch{Gray: gray, Mask: shapes.Mask(cfg.Shape, 32, cfg.ShapeScale(), 0), Cfg: cfg}
	raw, err := attack.EncodePatch(p)
	if err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(raw)
}

func evalReq(t *testing.T, patchSeed int64) serve.EvalRequest {
	t.Helper()
	req := serve.EvalRequest{
		Patch: fabricPatchB64(t, patchSeed),
		Scene: "road", Challenge: "fix", Mode: "digital", Runs: 1, Seed: 5,
	}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	return req
}

// jobOf is the job the gateway's edge builds for req: its patch digest and
// its JSON as a client sends it.
func jobOf(t *testing.T, req serve.EvalRequest) evalJob {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return evalJob{digest: req.Digest(), req: body}
}

func stubDetail(pwc float64) eval.Detail {
	return eval.Detail{Score: metrics.Score{PWC: pwc, CWC: pwc >= 0.5, Frames: 4, DetectRate: 1}}
}

func decodeEvalResponse(t *testing.T, payload []byte) serve.EvalResponse {
	t.Helper()
	var resp serve.EvalResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatalf("decode eval response: %v (payload %q)", err, payload)
	}
	return resp
}

// --- behavior tests ---

// TestGatewayByteIdenticalWithSingleBox is the compatibility acceptance
// check: the same request through gateway → fabric node must produce a
// response body bit-identical to single-box serve.
func TestGatewayByteIdenticalWithSingleBox(t *testing.T) {
	det := fabricDetector()
	cfg := serve.Config{Workers: 2, QueueSize: 4, JobTimeout: 20 * time.Second}

	single := serve.New(det, cfg)
	singleSrv := httptest.NewServer(single.Handler())
	defer singleSrv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = single.Shutdown(ctx)
	}()

	nodes := startNodes(t, det, 2, cfg, nil)
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), nil)
	waitRoutable(t, g, nodeAddrs(nodes)...)
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()

	for name, req := range map[string]serve.EvalRequest{
		"patch":    evalReq(t, 31),
		"baseline": {Scene: "road", Challenge: "fix", Mode: "digital", Runs: 1, Seed: 9, Target: 2},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		post := func(url string) (int, []byte, string) {
			resp, err := http.Post(url+"/v1/evaluate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, buf.Bytes(), resp.Header.Get("Content-Type")
		}
		codeS, bodyS, ctS := post(singleSrv.URL)
		codeG, bodyG, ctG := post(gwSrv.URL)
		if codeS != http.StatusOK || codeG != http.StatusOK {
			t.Fatalf("%s: status single=%d gateway=%d (gateway body %s)", name, codeS, codeG, bodyG)
		}
		if ctS != ctG {
			t.Errorf("%s: content type %q vs %q", name, ctS, ctG)
		}
		if !bytes.Equal(bodyS, bodyG) {
			t.Errorf("%s: gateway response not byte-identical to single-box:\n single: %s\ngateway: %s",
				name, bodyS, bodyG)
		}
	}
}

// TestGatewayAffinityAndCaching: repeated evaluations of one patch land on
// the ring owner and the second hit is served from that node's cache.
func TestGatewayAffinityAndCaching(t *testing.T) {
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
	nodes := startNodes(t, det, 3, serve.Config{Workers: 2, QueueSize: 4}, jobFor)
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), nil)
	waitRoutable(t, g, nodeAddrs(nodes)...)

	ctx := context.Background()
	for _, seed := range []int64{41, 42} {
		req := evalReq(t, seed)
		owner := lookup(g.ring, req.Digest())
		for round := 0; round < 2; round++ {
			payload, err := g.dispatch(ctx, jobOf(t, req))
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			resp := decodeEvalResponse(t, payload)
			if wantCached := round == 1; resp.Cached != wantCached {
				t.Errorf("seed %d round %d: cached=%v want %v", seed, round, resp.Cached, wantCached)
			}
		}
		ownerCalls, _ := counts.Load(owner)
		if n := ownerCalls.(*atomic.Int64).Load(); n == 0 {
			t.Errorf("seed %d: ring owner %s never ran the job", seed, owner)
		}
	}
	// Only ring owners ran anything: total executions = distinct patches.
	total := int64(0)
	counts.Range(func(_, v any) bool { total += v.(*atomic.Int64).Load(); return true })
	if total != 2 {
		t.Errorf("stub executions = %d, want 2 (one per patch, second round cached)", total)
	}
}

// TestGatewayEscapedBodySharesPlainEntry: a body whose patch escapes '/'
// as `\/`, as some client encoders write it, gets the plain body's Digest,
// node, cache entry and response bytes, in either order: whichever comes
// second is answered from the first's entry with "cached":true. The
// gateway forwards the escaped bytes as they came, so each escaped body is
// one counted encoding/json fallback at the gateway and one at the node.
func TestGatewayEscapedBodySharesPlainEntry(t *testing.T) {
	var ran sync.Map // addr -> *atomic.Int64
	jobFor := func(addr string) eval.JobFunc {
		n := &atomic.Int64{}
		ran.Store(addr, n)
		return func(eval.Job) (eval.Detail, error) {
			n.Add(1)
			return stubDetail(0.25), nil
		}
	}
	nodes := startNodes(t, fabricDetector(), 2, serve.Config{Workers: 1, QueueSize: 4}, jobFor)
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), nil)
	waitRoutable(t, g, nodeAddrs(nodes)...)
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()
	post := func(body []byte) []byte {
		resp, err := http.Post(gwSrv.URL+"/v1/evaluate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d (%s), err %v", resp.StatusCode, buf.Bytes(), err)
		}
		return buf.Bytes()
	}

	for i, escapedFirst := range []bool{false, true} {
		plain, err := json.Marshal(evalReq(t, 61+int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		escaped := bytes.ReplaceAll(plain, []byte("/"), []byte(`\/`))
		if bytes.Equal(escaped, plain) {
			t.Fatal("test patch has no '/' to escape")
		}
		p, _, errP := serve.DecodeEvalRequest(plain, nil)
		e, _, errE := serve.DecodeEvalRequest(escaped, nil)
		if errP != nil || errE != nil || p != e || p.Digest() != e.Digest() {
			t.Fatalf("edge decodes differ: %v %v, digests %s %s", errP, errE, p.Digest(), e.Digest())
		}
		first, second := plain, escaped
		if escapedFirst {
			first, second = escaped, plain
		}
		n, _ := ran.Load(lookup(g.ring, p.Digest()))
		ownerRan := n.(*atomic.Int64).Load()
		miss, hit := post(first), post(second)
		if want := bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1); bytes.Equal(want, miss) || !bytes.Equal(hit, want) {
			t.Fatalf("escapedFirst=%v: second body answered %s after %s", escapedFirst, hit, miss)
		}
		if got := n.(*atomic.Int64).Load() - ownerRan; got != 1 {
			t.Errorf("escapedFirst=%v: the digest's ring owner ran %d jobs, want 1", escapedFirst, got)
		}
	}
	entries, jobs := 0, int64(0)
	for _, fn := range nodes {
		entries += fn.exec.CachedResults()
		n, _ := ran.Load(fn.addr)
		jobs += n.(*atomic.Int64).Load()
	}
	if entries != 2 || jobs != 2 {
		t.Errorf("%d cache entries and %d jobs across the fleet, want 2 and 2", entries, jobs)
	}
	fallbacks := func(reg *telemetry.Registry) int {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "eval_decode_fallback_total "); ok {
				n, _ := strconv.Atoi(v)
				return n
			}
		}
		t.Fatalf("no eval_decode_fallback_total in:\n%s", buf.Bytes())
		return 0
	}
	nodeFallbacks := 0
	for _, fn := range nodes {
		nodeFallbacks += fallbacks(fn.exec.Metrics())
	}
	if gw := fallbacks(g.Metrics()); gw != 2 || nodeFallbacks != 2 {
		t.Errorf("fallbacks: gateway %d, nodes %d; want 2 each", gw, nodeFallbacks)
	}
}

// TestNodeDeathMidJobRetries kills the primary owner while it holds an
// accepted in-flight job. The gateway must fail over along the ring sequence
// and return exactly one result — nothing lost, nothing duplicated.
func TestNodeDeathMidJobRetries(t *testing.T) {
	det := fabricDetector()
	var victim atomic.Value
	victim.Store("")
	started := make(chan string, 1)
	release := make(chan struct{})
	var victimHits, completions atomic.Int64
	jobFor := func(addr string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) {
			if victim.Load().(string) == addr {
				if victimHits.Add(1) == 1 {
					started <- addr
				}
				<-release
				return eval.Detail{}, errors.New("node crashed mid-job")
			}
			completions.Add(1)
			return stubDetail(0.75), nil
		}
	}
	nodes := startNodes(t, det, 3, serve.Config{Workers: 2, QueueSize: 4}, jobFor)
	defer close(release)
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), nil)
	waitRoutable(t, g, nodeAddrs(nodes)...)

	req := evalReq(t, 51)
	primary := lookup(g.ring, req.Digest())
	victim.Store(primary)

	type result struct {
		payload []byte
		err     error
	}
	resCh := make(chan result, 1)
	go func() {
		payload, err := g.dispatch(context.Background(), jobOf(t, req))
		resCh <- result{payload, err}
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("primary never started the job")
	}
	nodeByAddr(t, nodes, primary).lis.kill()

	var res result
	select {
	case res = <-resCh:
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch did not fail over after node death")
	}
	if res.err != nil {
		t.Fatalf("dispatch after node death: %v", res.err)
	}
	resp := decodeEvalResponse(t, res.payload)
	if resp.PWC != 0.75 {
		t.Errorf("failover result PWC = %v, want 0.75", resp.PWC)
	}
	if n := completions.Load(); n != 1 {
		t.Errorf("job completed %d times across surviving nodes, want exactly 1", n)
	}
}

// TestGatewayRebalanceOnJoinLeave checks fleet-change semantics end to
// end: keys keep their owner (and that owner's warm cache) when a
// configured node that was down starts listening, and a leaving node's
// keys redistribute to survivors.
func TestGatewayRebalanceOnJoinLeave(t *testing.T) {
	det := fabricDetector()
	cfg := serve.Config{Workers: 2, QueueSize: 8,
		Job: func(eval.Job) (eval.Detail, error) { return stubDetail(0.25), nil }}
	initial := startNodes(t, det, 2, cfg, nil)
	// The joiner's port is reserved and released: it is configured from
	// the start, but nothing listens there until the join.
	reserved := listenAt(t, "127.0.0.1:0")
	joinAddr := reserved.Addr().String()
	reserved.Close()

	clock := newFakeClock()
	g := newTestGateway(t, clock, append(nodeAddrs(initial), joinAddr), nil)
	waitRoutable(t, g, nodeAddrs(initial)...)

	ctx := context.Background()
	reqs := make([]serve.EvalRequest, 8)
	before := map[string]string{}
	for i := range reqs {
		reqs[i] = evalReq(t, 100+int64(i))
		before[reqs[i].Digest()] = route(g, reqs[i].Digest())
		if _, err := g.dispatch(ctx, jobOf(t, reqs[i])); err != nil {
			t.Fatalf("warm dispatch %d: %v", i, err)
		}
	}

	serveNode(t, det, listenAt(t, joinAddr), cfg)
	// The refused dials may have opened the joiner's breaker; the fake
	// clock only runs its cooldown down when advanced.
	clock.advance(time.Minute)
	waitRoutable(t, g, joinAddr)
	movedToJoiner := 0
	for _, req := range reqs {
		key := req.Digest()
		owner := route(g, key)
		if owner != before[key] && owner != joinAddr {
			t.Fatalf("key %s moved between pre-existing nodes on join: %s -> %s", key, before[key], owner)
		}
		payload, err := g.dispatch(ctx, jobOf(t, req))
		if err != nil {
			t.Fatalf("dispatch after join: %v", err)
		}
		if owner == joinAddr {
			movedToJoiner++
		} else if !decodeEvalResponse(t, payload).Cached {
			// Unmoved key, unmoved owner: the warm cache must still answer.
			t.Errorf("key %s lost cache affinity across an unrelated join", key)
		}
	}
	t.Logf("join moved %d/%d keys to the new node", movedToJoiner, len(reqs))

	// Graceful leave: the node's draining Health frame takes it out of
	// routing, its keys spread over survivors and every request still
	// completes.
	closeCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := initial[0].node.Close(closeCtx); err != nil {
		t.Fatalf("closing the leaving node: %v", err)
	}
	waitMembers(t, g, 2)
	for _, req := range reqs {
		if owner := route(g, req.Digest()); owner == initial[0].addr {
			t.Fatalf("key %s still routed to the drained node", req.Digest())
		}
		if _, err := g.dispatch(ctx, jobOf(t, req)); err != nil {
			t.Fatalf("dispatch after leave: %v", err)
		}
	}
}

// TestGatewayRoutesRestartedNode: a node that drains and restarts at the
// same address is routed its keys again and runs their jobs. While it is
// draining, the gateway answers 429 at once when every other node is
// saturated: a leaving node counts as neither down nor saturated.
func TestGatewayRoutesRestartedNode(t *testing.T) {
	det := fabricDetector()
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	var restartedRan atomic.Int64
	cfg := serve.Config{Workers: 1, QueueSize: 1, Job: func(eval.Job) (eval.Detail, error) {
		<-release
		return stubDetail(0.25), nil
	}}
	nodes := startNodes(t, det, 2, cfg, nil)
	clock := newFakeClock()
	g := newTestGateway(t, clock, nodeAddrs(nodes), nil)
	waitRoutable(t, g, nodeAddrs(nodes)...)
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()

	leaver := nodes[1]
	var req serve.EvalRequest
	for seed := int64(600); ; seed++ {
		if req = evalReq(t, seed); lookup(g.ring, req.Digest()) == leaver.addr {
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := leaver.node.Close(ctx); err != nil {
		t.Fatal(err)
	}
	waitMembers(t, g, 1)

	// One running and one queued job saturate the survivor.
	errs := make(chan error, 2)
	for i := int64(0); i < 2; i++ {
		go func(req serve.EvalRequest) {
			_, err := g.dispatch(context.Background(), jobOf(t, req))
			errs <- err
		}(evalReq(t, 700+i))
	}
	waitUntil(t, "the survivor saturated", func() bool {
		return nodes[0].exec.Inflight() == 1 && nodes[0].exec.QueueDepth() == 1
	})
	body, _ := json.Marshal(evalReq(t, 710))
	resp, err := http.Post(gwSrv.URL+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ra, _ := strconv.Atoi(resp.Header.Get("Retry-After")); resp.StatusCode != http.StatusTooManyRequests || ra < 1 {
		t.Fatalf("draining node + saturated survivor answered %d, Retry-After %q; want 429 and >= 1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if n := g.retries.Value(); n != 0 {
		t.Errorf("%d retries before the 429, want 0", n)
	}
	releaseAll()
	for range 2 {
		if err := <-errs; err != nil {
			t.Errorf("filler job failed: %v", err)
		}
	}

	restarted := cfg
	restarted.Job = func(eval.Job) (eval.Detail, error) {
		restartedRan.Add(1)
		return stubDetail(0.5), nil
	}
	serveNode(t, det, listenAt(t, leaver.addr), restarted)
	// The refused redials may have opened the breaker; let it probe.
	clock.advance(time.Minute)
	waitRoutable(t, g, leaver.addr)
	if n := g.members(); n != 2 {
		t.Errorf("%d non-draining node(s) after the restart, want 2", n)
	}
	if owner := route(g, req.Digest()); owner != leaver.addr {
		t.Fatalf("key owned by the restarted node routes to %q, want %s", owner, leaver.addr)
	}
	payload, err := g.dispatch(context.Background(), jobOf(t, req))
	if err != nil {
		t.Fatalf("dispatch to the restarted node: %v", err)
	}
	if got := decodeEvalResponse(t, payload).PWC; got != 0.5 || restartedRan.Load() != 1 {
		t.Errorf("restarted node ran %d job(s), answer PWC %v; want 1 job and 0.5", restartedRan.Load(), got)
	}
}

// TestGatewayCloseDropsDialingBackend: Close sweeps only connections that
// are attached, so a backend still dialing or in its handshake attaches
// after the sweep. The gateway must hang up on that connection itself
// instead of holding it open until the node leaves.
func TestGatewayCloseDropsDialingBackend(t *testing.T) {
	fn := startNodes(t, fabricDetector(), 1, serve.Config{Workers: 1, QueueSize: 1}, nil)[0]
	conns := fn.node.connsGauge
	dialed := make(chan struct{})
	var dialedOnce sync.Once
	closed := make(chan struct{})
	g := NewGateway(GatewayConfig{Nodes: []string{fn.addr}, Dial: func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		dialedOnce.Do(func() { close(dialed) })
		<-closed // the connection is handed over only once Close has returned
		return conn, err
	}})
	<-dialed
	waitUntil(t, "the node to accept the gateway's dial", func() bool { return conns.Value() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Close(ctx); err != nil {
		t.Fatal(err)
	}
	close(closed)
	deadline := time.Now().Add(5 * time.Second)
	for conns.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("node still holds %v gateway connection(s) 5s after the gateway closed", conns.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSaturationBackpressure fills every shard's bounded queue and expects
// the HTTP edge to answer 429 with a usable Retry-After rather than
// queueing unboundedly or retrying forever.
func TestSaturationBackpressure(t *testing.T) {
	det := fabricDetector()
	release := make(chan struct{})
	jobFor := func(string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) {
			<-release
			return stubDetail(0.25), nil
		}
	}
	nodes := startNodes(t, det, 2, serve.Config{Workers: 1, QueueSize: 1}, jobFor)
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), nil)
	waitRoutable(t, g, nodeAddrs(nodes)...)
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()

	// Two jobs per node (1 running + 1 queued) saturate the fleet. Each
	// filler targets one node's key so routing is fully determined.
	fillers := map[string]int{}
	var fillerReqs []serve.EvalRequest
	for seed := int64(200); len(fillerReqs) < 4 && seed < 300; seed++ {
		req := evalReq(t, seed)
		owner := lookup(g.ring, req.Digest())
		if fillers[owner] < 2 {
			fillers[owner]++
			fillerReqs = append(fillerReqs, req)
		}
	}
	if len(fillerReqs) != 4 {
		t.Fatalf("could not find keys for both nodes: %v", fillers)
	}
	errs := make(chan error, len(fillerReqs))
	for _, req := range fillerReqs {
		go func(req serve.EvalRequest) {
			_, err := g.dispatch(context.Background(), jobOf(t, req))
			errs <- err
		}(req)
	}
	saturated := func(fn *fabricNode) bool {
		return fn.exec.Inflight() == 1 && fn.exec.QueueDepth() == 1
	}
	deadline := time.Now().Add(10 * time.Second)
	for !(saturated(nodes[0]) && saturated(nodes[1])) {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never saturated: node0 inflight=%d depth=%d node1 inflight=%d depth=%d",
				nodes[0].exec.Inflight(), nodes[0].exec.QueueDepth(),
				nodes[1].exec.Inflight(), nodes[1].exec.QueueDepth())
		}
		time.Sleep(2 * time.Millisecond)
	}

	body, _ := json.Marshal(evalReq(t, 400))
	resp, err := http.Post(gwSrv.URL+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated fleet answered %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	if g.saturated.Value() == 0 {
		t.Error("fabric_gateway_saturated_total not incremented")
	}

	releaseAll()
	for range fillerReqs {
		if err := <-errs; err != nil {
			t.Errorf("filler job failed: %v", err)
		}
	}
}

// TestNodeGracefulLeaveDrainsInflight: a node announcing Drain leaves
// routing (new jobs route around it) while its in-flight job still
// completes and reaches the waiting client.
func TestNodeGracefulLeaveDrainsInflight(t *testing.T) {
	det := fabricDetector()
	var victim atomic.Value
	victim.Store("")
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	jobFor := func(addr string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) {
			if victim.Load().(string) == addr {
				select {
				case started <- struct{}{}:
				default:
				}
				<-release
				return stubDetail(0.9), nil
			}
			return stubDetail(0.1), nil
		}
	}
	nodes := startNodes(t, det, 2, serve.Config{Workers: 2, QueueSize: 4}, jobFor)
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), nil)
	waitRoutable(t, g, nodeAddrs(nodes)...)

	req := evalReq(t, 61)
	leaver := lookup(g.ring, req.Digest())
	victim.Store(leaver)
	leaverNode := nodeByAddr(t, nodes, leaver)

	type result struct {
		payload []byte
		err     error
	}
	resCh := make(chan result, 1)
	go func() {
		payload, err := g.dispatch(context.Background(), jobOf(t, req))
		resCh <- result{payload, err}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("leaver never started the job")
	}

	closeErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closeErr <- leaverNode.node.Close(ctx)
	}()

	// The draining Health frame must take the leaver out of routing...
	waitMembers(t, g, 1)
	// ...so the same key now routes to the survivor and completes there.
	payload, err := g.dispatch(context.Background(), jobOf(t, req))
	if err != nil {
		t.Fatalf("dispatch during drain: %v", err)
	}
	if resp := decodeEvalResponse(t, payload); resp.PWC != 0.1 {
		t.Errorf("post-drain job PWC = %v, want survivor's 0.1", resp.PWC)
	}

	// The in-flight job on the leaver still completes and is delivered.
	releaseAll()
	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight job lost during graceful leave: %v", res.err)
	}
	if resp := decodeEvalResponse(t, res.payload); resp.PWC != 0.9 {
		t.Errorf("drained job PWC = %v, want leaver's 0.9", resp.PWC)
	}
	if err := <-closeErr; err != nil {
		t.Fatalf("node.Close during drain: %v", err)
	}
}

// TestAsyncSubmitPoll drives the job-handle path: submit returns 202 and
// an ID, polling converges on done with the same result bytes the sync
// path returns, and unknown IDs are 404.
func TestAsyncSubmitPoll(t *testing.T) {
	det := fabricDetector()
	jobFor := func(string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) { return stubDetail(0.25), nil }
	}
	nodes := startNodes(t, det, 2, serve.Config{Workers: 2, QueueSize: 4}, jobFor)
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), nil)
	waitRoutable(t, g, nodeAddrs(nodes)...)
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()

	body, _ := json.Marshal(evalReq(t, 71))
	resp, err := http.Post(gwSrv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: status %d id %q", resp.StatusCode, sub.ID)
	}

	var status jobStatusResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(gwSrv.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if status.Status == "done" || status.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", status.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if status.Status != "done" || status.Error != "" {
		t.Fatalf("job finished %q (err %q)", status.Status, status.Error)
	}
	if got := decodeEvalResponse(t, status.Result); got.PWC != 0.25 {
		t.Errorf("async result PWC = %v, want 0.25", got.PWC)
	}

	r, err := http.Get(gwSrv.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", r.StatusCode)
	}
}

// TestBackendStalenessWithInjectedClock drives the heartbeat-timeout logic
// entirely through the fake clock: a silent backend goes unroutable when
// virtual time jumps past the timeout, and the next real heartbeat
// restores it.
func TestBackendStalenessWithInjectedClock(t *testing.T) {
	det := fabricDetector()
	jobFor := func(string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) { return stubDetail(0.25), nil }
	}
	nodes := startNodes(t, det, 1, serve.Config{Workers: 1, QueueSize: 1}, jobFor)
	clock := newFakeClock()
	g := newTestGateway(t, clock, nodeAddrs(nodes), func(cfg *GatewayConfig) {
		cfg.HeartbeatTimeout = time.Minute
	})
	waitRoutable(t, g, nodes[0].addr)

	// A real heartbeat can land between the advance and the check and
	// restamp lastSeen; re-advancing on each try makes the race harmless.
	b := g.backends[nodes[0].addr]
	stale := false
	for i := 0; i < 100 && !stale; i++ {
		clock.advance(2 * time.Minute)
		ok, _ := b.available(clock.Now())
		stale = !ok
	}
	if !stale {
		t.Fatal("backend still routable after virtual heartbeat timeout")
	}
	// The node heartbeats every 50ms of real time; the next one stamps
	// lastSeen with the advanced virtual now and revives the backend.
	waitRoutable(t, g, nodes[0].addr)
}

// TestGatewayValidatesAtEdge: malformed requests are rejected with 400
// before any node round-trip is spent on them.
func TestGatewayValidatesAtEdge(t *testing.T) {
	det := fabricDetector()
	var calls atomic.Int64
	jobFor := func(string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) {
			calls.Add(1)
			return stubDetail(0.25), nil
		}
	}
	nodes := startNodes(t, det, 1, serve.Config{Workers: 1, QueueSize: 2}, jobFor)
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), nil)
	waitRoutable(t, g, nodes[0].addr)
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()

	for name, body := range map[string]string{
		"not json":      "{",
		"bad scene":     `{"scene":"moon","challenge":"fix","target":2}`,
		"bad challenge": `{"scene":"road","challenge":"warp9","target":2}`,
		"bad patch":     `{"scene":"road","challenge":"fix","patch":"!!!"}`,
	} {
		for _, path := range []string{"/v1/evaluate", "/v1/jobs"} {
			resp, err := http.Post(gwSrv.URL+path, "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", path, name, resp.StatusCode)
			}
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d node executions for edge-rejected requests, want 0", n)
	}
}

// TestGatewayRequestBodyLimits: an evaluate or job body over
// serve.MaxEvalBody is a 413 too_large at the edge, whether its length is
// declared up front or found only while reading; a body exactly at the
// limit is read and judged on its content.
func TestGatewayRequestBodyLimits(t *testing.T) {
	h := newTestGateway(t, newFakeClock(), nil, nil).Handler()
	padded := func(n int) []byte { // a JSON body of exactly n bytes
		return []byte(`{"patch":"` + strings.Repeat("A", n-len(`{"patch":""}`)) + `"}`)
	}
	over, atLimit := padded(serve.MaxEvalBody+1), padded(serve.MaxEvalBody)
	for _, path := range []string{"/v1/evaluate", "/v1/jobs"} {
		for _, tc := range []struct {
			name   string
			body   []byte
			length int64
			want   int
		}{
			{"declared", over, int64(len(over)), http.StatusRequestEntityTooLarge},
			{"streamed", over, -1, http.StatusRequestEntityTooLarge},
			{"at limit", atLimit, -1, http.StatusBadRequest},
		} {
			r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(tc.body))
			r.ContentLength = tc.length
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			var e serve.ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != tc.want {
				t.Errorf("%s %s: status %d (%.200s), want %d", path, tc.name, w.Code, w.Body.Bytes(), tc.want)
			}
			if tc.want == http.StatusRequestEntityTooLarge && e.Code != serve.CodeTooLarge {
				t.Errorf("%s %s: code %q, want %q", path, tc.name, e.Code, serve.CodeTooLarge)
			}
		}
	}
}

// TestGatewayMetricsExposition spot-checks the gateway registry surface:
// the derived ring/backend gauges and the per-endpoint counters.
func TestGatewayMetricsExposition(t *testing.T) {
	det := fabricDetector()
	jobFor := func(string) eval.JobFunc {
		return func(eval.Job) (eval.Detail, error) { return stubDetail(0.25), nil }
	}
	nodes := startNodes(t, det, 2, serve.Config{Workers: 1, QueueSize: 2}, jobFor)
	g := newTestGateway(t, newFakeClock(), nodeAddrs(nodes), nil)
	waitRoutable(t, g, nodeAddrs(nodes)...)
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()

	body, _ := json.Marshal(evalReq(t, 81))
	resp, err := http.Post(gwSrv.URL+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	m, err := http.Get(gwSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(m.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"fabric_gateway_ring_nodes 2",
		"fabric_gateway_backends_available 2",
		`fabric_gateway_requests_total{code="200",endpoint="evaluate"} 1`,
		"fabric_gateway_request_seconds_count",
		"fabric_gateway_node_jobs_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}
