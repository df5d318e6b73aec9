package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"roadtrojan/internal/chaos"
	"roadtrojan/internal/eval"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/serve"
)

// tracedFabric is a gateway plus N fabric nodes, each process journaling
// spans to its own in-memory JSONL journal under a stable logical name
// ("gw", "n1", ...). Nodes are addressed on the ring by those logical names
// — the gateway's Dial maps them to the real loopback listeners — so
// routing, and therefore the merged trace, is a pure function of the
// request, not of which ephemeral ports the OS handed out.
type tracedFabric struct {
	gw       *Gateway
	gwSrv    *httptest.Server
	journals map[string]*bytes.Buffer
	sinks    map[string]*obs.Journal
}

// startTracedFabric brings the traced fabric up. job, when non-nil, replaces
// the nodes' real evaluation, for tests that only check span structure.
func startTracedFabric(t *testing.T, nodeCount int, job eval.JobFunc, mutate func(*GatewayConfig)) *tracedFabric {
	t.Helper()
	det := fabricDetector()
	tf := &tracedFabric{
		journals: map[string]*bytes.Buffer{},
		sinks:    map[string]*obs.Journal{},
	}
	trace := func(proc string) *obs.Trace {
		buf := &bytes.Buffer{}
		j := obs.NewJournal(buf)
		tf.journals[proc] = buf
		tf.sinks[proc] = j
		tr := obs.New(j, obs.NewLogicalClock())
		tr.SetProcess(proc)
		return tr
	}

	addrOf := map[string]string{}
	logical := make([]string, 0, nodeCount)
	for i := 0; i < nodeCount; i++ {
		proc := fmt.Sprintf("n%d", i+1)
		logical = append(logical, proc)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrOf[proc] = l.Addr().String()
		tr := trace(proc)
		exec := serve.NewExecutor(det, serve.Config{Workers: 1, QueueSize: 4, Job: job, Trace: tr}, nil)
		node := NewNode(exec, NodeConfig{ID: proc, Heartbeat: 50 * time.Millisecond, Trace: tr})
		go func() { _ = node.Serve(l) }()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = node.Close(ctx)
			_ = exec.Close(ctx)
		})
	}

	mapDial := func(addr string) (net.Conn, error) {
		real, ok := addrOf[addr]
		if !ok {
			return nil, fmt.Errorf("unknown logical node %q", addr)
		}
		return net.DialTimeout("tcp", real, 5*time.Second)
	}
	cfg := GatewayConfig{
		Nodes:            logical,
		Clock:            newFakeClock(),
		RetryBackoff:     time.Millisecond,
		RedialBackoff:    time.Millisecond,
		HeartbeatTimeout: time.Hour,
		JobTimeout:       20 * time.Second,
		Dial:             mapDial,
		Trace:            trace("gw"),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	tf.gw = NewGateway(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = tf.gw.Close(ctx)
	})
	waitRoutable(t, tf.gw, logical...)
	tf.gwSrv = httptest.NewServer(tf.gw.Handler())
	t.Cleanup(tf.gwSrv.Close)
	return tf
}

// merged flushes every journal and merges them once each process's spans
// have all closed (span ends race the HTTP response by design — the client
// can see the reply before the server goroutine journals span_end).
func (tf *tracedFabric) merged(t *testing.T) *obs.MergedTrace {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		journals := make([]obs.ProcessJournal, 0, len(tf.journals))
		for proc, buf := range tf.journals {
			if err := tf.sinks[proc].Flush(); err != nil {
				t.Fatal(err)
			}
			recs, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s journal: %v", proc, err)
			}
			journals = append(journals, obs.ProcessJournal{Proc: proc, Records: recs})
		}
		m, err := obs.MergeTrace(journals)
		if err != nil {
			t.Fatal(err)
		}
		if unfinished(m) == 0 {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("spans never finished; merged state:\n%s", renderString(t, m))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func unfinished(m *obs.MergedTrace) int {
	n := 0
	var walk func(s *obs.MergedSpan)
	walk = func(s *obs.MergedSpan) {
		if s.Dur < 0 {
			n++
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, r := range m.Roots {
		walk(r)
	}
	return n
}

func renderString(t *testing.T, m *obs.MergedTrace) string {
	t.Helper()
	var out bytes.Buffer
	if err := obs.RenderMerged(&out, m); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// findSpans collects every span in the merged tree matching pred, in render
// order.
func findSpans(m *obs.MergedTrace, pred func(*obs.MergedSpan) bool) []*obs.MergedSpan {
	var out []*obs.MergedSpan
	var walk func(s *obs.MergedSpan)
	walk = func(s *obs.MergedSpan) {
		if pred(s) {
			out = append(out, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, r := range m.Roots {
		walk(r)
	}
	return out
}

func postEvaluate(t *testing.T, url string, req serve.EvalRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: status %d body %s", resp.StatusCode, payload)
	}
	return payload
}

// TestTraceGoldenCrossProcess is the tentpole acceptance test: one job
// through the gateway against a 3-node fabric yields journals on all four
// processes that merge into a single causal tree rooted at the gateway
// request span, with per-replica forward/decode leaf spans — and because
// every process runs an injected logical clock, the merged rendering is
// byte-identical across two full fresh runs of the whole fabric.
func TestTraceGoldenCrossProcess(t *testing.T) {
	run := func() (string, *obs.MergedTrace) {
		tf := startTracedFabric(t, 3, nil, nil)
		postEvaluate(t, tf.gwSrv.URL, evalReq(t, 77))
		m := tf.merged(t)
		return renderString(t, m), m
	}

	outA, m := run()

	// One causal tree, rooted at the gateway's request span.
	if len(m.Roots) != 1 {
		t.Fatalf("got %d roots, want 1:\n%s", len(m.Roots), outA)
	}
	root := m.Roots[0]
	if root.Proc != "gw" || root.Name != "gateway_request" {
		t.Fatalf("root = %s/%s, want gw/gateway_request:\n%s", root.Proc, root.Name, outA)
	}
	if m.Orphans != 0 {
		t.Fatalf("%d orphan spans:\n%s", m.Orphans, outA)
	}
	if m.Offsets["gw"] != 0 {
		t.Fatalf("gateway offset = %d, want 0 (gateway is the global frame)", m.Offsets["gw"])
	}

	// Exactly one winning node span, parented under a gateway attempt span.
	jobs := findSpans(m, func(s *obs.MergedSpan) bool { return s.Name == "fabric_job" })
	if len(jobs) != 1 {
		t.Fatalf("got %d fabric_job spans, want 1:\n%s", len(jobs), outA)
	}
	if jobs[0].Proc == "gw" {
		t.Fatalf("fabric_job span on the gateway process:\n%s", outA)
	}
	if jobs[0].PProc != "gw" || !strings.Contains(jobs[0].Parent, "attempt") {
		t.Fatalf("fabric_job parent = %s/%s, want a gw attempt span:\n%s", jobs[0].PProc, jobs[0].Parent, outA)
	}

	// Per-replica forward/decode leaves live under the node's job subtree.
	for _, stage := range []string{"forward", "decode"} {
		leaves := findSpans(m, func(s *obs.MergedSpan) bool {
			return s.Name == stage && len(s.Children) == 0 && s.Proc == jobs[0].Proc
		})
		if len(leaves) == 0 {
			t.Fatalf("no %s leaf spans on %s:\n%s", stage, jobs[0].Proc, outA)
		}
	}

	// Causality: every cross-process child starts after its parent's send
	// tick in the global frame.
	for _, s := range findSpans(m, func(s *obs.MergedSpan) bool { return s.PProc != "" && s.PProc != s.Proc }) {
		if s.GStart <= s.PTick+m.Offsets[s.PProc] {
			t.Errorf("span %s/%s starts at global %d, not after parent tick %d", s.Proc, s.ID, s.GStart, s.PTick)
		}
	}

	// Determinism: a second fresh fabric produces byte-identical output.
	outB, _ := run()
	if outA != outB {
		t.Fatalf("merged trace not byte-identical across runs:\n--- run A\n%s\n--- run B\n%s", outA, outB)
	}
}

// TestTraceFleetMetricsExemplars: after a traced job, the gateway /metrics
// exposes both its own dispatch-stage histogram and the fleet-aggregated
// per-stage histograms nodes report in their Health frames, with at least
// one exemplar carrying the request's trace id.
func TestTraceFleetMetricsExemplars(t *testing.T) {
	tf := startTracedFabric(t, 3, nil, nil)
	postEvaluate(t, tf.gwSrv.URL, evalReq(t, 78))

	deadline := time.Now().Add(10 * time.Second)
	var body string
	for {
		resp, err := http.Get(tf.gwSrv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body = string(raw)
		if strings.Contains(body, "fabric_fleet_stage_seconds_bucket") &&
			strings.Contains(body, `trace_id="gw:gateway_request#0"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet stage metrics with exemplars never appeared:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{
		`fabric_gateway_stage_seconds_bucket{stage="dispatch"`,
		`fabric_fleet_stage_seconds_bucket{stage="forward"`,
		`fabric_fleet_stage_seconds_bucket{stage="decode"`,
		`fabric_fleet_stage_seconds_bucket{stage="queue_wait"`,
		`fabric_fleet_stage_seconds_bucket{stage="total"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTraceChaosPartitionSiblingAttempts: a partitioned primary forces a
// failover, and the merged trace shows the whole story — one dispatch span
// with the timed-out attempt and the winning attempt as siblings, and
// exactly one node-side fabric_job span (under the winning attempt only).
// The nodes run a stub job: the test is about span structure, and a real
// evaluation under the race detector can outlast the attempt timeout on the
// healthy node too, re-executing the job.
func TestTraceChaosPartitionSiblingAttempts(t *testing.T) {
	in := chaos.New(chaosSeed, chaos.Plan{}, nil)
	stub := func(eval.Job) (eval.Detail, error) { return stubDetail(0.25), nil }
	tf := startTracedFabric(t, 2, stub, func(cfg *GatewayConfig) {
		inner := cfg.Dial
		cfg.Dial = in.Dial(inner)
		// The partitioned primary black-holes, so the attempt timeout is
		// what forces the failover.
		cfg.AttemptTimeout = time.Second
	})

	req := evalReq(t, 301)
	primary := lookup(tf.gw.ring, req.Digest())
	in.Partition(primary)
	postEvaluate(t, tf.gwSrv.URL, req)

	m := tf.merged(t)
	out := renderString(t, m)

	dispatches := findSpans(m, func(s *obs.MergedSpan) bool { return s.Name == "dispatch" })
	if len(dispatches) != 1 {
		t.Fatalf("got %d dispatch spans, want 1:\n%s", len(dispatches), out)
	}
	var attempts []*obs.MergedSpan
	for _, c := range dispatches[0].Children {
		if c.Name == "attempt" {
			attempts = append(attempts, c)
		}
	}
	if len(attempts) < 2 {
		t.Fatalf("got %d sibling attempt spans, want >= 2 (failed + winner):\n%s", len(attempts), out)
	}
	winners := 0
	for _, a := range attempts {
		for _, c := range a.Children {
			if c.Name == "fabric_job" {
				winners++
			}
		}
	}
	if winners != 1 {
		t.Fatalf("%d attempts carry a fabric_job subtree, want exactly 1:\n%s", winners, out)
	}
	if jobs := findSpans(m, func(s *obs.MergedSpan) bool { return s.Name == "fabric_job" }); len(jobs) != 1 {
		t.Fatalf("%d fabric_job spans total, want exactly 1 (exactly-once execution):\n%s", len(jobs), out)
	}
}
