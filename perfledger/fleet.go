package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"roadtrojan/internal/eval"
	"roadtrojan/internal/fabric"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/serve"
	"roadtrojan/internal/telemetry"
	"roadtrojan/internal/yolo"
)

// nodeConfig is the serving shape of every node: one worker, a two-slot
// queue, and a batch of two — the most requests an open-loop sender pair can
// have in flight.
func nodeConfig(job eval.JobFunc, tr *obs.Trace) serve.Config {
	return serve.Config{Workers: 1, QueueSize: 2, CacheSize: 128, BatchSize: 2,
		BatchDeadline: 2 * time.Millisecond, Job: job, Trace: tr}
}

// journal is one process's in-memory trace: spans stay in the buffer until
// the run writes them out, so tracing does no file I/O inside the window.
type journal struct {
	proc string
	buf  bytes.Buffer
	j    *obs.Journal
	tr   *obs.Trace
}

// newJournal starts a wall-clock trace for proc, or returns nil (tracing
// off) when on is false.
func newJournal(proc string, on bool) *journal {
	if !on {
		return nil
	}
	jn := &journal{proc: proc}
	jn.j = obs.NewJournal(&jn.buf)
	jn.tr = obs.New(jn.j, obs.WallClock())
	jn.tr.SetProcess(proc)
	return jn
}

func (jn *journal) trace() *obs.Trace {
	if jn == nil {
		return nil
	}
	return jn.tr
}

// jobTimer wraps eval.RunJob as the nodes' serve.Config.Job and times every
// call from outside.
type jobTimer struct {
	n     atomic.Int64
	nanos atomic.Int64
}

func (t *jobTimer) run(j eval.Job) (eval.Detail, error) {
	start := time.Now()
	d, err := eval.RunJob(j)
	t.nanos.Add(int64(time.Since(start)))
	t.n.Add(1)
	return d, err
}

// countConn counts the RTFB bytes crossing one gateway-to-node connection.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// fleetNode is one in-process servd -fabric: an executor behind a fabric
// node on a loopback listener.
type fleetNode struct {
	exec   *serve.Executor
	node   *fabric.Node
	served chan error
}

// fleet is one gateway in front of two nodes, all in this process and all
// talking over loopback TCP.
type fleet struct {
	nodes    []*fleetNode
	gw       *fabric.Gateway
	srv      *http.Server
	served   chan error
	url      string
	rtfb     atomic.Int64
	jobs     jobTimer
	journals []*journal
}

// startFleet builds the fleet around det and returns once the gateway's
// /healthz answers 200 with both nodes available. With traced set, every
// process records spans into its own in-memory journal.
func startFleet(det *yolo.Model, traced bool) (*fleet, error) {
	f := &fleet{}
	var addrs []string
	for i := 0; i < 2; i++ {
		jn := newJournal(fmt.Sprintf("n%d", i), traced)
		exec := serve.NewExecutor(det, nodeConfig(f.jobs.run, jn.trace()), nil)
		node := fabric.NewNode(exec, fabric.NodeConfig{ID: fmt.Sprintf("n%d", i), Trace: jn.trace()})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = exec.Close(context.Background())
			f.close()
			return nil, err
		}
		fn := &fleetNode{exec: exec, node: node, served: make(chan error, 1)}
		go func() { fn.served <- node.Serve(l) }()
		f.nodes = append(f.nodes, fn)
		addrs = append(addrs, l.Addr().String())
		if jn != nil {
			f.journals = append(f.journals, jn)
		}
	}
	gj := newJournal("gw", traced)
	if gj != nil {
		f.journals = append(f.journals, gj)
	}
	// The cmd/gatewayd defaults, plus a dialer that counts RTFB bytes.
	f.gw = fabric.NewGateway(fabric.GatewayConfig{
		Nodes: addrs, MaxAttempts: 3, JobTimeout: 2 * time.Minute, JobTableSize: 1024,
		HeartbeatTimeout: 5 * time.Second, AttemptTimeout: 30 * time.Second, HelloTimeout: 3 * time.Second,
		BreakerThreshold: 3, BreakerCooldown: 5 * time.Second, Trace: gj.trace(),
		Dial: func(addr string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return countConn{Conn: c, n: &f.rtfb}, nil
		},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.url = "http://" + l.Addr().String()
	f.srv = &http.Server{Handler: f.gw.Handler()}
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(l) }()
	err = waitHealthy(f.url, func(body []byte) bool {
		var h struct {
			Nodes map[string]struct {
				Available bool `json:"available"`
			} `json:"nodes"`
		}
		avail := 0
		if json.Unmarshal(body, &h) == nil {
			for _, n := range h.Nodes {
				if n.Available {
					avail++
				}
			}
		}
		return avail == len(addrs)
	})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// waitHealthy polls url's /healthz every millisecond until it answers 200
// with a body ready accepts.
func waitHealthy(url string, ready func(body []byte) bool) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			body, readErr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if readErr == nil && resp.StatusCode == http.StatusOK && ready(body) {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New(url + " not healthy within 10s")
}

// close stops the gateway, then the nodes, then their executors, and waits
// for every serving goroutine to return.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.srv != nil {
		_ = f.srv.Shutdown(ctx)
		<-f.served
	}
	if f.gw != nil {
		_ = f.gw.Close(ctx)
	}
	for _, n := range f.nodes {
		_ = n.node.Close(ctx)
		<-n.served
		_ = n.exec.Close(ctx)
	}
}

// snapshot is everything the fleet exports at one instant: each executor's
// stage histograms, the executor and gateway registries as scraped text,
// the counted RTFB bytes and the timed jobs.
type snapshot struct {
	stages   []map[string]telemetry.HistSnapshot
	nodeText []map[string]float64
	gwText   map[string]float64
	rtfb     int64
	jobs     int64
	jobNanos int64
}

func (f *fleet) snapshot() (snapshot, error) {
	var execs []*serve.Executor
	for _, n := range f.nodes {
		execs = append(execs, n.exec)
	}
	s, err := execSnapshot(execs)
	if err != nil {
		return s, err
	}
	s.rtfb, s.jobs, s.jobNanos = f.rtfb.Load(), f.jobs.n.Load(), f.jobs.nanos.Load()
	s.gwText, err = scrape(f.gw.Metrics())
	return s, err
}

// execSnapshot reads the executors' stage histograms and registries.
func execSnapshot(execs []*serve.Executor) (snapshot, error) {
	var s snapshot
	for _, e := range execs {
		s.stages = append(s.stages, e.StageStats())
		text, err := scrape(e.Metrics())
		if err != nil {
			return s, err
		}
		s.nodeText = append(s.nodeText, text)
	}
	return s, nil
}

// scrape renders a registry with WriteText and parses every sample line
// into "name{labels}" -> value.
func scrape(reg *telemetry.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		out[fields[0]] = v
	}
	return out, nil
}

// sumDelta adds a scraped series' growth across snapshot pairs.
func sumDelta(before, after []map[string]float64, key string) float64 {
	d := 0.0
	for i := range after {
		d += after[i][key] - before[i][key]
	}
	return d
}

// setServeLayers records the executor layer between two snapshots: stage
// means, cache and batching ratios, and rejections. requests is the number
// of client requests in between; clientMeanMs their mean latency.
func setServeLayers(r *run, before, after snapshot, requests int, clientMeanMs float64, overheadName string) {
	counts := map[string]float64{}
	sums := map[string]float64{}
	for i := range after.stages {
		for _, st := range serve.StageNames() {
			b, a := before.stages[i][st], after.stages[i][st]
			counts[st] += float64(a.Count - b.Count)
			sums[st] += a.Sum - b.Sum
		}
	}
	stageMs := func(st string) float64 { return 1000 * ratio(sums[st], counts[st]) }
	r.set("serve.queue_wait_ms", stageMs(serve.StageQueueWait))
	r.set("serve.batch_wait_ms", stageMs(serve.StageBatchWait))
	r.set("serve.forward_ms", stageMs(serve.StageForward))
	r.set("serve.decode_ms", stageMs(serve.StageDecode))
	r.set("serve.total_ms", stageMs(serve.StageTotal))
	r.set("serve.forwards_per_request", ratio(counts[serve.StageForward], float64(requests)))
	r.set(overheadName, clientMeanMs-stageMs(serve.StageTotal))

	hits := sumDelta(before.nodeText, after.nodeText, "serve_cache_hits_total")
	misses := sumDelta(before.nodeText, after.nodeText, "serve_cache_misses_total")
	r.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("serve.batch_occupancy_mean", ratio(
		sumDelta(before.nodeText, after.nodeText, "serve_batch_occupancy_sum"),
		sumDelta(before.nodeText, after.nodeText, "serve_batch_occupancy_count")))
	r.set("serve.dedup_total", sumDelta(before.nodeText, after.nodeText, "serve_batch_dedup_total"))
	r.set("serve.rejected_total", sumDelta(before.nodeText, after.nodeText, "serve_rejected_total"))
}

// setFleetLayers records the gateway, fabric and eval layers between two
// snapshots of an untraced fleet window.
func setFleetLayers(r *run, f *fleet, before, after snapshot, st loadStats) {
	requests := st.ok
	setServeLayers(r, before, after, requests, mean(st.latMs), "fabric.overhead_ms")
	gw := func(key string) float64 { return after.gwText[key] - before.gwText[key] }
	r.set("fabric.dispatch_ms", 1000*ratio(gw(`fabric_gateway_stage_seconds_sum{stage="dispatch"}`),
		gw(`fabric_gateway_stage_seconds_count{stage="dispatch"}`)))
	r.set("fabric.retries_total", gw("fabric_gateway_retries_total"))
	r.set("fabric.saturated_total", gw("fabric_gateway_saturated_total"))
	r.set("fabric.rtfb_bytes_per_request", ratio(float64(after.rtfb-before.rtfb), float64(requests)))
	share, total := 0.0, 0.0
	for _, n := range f.nodes {
		d := gw(fmt.Sprintf(`fabric_gateway_node_jobs_total{node=%q}`, n.node.Addr()))
		total += d
		if d > share {
			share = d
		}
	}
	r.set("fabric.node_share_max", ratio(share, total))

	jobs := float64(after.jobs - before.jobs)
	jobMs := ratio(float64(after.jobNanos-before.jobNanos)/1e6, jobs)
	r.set("eval.run_job_ms", jobMs)
	r.set("eval.jobs_per_request", ratio(jobs, float64(requests)))
	if jobs > 0 {
		// What a job spends outside the detector: deploy, scene rendering,
		// capture noise and scoring.
		perJob := r.vals["serve.forwards_per_request"] / r.vals["eval.jobs_per_request"]
		r.set("eval.render_ms", jobMs-perJob*(r.vals["serve.forward_ms"]+r.vals["serve.decode_ms"]))
	}
}
