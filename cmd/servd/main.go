// Command servd runs the concurrent patch-evaluation service: a worker pool
// of detector replicas behind POST /v1/detect, POST /v1/evaluate,
// GET /healthz and GET /metrics. With -fabric it additionally joins the
// distributed eval fabric, serving the same executor over the framed node
// protocol so a gatewayd can shard jobs onto it. SIGTERM/SIGINT drain
// gracefully: the listeners stop accepting, in-flight evaluations finish,
// then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"roadtrojan"

	"roadtrojan/internal/fabric"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/serve"
	"roadtrojan/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		fabricAddr = flag.String("fabric", "", "fabric node listen address (empty = fabric disabled)")
		nodeID     = flag.String("node-id", "", "fabric node identity (default: the fabric listen address)")
		weights    = flag.String("weights", "testdata/detector.rtwt", "detector weights")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "job queue capacity (0 = 2×workers)")
		cache      = flag.Int("cache", 128, "evaluation result cache entries (negative disables)")
		cacheBytes = flag.Int64("cache-bytes", 0, "evaluation result cache byte budget (0 = 64 MiB, negative = entries-only accounting)")
		batchSize  = flag.Int("batch-size", 0, "micro-batch size: coalesce up to this many concurrent requests per dispatch (0 or 1 = flush each request on arrival)")
		batchWait  = flag.Duration("batch-deadline", 0, "longest a parked request waits for its micro-batch to fill (0 = 2ms)")
		timeout    = flag.Duration("timeout", 2*time.Minute, "per-job deadline")
		drain      = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		pprofOn    = flag.Bool("pprof", false, "expose /debug/pprof (off by default: the profiler leaks operational detail, enable only on trusted networks)")
		journal    = flag.String("journal", "", "write a JSONL trace journal here (merge across processes with cmd/tracetool)")
	)
	flag.Parse()

	det, err := roadtrojan.LoadDetector(*weights)
	if err != nil {
		return fmt.Errorf("load detector: %w (train one first: go run ./cmd/trainyolo -out %s)", err, *weights)
	}

	// Tracing: spans journal under the node's identity so cmd/tracetool can
	// merge this process's journal with the gateway's into one causal tree.
	// The logical clock makes journal bytes a function of event order alone.
	var tr *obs.Trace
	if *journal != "" {
		j, err := obs.OpenJournal(*journal)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		defer j.Close()
		tr = obs.New(j, obs.NewLogicalClock())
		proc := *nodeID
		if proc == "" {
			proc = "servd"
		}
		tr.SetProcess(proc)
		fmt.Printf("servd: tracing to %s as process %q\n", *journal, proc)
	}

	cfg := serve.Config{
		Workers: *workers, QueueSize: *queue, CacheSize: *cache, CacheBytes: *cacheBytes,
		BatchSize: *batchSize, BatchDeadline: *batchWait, JobTimeout: *timeout,
		EnablePprof: *pprofOn, Trace: tr,
	}
	// One executor (worker pool + cache) behind both transports: the HTTP
	// server and, when -fabric is set, the framed node protocol.
	exec := serve.NewExecutor(det.Model(), cfg, nil)
	s := serve.NewWith(exec, cfg)

	// build_info follows the Prometheus convention: a constant-1 gauge whose
	// labels carry the build identity, so dashboards can join on it.
	s.Metrics().Gauge("roadtrojan_build_info", "build identity of this servd process",
		telemetry.Labels{"go_version": runtime.Version(), "module": "roadtrojan"}).Set(1)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 2)
	listeners := 1
	go func() { errc <- s.ListenAndServe(*addr) }()
	fmt.Printf("servd: listening on %s (weights %s)\n", *addr, *weights)
	if *pprofOn {
		fmt.Printf("servd: profiler exposed at /debug/pprof\n")
	}
	if *batchSize > 1 {
		wait := *batchWait
		if wait <= 0 {
			wait = 2 * time.Millisecond
		}
		fmt.Printf("servd: micro-batching up to %d requests per dispatch (deadline %s)\n", *batchSize, wait)
	}

	var node *fabric.Node
	if *fabricAddr != "" {
		node = fabric.NewNode(exec, fabric.NodeConfig{ID: *nodeID, Trace: tr})
		listeners++
		go func() { errc <- node.Listen(*fabricAddr) }()
		fmt.Printf("servd: fabric node listening on %s\n", *fabricAddr)
	}

	select {
	case err := <-errc:
		listeners--
		if err != nil {
			return err
		}
	case <-ctx.Done():
	}
	fmt.Println("servd: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if node != nil {
		if err := node.Close(shutdownCtx); err != nil {
			return fmt.Errorf("fabric shutdown: %w", err)
		}
	}
	if err := s.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := exec.Close(shutdownCtx); err != nil {
		return fmt.Errorf("executor shutdown: %w", err)
	}
	for ; listeners > 0; listeners-- {
		if err := <-errc; err != nil {
			return err
		}
	}
	fmt.Println("servd: drained, bye")
	return nil
}
