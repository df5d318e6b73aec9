// Command gatewayd runs the stateless fabric gateway: it shards
// /v1/evaluate and async /v1/jobs requests across a fleet of
// `servd -fabric` nodes by consistent hashing on the patch digest, retries
// idempotent jobs around node failures, and applies backpressure (429 +
// Retry-After) when every shard's queue is full. SIGTERM/SIGINT drain
// gracefully.
//
// Quickstart against two local nodes:
//
//	servd -addr :8081 -fabric :9091 &
//	servd -addr :8082 -fabric :9092 &
//	gatewayd -addr :8080 -nodes 127.0.0.1:9091,127.0.0.1:9092
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"roadtrojan/internal/fabric"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gatewayd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		nodes    = flag.String("nodes", "", "comma-separated fabric node addresses (host:port); required")
		attempts = flag.Int("attempts", 3, "dispatch passes per job before giving up")
		timeout  = flag.Duration("timeout", 2*time.Minute, "per-job deadline including retries")
		jobTable = flag.Int("jobs", 1024, "async job table capacity")
		hbTO     = flag.Duration("heartbeat-timeout", 5*time.Second, "mark a silent node unavailable after this")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")

		attemptTO = flag.Duration("attempt-timeout", 30*time.Second, "per-node round-trip bound; on expiry the job fails over to the next ring owner (0 disables)")
		helloTO   = flag.Duration("hello-timeout", 3*time.Second, "Hello handshake bound after a dial; cuts off slow-loris peers")
		brkThresh = flag.Int("breaker-threshold", 3, "consecutive transport failures that open a backend's circuit breaker")
		brkCool   = flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker wait before a half-open probe")
		walPath   = flag.String("wal", "", "async-job journal path; replayed on restart (empty = no durability)")
		journal   = flag.String("journal", "", "write a JSONL trace journal here (merge across processes with cmd/tracetool)")
		traceProc = flag.String("trace-proc", "gw", "process name stamped on this gateway's trace spans")
	)
	flag.Parse()

	var fleet []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			fleet = append(fleet, n)
		}
	}
	if len(fleet) == 0 {
		return errors.New("no nodes given; pass -nodes host:port[,host:port...] " +
			"(start nodes with: go run ./cmd/servd -fabric :9091)")
	}

	var wal *fabric.WAL
	if *walPath != "" {
		var err error
		if wal, err = fabric.OpenWAL(*walPath); err != nil {
			return err
		}
		if n := wal.Skipped(); n > 0 {
			fmt.Printf("gatewayd: wal %s: skipped %d torn or undecodable line(s)\n", *walPath, n)
		}
	}

	// Tracing: the gateway is usually the trace root, so its logical clock
	// becomes the global frame cmd/tracetool aligns node journals onto.
	var tr *obs.Trace
	if *journal != "" {
		j, err := obs.OpenJournal(*journal)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		defer j.Close()
		tr = obs.New(j, obs.NewLogicalClock())
		tr.SetProcess(*traceProc)
		fmt.Printf("gatewayd: tracing to %s as process %q\n", *journal, *traceProc)
	}

	g := fabric.NewGateway(fabric.GatewayConfig{
		Nodes:            fleet,
		MaxAttempts:      *attempts,
		JobTimeout:       *timeout,
		JobTableSize:     *jobTable,
		HeartbeatTimeout: *hbTO,
		AttemptTimeout:   *attemptTO,
		HelloTimeout:     *helloTO,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCool,
		WAL:              wal,
		Trace:            tr,
	})
	g.Metrics().Gauge("roadtrojan_build_info", "build identity of this gatewayd process",
		telemetry.Labels{"go_version": runtime.Version(), "module": "roadtrojan"}).Set(1)

	srv := &http.Server{Addr: *addr, Handler: g.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		err := srv.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		errc <- err
	}()
	fmt.Printf("gatewayd: listening on %s, fronting %d node(s): %s\n", *addr, len(fleet), strings.Join(fleet, ", "))

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("gatewayd: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	httpErr := srv.Shutdown(shutdownCtx)
	if err := g.Close(shutdownCtx); err != nil {
		return err
	}
	if httpErr != nil {
		return fmt.Errorf("shutdown: %w", httpErr)
	}
	if err := <-errc; err != nil {
		return err
	}
	fmt.Println("gatewayd: drained, bye")
	return nil
}
