// Command perfledger is the repository's performance ledger: it drives real
// workloads through the public entry points — attack.Train, eval.RunJob
// behind a serve.Executor, a fabric.Node and a fabric.Gateway over loopback
// RTFB, and the serve.Server /v1/detect handler — checks their outputs, and
// reports end-to-end metrics plus a per-layer breakdown.
//
// It is its own Go module (go.mod here points at the repository root), so
// it builds against the code of whatever checkout it sits in. Run it from
// the repository root:
//
//	bash perfledger/run.sh                          # whole ledger, ~2.5 min
//	bash perfledger/run.sh -workload eval-hot -seed 7 -seconds 20 -trace 0
//	bash perfledger/run.sh -smoke                   # every workload, ~1 s windows
//	cd perfledger && go test ./...                  # catalog sync + smoke test
//
// run.sh builds into .bench_build/ (the Go build cache included) and passes
// its arguments through. Flags:
//
//	-workload NAME  run one workload in this process; empty runs all four,
//	                each in its own process, and writes out/ledger/results.json
//	-seed N         generates every input (patches, keys, schedules, frames)
//	-seconds S      length of the untraced window (default 20)
//	-trace 0|1|-1   0 prints the end-to-end metrics, 1 the per-layer metrics,
//	                -1 both; 1 and -1 add the traced window and the replay
//	-smoke          1 s windows and the smallest repetition counts, same
//	                code path (cd perfledger && go test runs it)
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (name -> value, unit). The lines before it print every
// metric by name with its unit. The exit code is non-zero when any operation
// failed or any output check disagreed.
//
// # Fixed setup
//
// The detector is yolo.New(rand.NewSource(11), yolo.DefaultConfig()): no
// trained weights are committed. An untrained detector costs the same
// FLOPs per forward and backward as a trained one, but its decode and NMS
// see different candidate counts, so yolo.decode_ms and the PWC/CWC values
// in responses are not those of a trained model. The scene is
// eval.NewEnv(det, ...).Road(). The fleet is one gateway with the
// cmd/gatewayd defaults (AttemptTimeout 30 s) and two nodes with
// serve.Config{Workers:1, QueueSize:2, CacheSize:128, BatchSize:2,
// BatchDeadline:2ms}, all in process on loopback TCP. The load generator
// runs in the same process, one HTTP connection per sender: open-loop
// schedules go out from two goroutines (the reference host has two cores),
// eval-cold's closed loop runs four clients. Open-loop latency counts from
// the due time, closed-loop latency from the send. GOMAXPROCS is logged.
//
// # Workloads
//
//   - attack: one caller running attack.Train back to back with
//     attack.DefaultConfig (GAN, W=3 consecutive frames, PaperBest EOT),
//     Iters=10 and the same seed on every call, after one untimed call. Ten
//     steps end in one verify snapshot, the snapshot density of the
//     protocol's 40-step run, and give a 20 s window some 15 calls to take
//     a percentile over. This is the paper's training step; serve and
//     fabric do no work. Every call must return byte-identical
//     attack.EncodePatch output; its sha256 is logged.
//   - eval-cold: four closed-loop clients on the gateway, two per node, so
//     each node's single worker has its next job queued; every request
//     carries a fresh random patch and seed, runs:1, cycling over the 8
//     challenges x {digital, physical}. No cache hits and no dedupe: the
//     detector forward at N=1, scene rendering and capture noise do the
//     work, and ring balance and node queueing decide the tail. With two
//     clients a worker idled whenever both requests hashed to the other
//     node, and ten seeds spread by 17-21% in median latency on that luck
//     alone; four clients spread by 2-3%. When more requests hash to one
//     node than its queue holds, it refuses the extra and the gateway
//     spills it to the other node: serve.rejected_total counts those, the
//     client never sees them. The first 8 responses are recomputed with
//     eval.RunJob and compared bit for bit.
//   - eval-hot: open-loop Poisson arrivals at 300 req/s over 16 keys (4
//     patches x 4 seeds, normal, digital) evaluated once before the window,
//     so every request is a front-door cache hit: HTTP, gateway dispatch,
//     RTFB framing and the cache do all the work. It is the bypass workload
//     for detector changes, which should not move it.
//   - detect-2cam: a synchronised two-camera rig, two frames every 50 ms,
//     to node 0's /v1/detect. Frames are 64x64 road frames rendered once by
//     scene.RenderVideo along the normal and angle+15 approaches, with seeded
//     sensor noise. Only here can the detect coalescer and DecodeBatch pay
//     off, because pairs arrive together; decoding 12 288 JSON floats per
//     request is a real serving cost. The first 8 responses are compared
//     with an in-process Model.Forward plus DecodeSample. Its latency is the
//     pair's: a tick completes when both cameras' detections are back.
//
// # End-to-end metrics
//
// Each comes from the untraced window and is reported by every workload.
// Every bound (the share of the parent's median a metric may worsen by) is
// 0.25, the largest BENCHMARK.json allows. On the reference host, a 2-vCPU
// VM, a fixed 40 ms CPU loop takes 38 to 87 ms from one second to the next,
// and the host's speed drifts over tens of minutes. Two sets of ten seeds,
// run back to back on one commit, spread by at most 16% (IQR over median)
// per metric and workload, setup_s aside; between the sets the host slowed,
// and the medians of latency_p10_ms moved by 5% (attack) to 25%
// (detect-2cam), eval-cold's throughput by 18% and setup_s by 18-35%. A
// change smaller than that is unresolved on one pair of sets.
//
//   - setup_s (s, lower): median of 15 builds of the workload's system,
//     each on a freshly collected heap: detector and scene; for the fleet,
//     until the gateway's /healthz is 200 with both nodes available; for
//     detect, until node 0 answers /healthz.
//   - throughput_per_s (1/s, higher): attack, generator iterations per
//     second of the tenth-percentile Train call (the reciprocal of its
//     latency_p10_ms: one caller); the others, successful requests per
//     second of window. On the open-loop workloads it equals the offered
//     rate until the system saturates.
//   - latency_p10_ms (ms, lower): the tenth percentile of the window's
//     latencies. attack, milliseconds per generator iteration (Train call
//     over its steps); detect-2cam, the pair completion time; the others,
//     the client-side request latency. Not the median: the reference host
//     runs at half speed for seconds at a time, the share of slow seconds in
//     a window sets its median, and the lower tail is what stays put: over
//     ten seeds the median spread by up to 33% on detect-2cam, the tenth
//     percentile by 7-10%. The median is the per-layer client.latency_p50_ms.
//   - max_rss_mb (MiB, lower): peak RSS of the workload's process when the
//     untraced window ends (set-up included, the output checks not).
//
// A failed or refused operation, a Train error or an output mismatch is
// counted in "failed" and fails the run. The median and the tails are
// per-layer metrics (client.latency_p50_ms, client.latency_p90_ms,
// client.latency_p99_ms): a tail percentile is reported only when at least
// 10 samples lie beyond it, and reads 0 otherwise.
//
// # Per-layer metrics
//
// A traced run (-trace 1) reports the per-layer metrics. A layer a workload
// does not use reads 0 there. The groups, and the end-to-end metric each
// should move:
//
//   - Replay (every traced run; moves throughput_per_s and latency_p10_ms on
//     attack, predicted flat on eval-hot): the public calls of one
//     attack.Train iteration, in Train's order at Train's shapes, each timed
//     from outside: gan.d_step_ms, gan.g_fwd_ms, gan.g_bwd_ms,
//     imaging.decal_fwd_ms/decal_bwd_ms (QuadToQuad, NewWarp, Warp,
//     CompositeInk per placement), scene.render_fwd_ms/render_bwd_ms
//     (TexWarp, Warp, ApplySky, BoxBlurVertical per frame), eot.fwd_ms and
//     eot.bwd_ms (summed over the window's frames), yolo.forward_ms,
//     yolo.attack_loss_ms and yolo.backward_ms on [3,3,64,64] in eval mode.
//   - yolo.<block>.fwd_ms, .bwd_ms and .wgrad_ms at N=3 for b1..b6, neck,
//     h1pre, h1conv, lat, h2pre, h2conv, each built with nn.NewConvBNLeaky or
//     nn.NewConv2D and loaded from the detector's state (move attack). wgrad
//     is tensor.Conv2DBackward with dW minus the same call without it: what
//     skipping the frozen detector's weight gradients would save.
//     .serve_fwd_ms is the fused block at N=1, and yolo.serve_forward_ms,
//     yolo.serve_forward_n2_ms and yolo.decode_ms the fused detector at N=1
//     and N=2 and one decode (move throughput_per_s on eval-cold and
//     latency_p10_ms on detect-2cam). yolo.block_coverage is the block
//     forwards' sum over a whole-detector forward on the same batch, both
//     timed in each repetition (median ratio).
//   - attack.* (attack): from the wall-clock ticks of the records Train
//     emits in the traced calls: attack.iter_ms_p50 (iterations without a
//     verify snapshot), attack.verify_ms, attack.pools_ms (call start to the
//     train span) and attack.coverage, the replayed iteration's total (the
//     discriminator step weighted by the share of traced iterations that ran
//     it) over attack.iter_ms_p50.
//   - runtime.alloc_mb_per_op and runtime.gc_per_op (every workload; an op
//     is a generator iteration or a request): runtime.MemStats over the
//     untraced window. They move throughput_per_s and max_rss_mb.
//   - eval.* (eval-cold): serve.Config.Job times eval.RunJob; eval.render_ms
//     is a job's time outside the detector forward and decode. They move
//     throughput_per_s on eval-cold.
//   - serve.* (fleet and detect): Executor.StageStats and a scrape of its
//     registry over the untraced window: stage means, cache hit ratio, batch
//     occupancy, forwards per request, deduped and rejected requests, and
//     serve.http_overhead_ms (detect: client latency minus executor total).
//     Queueing moves latency_p10_ms and the client tails on eval-cold,
//     batching on detect-2cam, the cache on eval-hot.
//   - fabric.* (fleet): the gateway's dispatch histogram, fabric.overhead_ms
//     (client latency minus executor total), RTFB bytes per request from a
//     counting GatewayConfig.Dial, the busiest node's share of jobs, retries
//     and saturated rejections. They move latency_p10_ms on eval-hot;
//     node_share_max also throughput_per_s on eval-cold.
//   - trace.* (fleet and detect traced windows, a quarter of -seconds):
//     each process traces into an in-memory obs.NewJournal with
//     obs.WallClock through GatewayConfig.Trace, NodeConfig.Trace and
//     serve.Config.Trace; the journals are merged with obs.MergeTrace.
//     trace.<span>.self_ms is that span name's self time per request, and
//     trace.unattributed_ms the critical-path time (obs.CriticalPath) that
//     no child span covers. evaluate_batched and detect_batched spans are
//     waits that overlap the work spans beside them, so their self time is
//     the wait. obs.trace_overhead_ratio is traced over untraced median
//     latency minus 1 (attack: Train call time): a validity check, not a
//     target.
//   - loadgen.late_ms_p99 (open loop): how late the generator sent; above
//     10 ms the schedule did not hold and a warning is logged.
//
// # Traces
//
// A traced run writes out/ledger/<workload>.<proc>.trace.jsonl, one per
// process (gw, n0, n1, or train). Merge them with cmd/tracetool, e.g.
//
//	go run ./cmd/tracetool gw=out/ledger/eval-cold.gw.trace.jsonl \
//	    n0=out/ledger/eval-cold.n0.trace.jsonl n1=out/ledger/eval-cold.n1.trace.jsonl
//
// # Not here yet
//
// Gating the ledger in scripts/check.sh and the Makefile, a GOMAXPROCS=1
// variant, and moving cmd/benchperf's serve suite onto a tail helper that
// refuses thin percentiles (its ServeDetectBatch4 "p99" over 12 requests is
// the maximum) with "stub": true on ServeEvalBatch8 and AttackIteration,
// are follow-ups: those files lie outside this benchmark's directory.
package main
