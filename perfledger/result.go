package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two catalogs below
// are the metric lists of BENCHMARK.json, in the same order; ledger_test.go
// keeps them in sync.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, from its untraced window, and none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p10_ms", "ms"},
	{"max_rss_mb", "MiB"},
}

// latencyQuantile is the end-to-end latency's percentile. The reference
// host runs at half speed for seconds at a time, and how many of a window's
// seconds are slow decides its median: over ten seeds the median spread by
// up to 33% (IQR over median) on detect-2cam, the tenth percentile by 7-10%.
// The median and the tails stay per-layer metrics (client.latency_*).
const latencyQuantile = 0.10

// blockNames are the detector's conv blocks in forward order.
var blockNames = []string{"b1", "b2", "b3", "b4", "b5", "b6", "neck", "h1pre", "h1conv", "lat", "h2pre", "h2conv"}

// traceSpans are the span names whose self time the fleet and detect
// traces attribute.
var traceSpans = []string{"gateway_request", "dispatch", "attempt", "fabric_job", "evaluate_batched",
	"eval", "run", "request", "detect_batched", "forward", "decode"}

// perLayer are the single-layer metrics of a traced run. A layer that is not
// on a workload's path reports 0 there (the attack workload has no server,
// the serving workloads run no generator).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"gan.d_step_ms", "ms"}, {"gan.g_fwd_ms", "ms"}, {"gan.g_bwd_ms", "ms"},
		{"imaging.decal_fwd_ms", "ms"}, {"imaging.decal_bwd_ms", "ms"},
		{"scene.render_fwd_ms", "ms"}, {"scene.render_bwd_ms", "ms"},
		{"eot.fwd_ms", "ms"}, {"eot.bwd_ms", "ms"},
		{"yolo.forward_ms", "ms"}, {"yolo.attack_loss_ms", "ms"}, {"yolo.backward_ms", "ms"},
		{"yolo.block_coverage", "ratio"},
	}
	for _, b := range blockNames {
		defs = append(defs,
			metricDef{"yolo." + b + ".fwd_ms", "ms"}, metricDef{"yolo." + b + ".bwd_ms", "ms"},
			metricDef{"yolo." + b + ".wgrad_ms", "ms"}, metricDef{"yolo." + b + ".serve_fwd_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"yolo.serve_forward_ms", "ms"}, metricDef{"yolo.serve_forward_n2_ms", "ms"},
		metricDef{"yolo.decode_ms", "ms"},
		metricDef{"attack.iter_ms_p50", "ms"}, metricDef{"attack.verify_ms", "ms"},
		metricDef{"attack.pools_ms", "ms"}, metricDef{"attack.coverage", "ratio"},
		metricDef{"runtime.alloc_mb_per_op", "MiB"}, metricDef{"runtime.gc_per_op", "count"},
		metricDef{"obs.trace_overhead_ratio", "ratio"},
		metricDef{"eval.run_job_ms", "ms"}, metricDef{"eval.render_ms", "ms"},
		metricDef{"eval.jobs_per_request", "ratio"},
		metricDef{"serve.queue_wait_ms", "ms"}, metricDef{"serve.batch_wait_ms", "ms"},
		metricDef{"serve.forward_ms", "ms"}, metricDef{"serve.decode_ms", "ms"},
		metricDef{"serve.total_ms", "ms"}, metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.batch_occupancy_mean", "count"}, metricDef{"serve.forwards_per_request", "ratio"},
		metricDef{"serve.dedup_total", "count"}, metricDef{"serve.rejected_total", "count"},
		metricDef{"serve.http_overhead_ms", "ms"},
		metricDef{"fabric.dispatch_ms", "ms"}, metricDef{"fabric.overhead_ms", "ms"},
		metricDef{"fabric.rtfb_bytes_per_request", "B"}, metricDef{"fabric.node_share_max", "ratio"},
		metricDef{"fabric.retries_total", "count"}, metricDef{"fabric.saturated_total", "count"},
	)
	for _, s := range traceSpans {
		defs = append(defs, metricDef{"trace." + s + ".self_ms", "ms"})
	}
	return append(defs,
		metricDef{"trace.unattributed_ms", "ms"},
		metricDef{"loadgen.late_ms_p99", "ms"},
		metricDef{"client.latency_p50_ms", "ms"},
		metricDef{"client.latency_p90_ms", "ms"}, metricDef{"client.latency_p99_ms", "ms"},
		metricDef{"client.goodput_per_s", "1/s"}, metricDef{"client.samples", "count"},
	)
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// collect selects defs from the measured values. A missing or non-finite
// end-to-end value is an error: the benchmark never reports a made-up
// number. Missing per-layer values are layers the workload does not use and
// read 0.
func collect(vals map[string]float64, defs []metricDef, required bool, into map[string]metric) error {
	for _, d := range defs {
		v, ok := vals[d.name]
		if required && (!ok || v <= 0) {
			return fmt.Errorf("end-to-end metric %s was not measured (got %v)", d.name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		into[d.name] = metric{Value: v, Unit: d.unit}
	}
	return nil
}

// printReport writes one "name value unit" line per metric, in name order,
// then the result as the final JSON line.
func printReport(w io.Writer, label string, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%s %-36s %14.4f %s\n", label, n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s correct=%v attempted=%d failed=%d\n", label, res.Correct, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
