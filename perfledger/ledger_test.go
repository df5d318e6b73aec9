package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"roadtrojan/internal/obs"
)

// benchmarkFile is the part of BENCHMARK.json the ledger must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, ledger runs %v", names, want)
	}
	check := func(kind string, file []metricDef, code []metricDef) {
		if !reflect.DeepEqual(file, code) {
			t.Errorf("BENCHMARK.json %s differ from the ledger's catalog:\nfile %v\ncode %v", kind, file, code)
		}
	}
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}

func TestScheduleIsSeeded(t *testing.T) {
	due1, key1 := poissonSchedule(3, hotRate, time.Second, 16)
	due2, key2 := poissonSchedule(3, hotRate, time.Second, 16)
	due3, key3 := poissonSchedule(4, hotRate, time.Second, 16)
	if !reflect.DeepEqual(due1, due2) || !reflect.DeepEqual(key1, key2) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(due1, due3) || reflect.DeepEqual(key1, key3) {
		t.Error("different seeds gave the same schedule")
	}
	in1, err := coldInputs(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	in2, _ := coldInputs(3, 2)
	in3, _ := coldInputs(4, 2)
	for i := range in1 {
		if !bytes.Equal(in1[i].body, in2[i].body) {
			t.Errorf("request %d: same seed gave different bytes", i)
		}
		if bytes.Equal(in1[i].body, in3[i].body) {
			t.Errorf("request %d: different seeds gave the same bytes", i)
		}
	}
}

func TestTailQuantileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := tailQuantile(xs, 0.90); !ok || v != 90 {
		t.Errorf("p90 of 100 samples = %v, %v; want 90 with 10 beyond", v, ok)
	}
	if _, ok := tailQuantile(xs[:99], 0.90); ok {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, ok := tailQuantile(xs, 0.99); ok {
		t.Error("p99 of 100 samples is the maximum and must be refused")
	}
}

// span builds a finished merged span over [lo, hi].
func span(name string, lo, hi int64, children ...*obs.MergedSpan) *obs.MergedSpan {
	return &obs.MergedSpan{Name: name, GStart: lo, GEnd: hi, Dur: hi - lo, Children: children}
}

func TestSelfTimeAndUnattributed(t *testing.T) {
	leaf := span("forward", 15, 20)
	a := span("eval", 10, 40, leaf)
	b := span("decode", 30, 60)
	c := span("attempt", 80, 90)
	root := span("gateway_request", 0, 100, a, b, c)

	// The children overlap on [30,40]; their union covers 60 of 100.
	if got := selfTime(root); got != 40 {
		t.Errorf("root self time %d, want 40", got)
	}
	if got := selfTime(a); got != 25 {
		t.Errorf("eval self time %d, want 25", got)
	}
	if got := covered([]interval{{0, 5}, {3, 8}, {10, 12}}); got != 10 {
		t.Errorf("covered %d, want 10", got)
	}
	early := span("gateway_request", -50, -10, span("dispatch", -40, -20))
	br := attribute(&obs.MergedTrace{Roots: []*obs.MergedSpan{early, root, span("gateway_request", 0, 5)}}, 0)
	if br.roots != 1 {
		t.Fatalf("attributed %d roots; want only the one after the window start with children", br.roots)
	}
	// The critical path runs root -> attempt (latest end); only the root has
	// children on it, so its self time is the unattributed time.
	if br.unattributed != 40 {
		t.Errorf("unattributed %d, want 40", br.unattributed)
	}
	want := map[string]int64{"gateway_request": 40, "eval": 25, "forward": 5, "decode": 30, "attempt": 10}
	if !reflect.DeepEqual(br.self, want) {
		t.Errorf("self times %v, want %v", br.self, want)
	}
	// Every tick of the root is attributed to exactly one span name except
	// where siblings overlap: the sum exceeds the root by the overlap.
	sum := int64(0)
	for _, v := range br.self {
		sum += v
	}
	if sum != root.Dur+10 {
		t.Errorf("self times sum to %d, want %d (root plus the 10-tick overlap)", sum, root.Dur+10)
	}
}

// TestLedgerSmoke runs every workload at smoke size and checks that each
// metric BENCHMARK.json names is emitted, finite, with its unit, and that
// every end-to-end metric is positive.
func TestLedgerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // the windows are paced by the clock, so runs overlap well
			var stdout, stderr bytes.Buffer
			code := mainCode([]string{"-workload", w.name, "-smoke", "-out", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			res, err := lastResult(stdout.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range b.EndToEnd {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive finite value in %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range b.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("per-layer %s = %+v (present %v), want a finite value in %s", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}
