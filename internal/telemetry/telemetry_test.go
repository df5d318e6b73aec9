package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "total requests", Labels{"endpoint": "detect", "code": "200"}).Add(3)
	r.Counter("requests_total", "total requests", Labels{"code": "429", "endpoint": "evaluate"}).Inc()
	r.Gauge("queue_depth", "jobs queued", nil).Set(2)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE requests_total counter",
		`requests_total{code="200",endpoint="detect"} 3`,
		`requests_total{code="429",endpoint="evaluate"} 1`,
		"# TYPE queue_depth gauge",
		"queue_depth 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterHandleIsStable(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits", "h", nil)
	b := r.Counter("hits", "h", nil)
	if a != b {
		t.Fatal("same name+labels should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("value = %d, want 1", b.Value())
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "latency", nil, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.6)
	h.Observe(5) // above every bound: only +Inf

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="+Inf"} 4`,
		"latency_seconds_sum 6.15",
		"latency_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramLabelsGetLeSpliced(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "l", Labels{"endpoint": "detect"}, []float64{1})
	h.Observe(0.5)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `lat_bucket{endpoint="detect",le="1"} 1`) {
		t.Fatalf("bad labeled bucket:\n%s", sb.String())
	}
}

func TestLabelValueEscaping(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"plain", "detect", "detect"},
		{"backslash", `C:\path`, `C:\\path`},
		{"quote", `say "hi"`, `say \"hi\"`},
		{"newline", "line1\nline2", `line1\nline2`},
		{"all three", "a\\b\"c\nd", `a\\b\"c\nd`},
		// Only \ " \n are escaped in the exposition format: tabs and
		// non-ASCII pass through verbatim (Go's %q would mangle both).
		{"tab untouched", "a\tb", "a\tb"},
		{"utf8 untouched", "héllo", "héllo"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := escapeLabelValue(tc.in); got != tc.want {
				t.Fatalf("escapeLabelValue(%q) = %q, want %q", tc.in, got, tc.want)
			}
			r := NewRegistry()
			r.Counter("m", "m", Labels{"v": tc.in}).Inc()
			var sb strings.Builder
			if err := r.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			line := `m{v="` + tc.want + `"} 1`
			if !strings.Contains(sb.String(), line) {
				t.Fatalf("exposition missing %q:\n%s", line, sb.String())
			}
		})
	}
}

func TestHistogramTrailingInfBoundDeduped(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "l", nil, []float64{0.5, math.Inf(1)})
	h.Observe(0.1)
	h.Observe(2)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, `le="+Inf"`); got != 1 {
		t.Fatalf("want exactly one +Inf bucket, got %d:\n%s", got, out)
	}
	for _, want := range []string{
		`lat_bucket{le="0.5"} 1`,
		`lat_bucket{le="+Inf"} 2`,
		"lat_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramInfBucketCountsEverything(t *testing.T) {
	// The +Inf bucket must equal the total sample count even when samples
	// exceed every finite bound.
	r := NewRegistry()
	h := r.Histogram("lat2", "l", nil, []float64{0.1})
	for i := 0; i < 5; i++ {
		h.Observe(100)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat2_bucket{le="0.1"} 0`,
		`lat2_bucket{le="+Inf"} 5`,
		"lat2_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c", "c", nil).Inc()
				r.Gauge("g", "g", nil).Add(1)
				r.Histogram("h", "h", nil, nil).Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("c", "c", nil).Value(); v != 8000 {
		t.Fatalf("counter = %d, want 8000", v)
	}
	if v := r.Gauge("g", "g", nil).Value(); v != 8000 {
		t.Fatalf("gauge = %g, want 8000", v)
	}
	if n := r.Histogram("h", "h", nil, nil).Snapshot().Count; n != 8000 {
		t.Fatalf("histogram count = %d, want 8000", n)
	}
}

func TestGaugeFuncDerivedAtScrape(t *testing.T) {
	r := NewRegistry()
	hits := r.Counter("cache_hits_total", "h", nil)
	misses := r.Counter("cache_misses_total", "m", nil)
	r.GaugeFunc("cache_hit_ratio", "derived hit ratio", nil, func() float64 {
		h, m := hits.Value(), misses.Value()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})

	scrape := func() string {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if out := scrape(); !strings.Contains(out, "cache_hit_ratio 0\n") {
		t.Fatalf("empty counters should scrape as 0:\n%s", out)
	}
	hits.Add(3)
	misses.Inc()
	// The function is evaluated at scrape time, not registration time.
	out := scrape()
	for _, want := range []string{"# TYPE cache_hit_ratio gauge", "cache_hit_ratio 0.75"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeFuncNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil GaugeFunc should panic at registration")
		}
	}()
	NewRegistry().GaugeFunc("broken", "b", nil, nil)
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		rec := recover()
		msg, _ := rec.(string)
		if rec == nil || !strings.Contains(msg, want) {
			t.Fatalf("want a panic containing %q, got %v", want, rec)
		}
	}()
	f()
}

// TestRegistrationCollisions: conflicting re-registrations must panic with
// a descriptive message, never silently shadow the established series. The
// matching spec is always idempotent.
func TestRegistrationCollisions(t *testing.T) {
	r := NewRegistry()
	if r.Counter("m", "help", nil) != r.Counter("m", "help", nil) {
		t.Fatal("idempotent re-registration returned a new counter")
	}
	mustPanic(t, "already registered as counter", func() { r.Gauge("m", "help", nil) })
	mustPanic(t, "help redefined", func() { r.Counter("m", "different help", nil) })

	if r.Histogram("lat", "h", nil, []float64{1, 2}) != r.Histogram("lat", "h", nil, []float64{1, 2}) {
		t.Fatal("same-bounds histogram re-registration returned a new histogram")
	}
	mustPanic(t, "bounds redefined", func() { r.Histogram("lat", "h", nil, []float64{1, 2, 5}) })

	fn := func() float64 { return 1 }
	r.GaugeFunc("derived", "d", nil, fn)
	mustPanic(t, "derived gauge", func() { r.GaugeFunc("derived", "d", nil, fn) })
	mustPanic(t, "derived gauge", func() { r.Gauge("derived", "d", nil) })

	r.Gauge("plain", "p", nil)
	mustPanic(t, "value gauge", func() { r.GaugeFunc("plain", "p", nil, fn) })
}

func TestHistogramExemplarExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stage_seconds", "stage latency", Labels{"stage": "forward"}, []float64{0.1, 1})
	h.ObserveExemplar(0.05, "gw:gateway_request#0")
	h.ObserveExemplar(0.5, "gw:gateway_request#1")
	h.Observe(0.6) // plain observation must not disturb the bucket exemplar

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`stage_seconds_bucket{stage="forward",le="0.1"} 1 # {trace_id="gw:gateway_request#0"} 0.05`,
		`stage_seconds_bucket{stage="forward",le="1"} 3 # {trace_id="gw:gateway_request#1"} 0.5`,
		`stage_seconds_bucket{stage="forward",le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramWithoutExemplarsByteUnchanged(t *testing.T) {
	render := func(observe func(h *Histogram)) string {
		r := NewRegistry()
		h := r.Histogram("h", "h", nil, []float64{1})
		observe(h)
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	plain := render(func(h *Histogram) { h.Observe(0.5) })
	empty := render(func(h *Histogram) { h.ObserveExemplar(0.5, "") })
	if plain != empty {
		t.Fatalf("empty-trace exemplar changed exposition:\n%s\n---\n%s", plain, empty)
	}
	if strings.Contains(plain, "#") && strings.Contains(plain, "trace_id") {
		t.Fatalf("plain exposition leaked exemplar syntax:\n%s", plain)
	}
}

func TestHistogramExemplarLatestWins(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "h", nil, []float64{1})
	h.ObserveExemplar(0.2, "trace-a")
	h.ObserveExemplar(0.3, "trace-b")
	s := h.Snapshot()
	if s.Exemplars[0].TraceID != "trace-b" || s.Exemplars[0].Value != 0.3 {
		t.Fatalf("bucket exemplar = %+v, want latest (trace-b)", s.Exemplars[0])
	}
}

func TestMergeSnapshots(t *testing.T) {
	mk := func(traceID string, vals ...float64) HistSnapshot {
		r := NewRegistry()
		h := r.Histogram("h", "h", nil, []float64{0.1, 1})
		for _, v := range vals {
			h.ObserveExemplar(v, traceID)
		}
		return h.Snapshot()
	}
	a := mk("node-a", 0.05, 0.5)
	b := mk("node-b", 0.06, 5)

	m, err := MergeSnapshots([]HistSnapshot{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 4 {
		t.Fatalf("merged count = %d, want 4", m.Count)
	}
	if got, want := m.Sum, 0.05+0.5+0.06+5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("merged sum = %v, want %v", got, want)
	}
	// Cumulative buckets: le=0.1 holds 2 (0.05, 0.06), le=1 holds 3.
	if m.Counts[0] != 2 || m.Counts[1] != 3 {
		t.Fatalf("merged cumulative counts = %v", m.Counts)
	}
	// Later snapshot's exemplar wins per bucket where both have one.
	if m.Exemplars[0].TraceID != "node-b" {
		t.Fatalf("bucket-0 exemplar = %+v, want node-b's", m.Exemplars[0])
	}
	// Bucket 1 only a touched: a's exemplar survives.
	if m.Exemplars[1].TraceID != "node-a" {
		t.Fatalf("bucket-1 exemplar = %+v, want node-a's", m.Exemplars[1])
	}

	if _, err := MergeSnapshots(nil); err == nil {
		t.Fatal("MergeSnapshots(nil) should error")
	}
	c := HistSnapshot{Bounds: []float64{0.5}, Counts: []uint64{0}}
	if _, err := MergeSnapshots([]HistSnapshot{a, c}); err == nil {
		t.Fatal("mismatched bounds should error")
	}
}
