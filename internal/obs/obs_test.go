package obs

import (
	"fmt"
	"sync"
	"testing"
)

// captureSink retains copies of everything emitted.
type captureSink struct {
	mu   sync.Mutex
	recs []Record
}

func (c *captureSink) Emit(r *Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := *r
	cp.Attrs = append([]Attr(nil), r.Attrs...)
	c.recs = append(c.recs, cp)
}

func (c *captureSink) Flush() error { return nil }

func TestTextTraceNilWriterIsDisabled(t *testing.T) {
	tr := TextTrace(nil)
	if tr != nil {
		t.Fatalf("TextTrace(nil) = %v, want nil trace", tr)
	}
	if tr.Enabled() {
		t.Fatal("TextTrace(nil).Enabled() = true, want false")
	}
	// The full no-op path must survive use, not just construction.
	sp := tr.Span("train")
	sp.Iter(IterStats{It: 1})
	sp.End()
}

func TestNilTraceIsNoop(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("nil trace Flush: %v", err)
	}
	sp := tr.Span("train")
	if sp != nil {
		t.Fatal("nil trace handed out a non-nil span")
	}
	// Every method on the nil span must return without panicking.
	sp.Iter(IterStats{})
	sp.EOT(EOTDraw{})
	sp.Verify(VerifyStats{})
	sp.GanD(GanDStep{})
	sp.Epoch(EpochStats{})
	sp.EvalRun(EvalRunStats{})
	sp.EvalScore(EvalScoreStats{})
	sp.End()
	if child := sp.Child("seg"); child != nil {
		t.Fatal("nil span handed out a non-nil child")
	}
	if New(nil, nil) != nil {
		t.Fatal("New(nil sink) should return a nil trace")
	}
}

func TestNoopZeroAllocs(t *testing.T) {
	var sp *Span
	allocs := testing.AllocsPerRun(1000, func() {
		sp.Iter(IterStats{It: 3, Attack: 1.5})
		sp.EOT(EOTDraw{It: 3, Resize: 1.1})
		sp.Verify(VerifyStats{It: 3, Score: 0.5})
		sp.GanD(GanDStep{It: 3, Loss: 0.7})
		sp.EvalRun(EvalRunStats{Run: 1, PWC: 0.8})
	})
	if allocs != 0 {
		t.Fatalf("no-op typed events allocated %.1f/op, want 0", allocs)
	}
}

func TestDeterministicSpanIDs(t *testing.T) {
	build := func() []string {
		sink := &captureSink{}
		tr := New(sink, NewLogicalClock())
		root := tr.Span("train", S("method", "ours"))
		for seg := 0; seg < 3; seg++ {
			c := root.Child("segment", I("seg", seg))
			c.Iter(IterStats{Method: "ours", It: seg * 10, Seg: seg})
			c.End()
		}
		root.End()
		tr.Span("eval").End()
		ids := make([]string, 0, len(sink.recs))
		for i := range sink.recs {
			ids = append(ids, sink.recs[i].Kind+"|"+sink.recs[i].Span+"|"+fmt.Sprint(sink.recs[i].Tick))
		}
		return ids
	}
	a, b := build(), build()
	if len(a) == 0 {
		t.Fatal("no records captured")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("span IDs/ticks differ across identical runs:\n%v\n%v", a, b)
	}
	want := []string{
		"span_start|train#0|1",
		"span_start|train#0/segment#0|2",
		"iter|train#0/segment#0|3",
	}
	for i, w := range want {
		if a[i] != w {
			t.Fatalf("record %d = %q, want %q", i, a[i], w)
		}
	}
}

func TestSpanRecordShapes(t *testing.T) {
	sink := &captureSink{}
	tr := New(sink, FixedClock(42))
	sp := tr.Span("train", S("method", "direct"))
	sp.Iter(IterStats{Method: "direct", It: 7, Attack: 2.5, PTarget: 0.25, Best: -1})
	sp.End(F("final_loss", 2.5))
	if len(sink.recs) != 3 {
		t.Fatalf("got %d records, want 3", len(sink.recs))
	}
	start := sink.recs[0]
	if start.Kind != "span_start" || start.Str("name") != "train" || start.Str("method") != "direct" {
		t.Fatalf("bad span_start: %+v", start)
	}
	iter := sink.recs[1]
	if iter.Kind != "iter" || iter.Int("it") != 7 || iter.Float("attack") != 2.5 {
		t.Fatalf("bad iter: %+v", iter)
	}
	if iter.Float("it") != 7 {
		t.Fatalf("Float should convert int attrs, got %v", iter.Float("it"))
	}
	end := sink.recs[2]
	if end.Kind != "span_end" || end.Int("dur") != 0 || end.Float("final_loss") != 2.5 {
		t.Fatalf("bad span_end: %+v", end)
	}
	if tr.Flush() != nil {
		t.Fatal("flush failed")
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	a, b := &captureSink{}, &captureSink{}
	if got := Multi(a, nil); got != Sink(a) {
		t.Fatal("Multi with one live sink should return it directly")
	}
	m := Multi(a, b)
	tr := New(m, NewLogicalClock())
	tr.Span("x").End()
	if len(a.recs) != 2 || len(b.recs) != 2 {
		t.Fatalf("fan-out mismatch: %d vs %d", len(a.recs), len(b.recs))
	}
	// A nil *TextSink (typed nil) must also be dropped, not kept as a
	// non-nil interface holding nil.
	if Multi(NewTextSink(nil)) != nil {
		t.Fatal("Multi should drop a nil *TextSink")
	}
}

func TestConcurrentEmit(t *testing.T) {
	sink := &captureSink{}
	tr := New(sink, WallClock())
	root := tr.Span("serve")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			sp := root.Child("request", I("worker", n))
			for j := 0; j < 50; j++ {
				sp.Iter(IterStats{It: j})
			}
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	want := 1 + 8*(1+50+1) + 1
	if len(sink.recs) != want {
		t.Fatalf("got %d records, want %d", len(sink.recs), want)
	}
	ids := map[string]bool{}
	for i := range sink.recs {
		if sink.recs[i].Kind == "span_start" {
			if ids[sink.recs[i].Span] {
				t.Fatalf("duplicate span ID %q under concurrency", sink.recs[i].Span)
			}
			ids[sink.recs[i].Span] = true
		}
	}
}
