// Package obs is the structured observability layer: hierarchical spans
// with deterministic IDs, typed events for the attack/eval/serving loops,
// and pluggable sinks (JSONL journal, legacy text log, telemetry fan-in,
// live progress). It exists so a training run can be replayed and
// interrogated — "why did restart 2 win?", "which EOT draw killed
// convergence?" — without rerunning it.
//
// Two properties are load-bearing:
//
//   - Determinism. Nothing in this package draws randomness, and all
//     timestamps come from an injected Clock. Deterministic packages
//     (attack, eval, gan, yolo) stamp records with a LogicalClock — a
//     monotone counter — so the same seed produces a byte-identical
//     journal. Wall-clock reads live here (obs is on rtlint's globalrand
//     allowlist) and never leak into the packages that import obs.
//
//   - A free off-switch. A nil *Trace (or nil *Span) is the no-op sink:
//     every method returns immediately and allocates nothing, so trainers
//     instrument their hot loops unconditionally. The typed event methods
//     take structs by value for exactly this reason — no variadic slice is
//     built before the enabled check. TestNoopZeroAllocs pins the
//     0 allocs/op contract.
package obs

import (
	"reflect"
	"strconv"
	"sync/atomic"
	"time"
)

// SchemaVersion is the journal record-format version. Bump it whenever a
// record kind changes meaning or a field is renamed; readers refuse
// journals from a different version rather than misreading them.
const SchemaVersion = 1

// Clock supplies record timestamps. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current tick. The unit is implementation-defined:
	// nanoseconds for the wall clock, a call counter for the logical clock.
	Now() int64
}

// LogicalClock is a deterministic clock: each Now() returns the next value
// of a monotone counter. Journals stamped with it are byte-identical across
// runs with the same event sequence.
type LogicalClock struct {
	n atomic.Int64
}

// NewLogicalClock returns a counter clock starting at 1.
func NewLogicalClock() *LogicalClock { return &LogicalClock{} }

// Now returns the next counter value.
func (c *LogicalClock) Now() int64 { return c.n.Add(1) }

type wallClock struct{}

func (wallClock) Now() int64 { return time.Now().UnixNano() }

// WallClock returns the real-time clock (UnixNano ticks). Use it for
// serving-path traces where durations matter and determinism does not.
func WallClock() Clock { return wallClock{} }

// FixedClock always returns its own value — for tests that want fully
// static journal bytes.
type FixedClock int64

// Now returns the fixed tick.
func (c FixedClock) Now() int64 { return int64(c) }

// AttrKind discriminates the value slot of an Attr.
type AttrKind uint8

// The three attribute value kinds.
const (
	AttrFloat AttrKind = iota
	AttrInt
	AttrString
)

// Attr is one key/value pair on a record. Exactly one value slot is
// meaningful, selected by Kind.
type Attr struct {
	Key  string
	Kind AttrKind
	Num  float64
	Int  int64
	Str  string
}

// F builds a float attribute.
func F(key string, v float64) Attr { return Attr{Key: key, Kind: AttrFloat, Num: v} }

// I builds an int attribute.
func I(key string, v int) Attr { return Attr{Key: key, Kind: AttrInt, Int: int64(v)} }

// I64 builds an int64 attribute.
func I64(key string, v int64) Attr { return Attr{Key: key, Kind: AttrInt, Int: v} }

// B builds a 0/1 int attribute from a bool.
func B(key string, v bool) Attr {
	n := int64(0)
	if v {
		n = 1
	}
	return Attr{Key: key, Kind: AttrInt, Int: n}
}

// S builds a string attribute.
func S(key, v string) Attr { return Attr{Key: key, Kind: AttrString, Str: v} }

// Record is one observation: a kind, the span it belongs to, a clock tick,
// and ordered attributes. Attribute order is the journal field order, so
// emitters must build it deterministically.
type Record struct {
	Kind  string
	Span  string // span ID; "" for trace-level records
	Tick  int64
	Attrs []Attr
}

// Float returns the named float attribute (0 when absent). Int attributes
// are converted.
func (r *Record) Float(key string) float64 {
	for i := range r.Attrs {
		if r.Attrs[i].Key == key {
			if r.Attrs[i].Kind == AttrInt {
				return float64(r.Attrs[i].Int)
			}
			return r.Attrs[i].Num
		}
	}
	return 0
}

// Int returns the named int attribute (0 when absent).
func (r *Record) Int(key string) int64 {
	for i := range r.Attrs {
		if r.Attrs[i].Key == key {
			return r.Attrs[i].Int
		}
	}
	return 0
}

// Str returns the named string attribute ("" when absent).
func (r *Record) Str(key string) string {
	for i := range r.Attrs {
		if r.Attrs[i].Key == key {
			return r.Attrs[i].Str
		}
	}
	return ""
}

// Sink receives stamped records. Implementations must be safe for
// concurrent Emit calls and must not retain r or r.Attrs after returning
// (the caller may reuse the backing array).
type Sink interface {
	Emit(r *Record)
	Flush() error
}

// Trace is the root observability handle threaded through trainers and the
// evaluation/serving paths. A nil *Trace is the canonical no-op: every
// method on it (and on the nil *Span it hands out) returns immediately.
type Trace struct {
	sink    Sink
	clock   Clock
	process string
	roots   atomic.Int64
}

// New builds a trace around a sink. A nil sink — including a typed nil
// like NewTextSink(nil) — yields a nil (disabled) trace; a nil clock
// defaults to a fresh LogicalClock so the trace is deterministic unless the
// caller opts into wall time.
func New(sink Sink, clock Clock) *Trace {
	if isNilSink(sink) {
		return nil
	}
	if clock == nil {
		clock = NewLogicalClock()
	}
	return &Trace{sink: sink, clock: clock}
}

// Enabled reports whether records are being collected.
func (t *Trace) Enabled() bool { return t != nil && t.sink != nil }

// Flush flushes the underlying sink.
func (t *Trace) Flush() error {
	if !t.Enabled() {
		return nil
	}
	return t.sink.Flush()
}

// emit stamps and forwards one record.
func (t *Trace) emit(kind, span string, attrs []Attr) {
	r := Record{Kind: kind, Span: span, Tick: t.clock.Now(), Attrs: attrs}
	t.sink.Emit(&r)
}

// Span opens a top-level span. IDs are deterministic — "name#n" where n is
// the per-trace sequence number — so two runs with the same seed produce
// identical span trees.
func (t *Trace) Span(name string, attrs ...Attr) *Span {
	if !t.Enabled() {
		return nil
	}
	n := t.roots.Add(1) - 1
	return t.startSpan(name, name+"#"+strconv.FormatInt(n, 10), "", nil, attrs)
}

// startSpan opens a span and emits its span_start record. ctx holds the
// trace-context attributes (trace/parent/pproc/ptick) that SpanInContext
// prepends between the name and the caller's attrs; plain spans pass nil so
// their journal bytes are unchanged.
func (t *Trace) startSpan(name, id, traceID string, ctx, attrs []Attr) *Span {
	s := &Span{t: t, ID: id, name: name, traceID: traceID, start: t.clock.Now()}
	rec := make([]Attr, 0, len(ctx)+len(attrs)+1)
	rec = append(rec, S("name", name))
	rec = append(rec, ctx...)
	rec = append(rec, attrs...)
	r := Record{Kind: "span_start", Span: id, Tick: s.start, Attrs: rec}
	t.sink.Emit(&r)
	return s
}

// Span is one node of the trace hierarchy. A nil *Span is a no-op.
type Span struct {
	t        *Trace
	ID       string
	name     string
	traceID  string
	start    int64
	children atomic.Int64
}

// Enabled reports whether events on this span are collected.
func (s *Span) Enabled() bool { return s != nil && s.t.Enabled() }

// Child opens a sub-span with a deterministic ID parent/name#n.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if !s.Enabled() {
		return nil
	}
	n := s.children.Add(1) - 1
	id := s.ID + "/" + name + "#" + strconv.FormatInt(n, 10)
	return s.t.startSpan(name, id, s.traceID, nil, attrs)
}

// End closes the span, recording its duration in clock ticks.
func (s *Span) End(attrs ...Attr) {
	if !s.Enabled() {
		return
	}
	end := s.t.clock.Now()
	rec := make([]Attr, 0, len(attrs)+1)
	rec = append(rec, I64("dur", end-s.start))
	rec = append(rec, attrs...)
	r := Record{Kind: "span_end", Span: s.ID, Tick: end, Attrs: rec}
	s.t.sink.Emit(&r)
}

// multiSink fans records out to several sinks in order.
type multiSink []Sink

func (m multiSink) Emit(r *Record) {
	for _, s := range m {
		s.Emit(r)
	}
}

func (m multiSink) Flush() error {
	var first error
	for _, s := range m {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// isNilSink reports whether s is nil or a non-nil interface holding a nil
// pointer (a typed nil, like the NewTextSink(nil) result).
func isNilSink(s Sink) bool {
	if s == nil {
		return true
	}
	v := reflect.ValueOf(s)
	return v.Kind() == reflect.Pointer && v.IsNil()
}

// Multi combines sinks, dropping nils — including typed nils. It returns
// nil when no sink remains, so New(Multi(maybeNil...), clock) degrades to a
// disabled trace.
func Multi(sinks ...Sink) Sink {
	var out multiSink
	for _, s := range sinks {
		if isNilSink(s) {
			continue
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}
