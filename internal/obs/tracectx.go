package obs

import (
	"context"
	"strconv"
	"strings"
)

// TraceHeader is the HTTP header that carries an encoded SpanContext into
// the gateway and the servd HTTP front end.
const TraceHeader = "X-Roadtrojan-Trace"

// SpanContext is the compact cross-process trace context: which trace a
// request belongs to, which span in which process caused it, and the parent
// process's clock reading at the moment the context was captured. It is
// what travels on the wire — as the X-Roadtrojan-Trace HTTP header and the
// RTFB job-envelope "trace" key — so that spans opened in different
// processes land in one causal tree when their journals are merged.
//
// The wire form is four ';'-separated fields:
//
//	traceID;process;parentSpanID;tick
//
// ';' cannot appear in any field: span IDs are built from code-chosen span
// names joined with '/' and '#', trace IDs from a process name plus a span
// ID joined with ':', and ticks are decimal integers. A zero SpanContext
// encodes as "" and decodes back to zero, so "no context" needs no special
// casing at call sites.
type SpanContext struct {
	// TraceID identifies the whole causal tree. Minted at the root as
	// "process:rootSpanID" (e.g. "gw:gateway_request#0"), so it is
	// deterministic under injected clocks.
	TraceID string
	// Proc names the process that owns Parent. Process names are operator
	// chosen (gatewayd -trace-proc, servd -node-id); the merger uses them
	// to resolve the parent span in the right journal.
	Proc string
	// Parent is the parent span's ID inside Proc. Empty means "root": the
	// receiver starts a new tree under TraceID.
	Parent string
	// Tick is Proc's clock when the context was captured (the causal send
	// point). The merger uses it to align per-process logical clocks: the
	// child span cannot have started, in global time, before its parent
	// process reached Tick.
	Tick int64
}

// IsZero reports whether sc carries no context at all.
func (sc SpanContext) IsZero() bool {
	return sc.TraceID == "" && sc.Proc == "" && sc.Parent == "" && sc.Tick == 0
}

// Encode renders the wire form. The zero context encodes as "".
func (sc SpanContext) Encode() string {
	if sc.IsZero() {
		return ""
	}
	return sc.TraceID + ";" + sc.Proc + ";" + sc.Parent + ";" + strconv.FormatInt(sc.Tick, 10)
}

// ParseSpanContext decodes the wire form. It returns ok=false for anything
// that is not exactly four fields with a decimal tick; "" parses to the
// zero context with ok=true, mirroring Encode.
func ParseSpanContext(s string) (SpanContext, bool) {
	if s == "" {
		return SpanContext{}, true
	}
	parts := strings.Split(s, ";")
	if len(parts) != 4 {
		return SpanContext{}, false
	}
	tick, err := strconv.ParseInt(parts[3], 10, 64)
	if err != nil {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: parts[0], Proc: parts[1], Parent: parts[2], Tick: tick}
	if sc.IsZero() {
		// "";;;0 is not a sanctioned spelling of the zero context.
		return SpanContext{}, false
	}
	return sc, true
}

// SetProcess names the process for cross-process tracing. The name becomes
// the "proc" half of minted trace IDs and of SpanContexts handed to remote
// callees; the journal merger matches it against the per-journal process
// label. Call once at startup, before spans are opened. Nil-safe.
func (t *Trace) SetProcess(name string) {
	if t == nil {
		return
	}
	t.process = name
}

// SpanInContext opens a top-level span that joins the causal tree described
// by sc. The span_start record carries the trace attributes the merger
// needs: "trace" always, and — when sc names a remote parent — "parent",
// "pproc", and "ptick". With a zero sc this mints a fresh trace ID
// ("process:spanID"), making the span a global root.
func (t *Trace) SpanInContext(sc SpanContext, name string, attrs ...Attr) *Span {
	if !t.Enabled() {
		return nil
	}
	n := t.roots.Add(1) - 1
	id := name + "#" + strconv.FormatInt(n, 10)
	traceID := sc.TraceID
	if traceID == "" {
		traceID = t.process + ":" + id
	}
	ctx := make([]Attr, 0, 4)
	ctx = append(ctx, S("trace", traceID))
	if sc.Parent != "" {
		ctx = append(ctx, S("parent", sc.Parent), S("pproc", sc.Proc), I64("ptick", sc.Tick))
	}
	return t.startSpan(name, id, traceID, ctx, attrs)
}

// Context captures a SpanContext pointing at s, stamped with the trace's
// current clock tick (the causal send point). Pass its Encode() form to a
// remote callee so the span it opens becomes a child of s in the merged
// tree. If s was opened outside any context, a trace ID is minted exactly
// as SpanInContext would have ("process:spanID"), so plain Trace.Span roots
// still produce linkable contexts. A nil span yields the zero context.
func (s *Span) Context() SpanContext {
	if !s.Enabled() {
		return SpanContext{}
	}
	tid := s.traceID
	if tid == "" {
		tid = s.t.process + ":" + s.rootID()
	}
	return SpanContext{TraceID: tid, Proc: s.t.process, Parent: s.ID, Tick: s.t.clock.Now()}
}

// rootID returns the top-level ancestor's span ID (the part before the
// first '/', or the whole ID for a root span).
func (s *Span) rootID() string {
	if i := strings.IndexByte(s.ID, '/'); i >= 0 {
		return s.ID[:i]
	}
	return s.ID
}

// TraceID returns the trace this span belongs to ("" when the span was
// opened outside any context and none has been minted).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

type spanCtxKey struct{}

// ContextWithSpan attaches s to ctx so lower layers (the executor worker
// pool, the coalescer dispatch path) can parent their spans correctly
// without threading *Span through every signature. Attaching nil is a no-op
// returning ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span attached by ContextWithSpan, or nil —
// and a nil *Span is the standard no-op, so callers use the result
// unconditionally.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}
