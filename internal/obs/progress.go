package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"roadtrojan/internal/telemetry"
)

// ProgressState is the live snapshot served at /progress: the most recent
// value of each headline quantity, plus totals. It is a monitoring view, not
// a journal — history lives in the JSONL file.
type ProgressState struct {
	Iter       int     `json:"iter"`
	Segment    int     `json:"segment"`
	Method     string  `json:"method"`
	AttackLoss float64 `json:"attack_loss"`
	GanG       float64 `json:"gan_g"`
	GanD       float64 `json:"gan_d"`
	Total      float64 `json:"total"`
	PTarget    float64 `json:"p_target"`
	GradNorm   float64 `json:"grad_norm"`
	Best       float64 `json:"best"`
	InkMean    float64 `json:"ink_mean"`
	Verifies   int     `json:"verifies"`
	EvalRuns   int     `json:"eval_runs"`
	LastPWC    float64 `json:"last_pwc"`
	LastCWC    bool    `json:"last_cwc"`
	Records    int64   `json:"records"`
}

// attackLossBuckets cover the observed range of detector attack losses
// (roughly 0.01 … 100 across methods and scenes), log-spaced.
var attackLossBuckets = []float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100}

// ProgressSink keeps ProgressState and the obs_* metric families current
// from the record stream and serves both over HTTP, together with
// /debug/pprof (always, since a progress listener is an explicit debugging
// opt-in).
type ProgressSink struct {
	mu    sync.Mutex
	state ProgressState
	reg   *telemetry.Registry

	iters      *telemetry.Counter
	evalRuns   *telemetry.Counter
	verifies   *telemetry.Counter
	spans      *telemetry.Counter
	attackLoss *telemetry.Histogram
	pTarget    *telemetry.Gauge
	bestScore  *telemetry.Gauge
	lastPWC    *telemetry.Gauge
	gradNorm   *telemetry.Gauge
}

// NewProgressSink returns an empty progress view over a fresh registry
// holding the obs_* families.
func NewProgressSink() *ProgressSink {
	reg := telemetry.NewRegistry()
	return &ProgressSink{
		reg:        reg,
		iters:      reg.Counter("obs_train_iterations_total", "Attack-trainer iterations observed.", nil),
		evalRuns:   reg.Counter("obs_eval_runs_total", "Evaluation repetitions observed.", nil),
		verifies:   reg.Counter("obs_verify_total", "Snapshot verifications observed.", nil),
		spans:      reg.Counter("obs_spans_total", "Spans opened.", nil),
		attackLoss: reg.Histogram("obs_attack_loss", "Per-iteration raw attack loss.", nil, attackLossBuckets),
		pTarget:    reg.Gauge("obs_p_target", "Latest mean target-class probability.", nil),
		bestScore:  reg.Gauge("obs_best_verify_score", "Best combined verify score so far.", nil),
		lastPWC:    reg.Gauge("obs_last_pwc", "Most recent per-run PWC.", nil),
		gradNorm:   reg.Gauge("obs_grad_norm", "Latest patch-layer gradient L2 norm.", nil),
	}
}

// Emit updates the live snapshot and the metric families.
func (p *ProgressSink) Emit(r *Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.state.Records++
	switch r.Kind {
	case "iter":
		p.state.Iter = int(r.Int("it"))
		p.state.Segment = int(r.Int("seg"))
		p.state.Method = r.Str("method")
		p.state.AttackLoss = r.Float("attack")
		p.state.GanG = r.Float("gan_g")
		p.state.GanD = r.Float("gan_d")
		p.state.Total = r.Float("total")
		p.state.PTarget = r.Float("p_target")
		p.state.GradNorm = r.Float("grad_norm")
		p.state.Best = r.Float("best")
		p.state.InkMean = r.Float("ink_mean")
		p.iters.Inc()
		p.attackLoss.Observe(p.state.AttackLoss)
		p.pTarget.Set(p.state.PTarget)
		p.bestScore.Set(p.state.Best)
		p.gradNorm.Set(p.state.GradNorm)
	case "verify":
		p.state.Verifies++
		p.state.Best = r.Float("best")
		p.verifies.Inc()
		p.bestScore.Set(p.state.Best)
	case "eval_run":
		p.state.EvalRuns++
		p.state.LastPWC = r.Float("pwc")
		p.state.LastCWC = r.Int("cwc") == 1
		p.evalRuns.Inc()
		p.lastPWC.Set(p.state.LastPWC)
	case "span_start":
		p.spans.Inc()
	}
}

// Flush is a no-op: the snapshot is always current.
func (p *ProgressSink) Flush() error { return nil }

// Snapshot returns a copy of the current state.
func (p *ProgressSink) Snapshot() ProgressState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// Handler serves the live-introspection endpoints:
//
//	/progress     current ProgressState as JSON
//	/metrics      the telemetry registry (Prometheus text format)
//	/debug/pprof  the standard Go profiler index and profiles
func (p *ProgressSink) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st := p.Snapshot()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	mux.Handle("/metrics", p.reg.Handler())
	RegisterPprof(mux)
	return mux
}

// RegisterPprof mounts the net/http/pprof handlers on mux under
// /debug/pprof. Mounting is explicit (rather than the package's
// DefaultServeMux side effect) so servers only expose the profiler when
// asked to.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ServeProgress binds addr synchronously (so a bad address fails fast),
// then serves the progress endpoints in a goroutine. The returned server's
// Close stops it. Intended for CLI -progress flags.
func ServeProgress(addr string, p *ProgressSink) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: progress listen: %w", err)
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: p.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}
