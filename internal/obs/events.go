package obs

// Typed events for the repository's hot loops. Each takes its payload as a
// struct by value so that calling it on a disabled span costs nothing: no
// slice is materialized before the enabled check, which is what keeps the
// no-op path at 0 allocs/op (see TestNoopZeroAllocs).
//
// The attribute build order below is the journal field order; keep it
// stable — golden journals depend on it.

// IterStats is one attack-trainer iteration: the Eq. 1/2 loss
// decomposition (GAN realism + α-weighted attack term), the gradient norm
// reaching the patch, and the patch's ink statistics.
type IterStats struct {
	Method string // "ours" | "direct" | "baseline"
	It     int    // global iteration index
	Seg    int    // restart-segment index
	Final  bool   // last iteration of the run

	Attack   float64 // raw attack loss
	Alpha    float64 // α weight from Eq. 1/2
	Weighted float64 // α·Attack, the attack term as optimized
	GanG     float64 // generator adversarial loss (ours only)
	GanD     float64 // discriminator loss (ours only)
	Total    float64 // full objective: GanG + α·Attack (Eq. 1), or Attack

	PTarget  float64 // detector's mean target-class probability
	GradNorm float64 // L2 of the gradient reaching the patch layer
	LR       float64 // generator/patch learning rate after decay
	InkMean  float64 // mean ink coverage over the silhouette (1 = solid)
	InkFrac  float64 // fraction of silhouette pixels more ink than paper
	Best     float64 // best combined verify score so far (-1 = none yet)
}

// Iter emits one "iter" record.
func (s *Span) Iter(v IterStats) {
	if !s.Enabled() {
		return
	}
	s.t.emit("iter", s.ID, []Attr{
		S("method", v.Method), I("it", v.It), I("seg", v.Seg), B("final", v.Final),
		F("attack", v.Attack), F("alpha", v.Alpha), F("weighted", v.Weighted),
		F("gan_g", v.GanG), F("gan_d", v.GanD), F("total", v.Total),
		F("p_target", v.PTarget), F("grad_norm", v.GradNorm), F("lr", v.LR),
		F("ink_mean", v.InkMean), F("ink_frac", v.InkFrac), F("best", v.Best),
	})
}

// EOTDraw is one sampled EOT transform chain A(·;θ): the drawn parameters
// for each of the paper's five tricks, at their identity values when the
// trick is not in the active set.
type EOTDraw struct {
	It       int // iteration the draw belongs to
	Frame    int // frame index within the window
	Resize   float64
	Rotation float64 // radians
	Bright   float64
	Gamma    float64
	Persp    float64 // mean absolute corner displacement, px
}

// EOT emits one "eot" record.
func (s *Span) EOT(v EOTDraw) {
	if !s.Enabled() {
		return
	}
	s.t.emit("eot", s.ID, []Attr{
		I("it", v.It), I("frame", v.Frame),
		F("resize", v.Resize), F("rot", v.Rotation), F("bright", v.Bright),
		F("gamma", v.Gamma), F("persp", v.Persp),
	})
}

// VerifyStats is one snapshot verification: the paper's
// confirm-digitally-then-physically protocol score for a candidate patch.
type VerifyStats struct {
	It    int
	Score float64 // combined digital+physical verify score
	Best  float64 // best score after this verification
	Kept  bool    // this candidate became the printed artifact so far
}

// Verify emits one "verify" record.
func (s *Span) Verify(v VerifyStats) {
	if !s.Enabled() {
		return
	}
	s.t.emit("verify", s.ID, []Attr{
		I("it", v.It), F("score", v.Score), F("best", v.Best), B("kept", v.Kept),
	})
}

// GanDStep is one discriminator update inside the GAN trainer.
type GanDStep struct {
	It   int
	Loss float64 // real+fake BCE after the step's forward passes
}

// GanD emits one "gan_d" record.
func (s *Span) GanD(v GanDStep) {
	if !s.Enabled() {
		return
	}
	s.t.emit("gan_d", s.ID, []Attr{I("it", v.It), F("loss", v.Loss)})
}

// EpochStats is one detector-training epoch.
type EpochStats struct {
	Epoch int
	Loss  float64
	LR    float64
}

// Epoch emits one "epoch" record.
func (s *Span) Epoch(v EpochStats) {
	if !s.Enabled() {
		return
	}
	s.t.emit("epoch", s.ID, []Attr{I("epoch", v.Epoch), F("loss", v.Loss), F("lr", v.LR)})
}

// EvalRunStats is one evaluation repetition's PWC/CWC outcome.
type EvalRunStats struct {
	Run        int
	PWC        float64
	CWC        bool
	Frames     int
	WrongRun   int
	DetectRate float64
}

// EvalRun emits one "eval_run" record.
func (s *Span) EvalRun(v EvalRunStats) {
	if !s.Enabled() {
		return
	}
	s.t.emit("eval_run", s.ID, []Attr{
		I("run", v.Run), F("pwc", v.PWC), B("cwc", v.CWC),
		I("frames", v.Frames), I("wrong_run", v.WrongRun), F("detect_rate", v.DetectRate),
	})
}

// EvalScoreStats is the aggregate PWC/CWC over a job's repetitions.
type EvalScoreStats struct {
	PWC        float64
	CWC        bool
	Frames     int
	WrongRun   int
	DetectRate float64
	Runs       int
}

// EvalScore emits one "eval_score" record.
func (s *Span) EvalScore(v EvalScoreStats) {
	if !s.Enabled() {
		return
	}
	s.t.emit("eval_score", s.ID, []Attr{
		F("pwc", v.PWC), B("cwc", v.CWC), I("frames", v.Frames),
		I("wrong_run", v.WrongRun), F("detect_rate", v.DetectRate), I("runs", v.Runs),
	})
}

// knownKinds is the set of record kinds this schema version defines.
// ReadJournal skips records outside it.
var knownKinds = map[string]bool{
	"journal": true, "span_start": true, "span_end": true,
	"iter": true, "eot": true, "verify": true, "gan_d": true,
	"epoch": true, "eval_run": true, "eval_score": true,
}
