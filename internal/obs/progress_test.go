package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
)

// wantProgressMetrics is the /metrics scrape after the record stream in
// TestProgressSinkServesProgressAndMetrics: every obs_* family, in
// registration order, with its help text.
const wantProgressMetrics = `# HELP obs_train_iterations_total Attack-trainer iterations observed.
# TYPE obs_train_iterations_total counter
obs_train_iterations_total 1
# HELP obs_eval_runs_total Evaluation repetitions observed.
# TYPE obs_eval_runs_total counter
obs_eval_runs_total 1
# HELP obs_verify_total Snapshot verifications observed.
# TYPE obs_verify_total counter
obs_verify_total 1
# HELP obs_spans_total Spans opened.
# TYPE obs_spans_total counter
obs_spans_total 2
# HELP obs_attack_loss Per-iteration raw attack loss.
# TYPE obs_attack_loss histogram
obs_attack_loss_bucket{le="0.01"} 0
obs_attack_loss_bucket{le="0.03"} 0
obs_attack_loss_bucket{le="0.1"} 0
obs_attack_loss_bucket{le="0.3"} 0
obs_attack_loss_bucket{le="1"} 1
obs_attack_loss_bucket{le="3"} 1
obs_attack_loss_bucket{le="10"} 1
obs_attack_loss_bucket{le="30"} 1
obs_attack_loss_bucket{le="100"} 1
obs_attack_loss_bucket{le="+Inf"} 1
obs_attack_loss_sum 0.5
obs_attack_loss_count 1
# HELP obs_p_target Latest mean target-class probability.
# TYPE obs_p_target gauge
obs_p_target 0.25
# HELP obs_best_verify_score Best combined verify score so far.
# TYPE obs_best_verify_score gauge
obs_best_verify_score 0.6
# HELP obs_last_pwc Most recent per-run PWC.
# TYPE obs_last_pwc gauge
obs_last_pwc 40
# HELP obs_grad_norm Latest patch-layer gradient L2 norm.
# TYPE obs_grad_norm gauge
obs_grad_norm 2
`

// TestProgressSinkServesProgressAndMetrics feeds one trainer iteration, one
// verification and one evaluation run through a trace into a ProgressSink,
// then reads both views over HTTP: the /progress snapshot and the obs_*
// series on /metrics.
func TestProgressSinkServesProgressAndMetrics(t *testing.T) {
	prog := NewProgressSink()
	tr := New(prog, NewLogicalClock())
	sp := tr.Span("train")
	sp.Iter(IterStats{Method: "ours", It: 3, Seg: 1, Attack: 0.5, GanG: 0.7, GanD: 1.25, Total: 1.45,
		PTarget: 0.25, GradNorm: 2, InkMean: 0.875, Best: -1})
	sp.Verify(VerifyStats{It: 3, Score: 0.6, Best: 0.6, Kept: true})
	sp.Child("eval").EvalRun(EvalRunStats{Run: 0, PWC: 40, CWC: true, Frames: 30})

	srv := httptest.NewServer(prog.Handler())
	defer srv.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var got ProgressState
	if err := json.Unmarshal(get("/progress"), &got); err != nil {
		t.Fatalf("decode /progress: %v", err)
	}
	want := ProgressState{
		Iter: 3, Segment: 1, Method: "ours", AttackLoss: 0.5, GanG: 0.7, GanD: 1.25, Total: 1.45,
		PTarget: 0.25, GradNorm: 2, Best: 0.6, InkMean: 0.875, Verifies: 1, EvalRuns: 1,
		LastPWC: 40, LastCWC: true, Records: 5,
	}
	if got != want {
		t.Errorf("/progress = %+v\nwant        %+v", got, want)
	}
	if got := string(get("/metrics")); got != wantProgressMetrics {
		t.Errorf("/metrics =\n%s\nwant\n%s", got, wantProgressMetrics)
	}
}
