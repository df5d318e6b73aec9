package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/eval"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/serve"
	"roadtrojan/internal/yolo"
)

// hotRate is eval-hot's open-loop arrival rate, and hotLimit the latency
// its goodput counts against.
const (
	hotRate  = 300
	hotLimit = 20 * time.Millisecond
)

// coldClients is eval-cold's closed-loop client count: two per node, so
// each node's worker has the next job queued while it runs one. With one per
// node, a worker sat idle whenever both requests hashed to the other node,
// and ten seeds spread by 17-21% in median latency on routing luck alone.
const coldClients = 4

// memWindow brackets the untraced window with runtime.MemStats to report
// allocation and GC work per operation, and reads the peak RSS as the window
// ends, before the output checks allocate.
type memWindow struct{ before runtime.MemStats }

func startMem() *memWindow {
	m := &memWindow{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memWindow) finish(r *run, ops int) {
	r.set("max_rss_mb", maxRSSMiB())
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.set("runtime.alloc_mb_per_op", ratio(float64(after.TotalAlloc-m.before.TotalAlloc)/(1<<20), float64(ops)))
	r.set("runtime.gc_per_op", ratio(float64(after.NumGC-m.before.NumGC), float64(ops)))
}

// setupFleet builds the untraced fleet r.size.setups times and reports the
// median set-up time: a detector plus a gateway and two nodes that answer
// /healthz.
func setupFleet(r *run) (*fleet, error) {
	secs, f, err := timeSetup(r.size.setups, func() (*fleet, error) { return startFleet(newDetector(), false) }, (*fleet).close)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", secs)
	return f, nil
}

// setEndToEnd records a request workload's end-to-end metrics.
func setEndToEnd(r *run, st loadStats) {
	r.set("throughput_per_s", st.throughput())
	r.set("latency_p10_ms", quantile(st.latMs, latencyQuantile))
}

// runEvalCold: closed-loop clients, every request a fresh patch.
func runEvalCold(r *run) error {
	// Prepared bodies: well above what the clients can use at the rates
	// this host reaches (about 12 req/s), because reuse would hit the cache.
	inputs, err := coldInputs(r.seed, int(25*(r.window+r.tracedWindow()).Seconds())+32)
	if err != nil {
		return err
	}
	f, err := setupFleet(r)
	if err != nil {
		return err
	}
	client := newClient(coldClients)
	body := func(i int) []byte { return inputs[i].body }
	url := f.url + "/v1/evaluate"

	mem := startMem()
	before, err := f.snapshot()
	if err != nil {
		f.close()
		return err
	}
	samples, elapsed, loopErr := closedLoop(client, url, coldClients, len(inputs), body, r.window)
	after, err := f.snapshot()
	f.close()
	if loopErr != nil {
		return loopErr
	}
	if err != nil {
		return err
	}
	st := summarize(r, samples, elapsed)
	mem.finish(r, len(samples))
	setEndToEnd(r, st)
	if err := checkEval(r, samples, func(idx int) serve.EvalRequest { return inputs[idx].req }); err != nil {
		return err
	}
	if !r.traced() {
		return nil
	}
	st.setClient(r, 0, false)
	setFleetLayers(r, f, before, after, st)

	// The traced window continues through the unused bodies.
	tf, err := startFleet(newDetector(), true)
	if err != nil {
		return err
	}
	used := len(samples)
	from := time.Now()
	traced, tElapsed, loopErr := closedLoop(client, tf.url+"/v1/evaluate", coldClients, len(inputs)-used,
		func(i int) []byte { return inputs[used+i].body }, r.tracedWindow())
	tf.close()
	if loopErr != nil {
		return loopErr
	}
	if err := finishTraced(r, tf.journals, from, summarize(r, traced, tElapsed), st); err != nil {
		return err
	}
	return replay(r)
}

// runEvalHot: an open-loop Poisson stream over 16 keys the fleet has already
// evaluated, so every request is a front-door cache hit.
func runEvalHot(r *run) error {
	keys, err := hotKeys(r.seed, r.size.hotPatches, r.size.hotSeeds)
	if err != nil {
		return err
	}
	due, pick := poissonSchedule(r.seed, hotRate, r.window, len(keys))
	body := func(i int) []byte { return keys[pick[i]].body }
	f, err := setupFleet(r)
	if err != nil {
		return err
	}
	client := newClient(openSenders)
	url := f.url + "/v1/evaluate"
	if err := prime(r, client, url, keys); err != nil {
		f.close()
		return err
	}

	mem := startMem()
	before, err := f.snapshot()
	if err != nil {
		f.close()
		return err
	}
	samples, elapsed := openLoop(client, url, due, body)
	after, err := f.snapshot()
	f.close()
	if err != nil {
		return err
	}
	st := summarize(r, samples, elapsed)
	mem.finish(r, len(samples))
	setEndToEnd(r, st)
	if err := checkEval(r, samples, func(idx int) serve.EvalRequest { return keys[pick[idx]].req }); err != nil {
		return err
	}
	if !r.traced() {
		return nil
	}
	st.setClient(r, hotLimit, true)
	setFleetLayers(r, f, before, after, st)

	tf, err := startFleet(newDetector(), true)
	if err != nil {
		return err
	}
	if err := prime(r, client, tf.url+"/v1/evaluate", keys); err != nil {
		tf.close()
		return err
	}
	tDue, tPick := poissonSchedule(r.seed, hotRate, r.tracedWindow(), len(keys))
	from := time.Now()
	traced, tElapsed := openLoop(client, tf.url+"/v1/evaluate", tDue, func(i int) []byte { return keys[tPick[i]].body })
	tf.close()
	if err := finishTraced(r, tf.journals, from, summarize(r, traced, tElapsed), st); err != nil {
		return err
	}
	return replay(r)
}

// prime evaluates every key once, untimed, so the window only sees hits.
func prime(r *run, client *http.Client, url string, keys []evalInput) error {
	for i, k := range keys {
		r.attempted++
		status, _, err := post(client, url, k.body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("priming key %d: status %d, error %v", i, status, err)
		}
	}
	return nil
}

// finishTraced records what a traced window that began at from adds: span
// attribution, and the tracing overhead as the traced median latency over the untraced one.
func finishTraced(r *run, journals []*journal, from time.Time, traced, untraced loadStats) error {
	recs, err := writeJournals(r.outDir, r.workload, journals)
	if err != nil {
		return err
	}
	if err := setTraceLayers(r, recs, from.UnixNano()); err != nil {
		return err
	}
	r.set("obs.trace_overhead_ratio", ratio(quantile(traced.latMs, 0.5), quantile(untraced.latMs, 0.5))-1)
	return nil
}

// evalReply is the part of an /v1/evaluate response the checks compare.
type evalReply struct {
	PWC    float64        `json:"pwc"`
	CWC    bool           `json:"cwc"`
	Frames int            `json:"frames"`
	Runs   [][]frameReply `json:"runs"`
}

// frameReply is one frame's verdict in an evaluate response.
type frameReply struct {
	Detected   bool    `json:"detected"`
	Class      int     `json:"class"`
	Confidence float64 `json:"confidence"`
}

// sameBits reports whether two floats are the same value bit for bit: the
// service promises byte-identical results, not approximately equal ones.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compareReply reports the first difference between two replies.
func compareReply(g, w evalReply) error {
	if !sameBits(g.PWC, w.PWC) || g.CWC != w.CWC || g.Frames != w.Frames || len(g.Runs) != len(w.Runs) {
		return fmt.Errorf("score differs: got pwc=%v cwc=%v frames=%d runs=%d, want pwc=%v cwc=%v frames=%d runs=%d",
			g.PWC, g.CWC, g.Frames, len(g.Runs), w.PWC, w.CWC, w.Frames, len(w.Runs))
	}
	for i := range g.Runs {
		if len(g.Runs[i]) != len(w.Runs[i]) {
			return fmt.Errorf("run %d has %d frames, want %d", i, len(g.Runs[i]), len(w.Runs[i]))
		}
		for j, fg := range g.Runs[i] {
			fw := w.Runs[i][j]
			if fg.Detected != fw.Detected || fg.Class != fw.Class || !sameBits(fg.Confidence, fw.Confidence) {
				return fmt.Errorf("run %d frame %d differs", i, j)
			}
		}
	}
	return nil
}

// checkEval recomputes the window's first r.size.checks responses in
// process with eval.RunJob on a fresh detector and compares them with what
// the fleet answered. Each distinct request is recomputed once.
func checkEval(r *run, samples []sample, reqOf func(idx int) serve.EvalRequest) error {
	det := newDetector()
	det.SetTraining(false)
	road := eval.NewEnv(det, 0, 1, r.seed, nil).Road()
	local := map[serve.EvalRequest]evalReply{}
	for _, s := range samples {
		if !s.ok() || s.idx >= r.size.checks {
			continue
		}
		req := reqOf(s.idx)
		want, done := local[req]
		if !done {
			var err error
			if want, err = localEval(det, road, req); err != nil {
				return err
			}
			local[req] = want
		}
		var got evalReply
		if err := json.Unmarshal(s.body, &got); err != nil {
			r.fail("request %d: %v", s.idx, err)
			continue
		}
		if err := compareReply(got, want); err != nil {
			r.fail("request %d: %v", s.idx, err)
		}
	}
	return nil
}

// localEval runs one request through eval.RunJob the way a node would and
// renders the reply the service would send.
func localEval(det *yolo.Model, road attack.Scene, req serve.EvalRequest) (evalReply, error) {
	raw, err := base64.StdEncoding.DecodeString(req.Patch)
	if err != nil {
		return evalReply{}, err
	}
	p, err := attack.DecodePatch(raw)
	if err != nil {
		return evalReply{}, err
	}
	cond := eval.DefaultCondition()
	if req.Mode == "digital" {
		cond = eval.Digital()
	}
	cond.Runs, cond.Seed = req.Runs, req.Seed
	d, err := eval.RunJob(eval.Job{Det: det, Cam: scene.DefaultCamera(), Scene: road, Patch: p,
		Target: p.Cfg.TargetClass, Ch: scene.Challenges(req.Challenge)[0], Cond: cond})
	if err != nil {
		return evalReply{}, err
	}
	rep := evalReply{PWC: d.Score.PWC, CWC: d.Score.CWC, Frames: d.Score.Frames, Runs: make([][]frameReply, len(d.Runs))}
	for i, run := range d.Runs {
		for _, fr := range run {
			f := frameReply{Detected: fr.Detected}
			if fr.Detected {
				f.Class, f.Confidence = int(fr.Class), fr.Confidence
			}
			rep.Runs[i] = append(rep.Runs[i], f)
		}
	}
	return rep, nil
}
