package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/eval"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/yolo"
)

// attackSystem is what the attack workload sets up: the detector and the
// attacked road scene.
type attackSystem struct {
	det *yolo.Model
	cam scene.Camera
	sc  attack.Scene
}

// attackConfig is the paper's setting (GAN, W=3 consecutive frames,
// PaperBest EOT) at the run's step count. Ten steps end in one verify
// snapshot, the same snapshot density as the protocol's 40-step run
// (snapshots at 10, 20, 30 and 39), and give a window enough calls for a
// median. Every call uses the same seed.
func attackConfig(r *run) attack.Config {
	cfg := attack.DefaultConfig()
	cfg.Iters = r.size.attackIters
	cfg.Seed = r.seed
	return cfg
}

// runAttack: one caller running attack.Train back to back.
func runAttack(r *run) error {
	secs, sys, err := timeSetup(r.size.setups, func() (attackSystem, error) {
		det := newDetector()
		env := eval.NewEnv(det, 0, 1, r.seed, nil)
		return attackSystem{det: det, cam: env.Cam, sc: env.Road()}, nil
	}, func(attackSystem) {})
	if err != nil {
		return err
	}
	r.set("setup_s", secs)
	cfg := attackConfig(r)
	if _, _, err := attack.Train(sys.det, sys.cam, sys.sc, cfg, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	var patches [][]byte
	var callMs []float64
	mem := startMem()
	start := time.Now()
	for calls := 0; calls == 0 || time.Since(start) < r.window; calls++ {
		t0 := time.Now()
		p, _, err := attack.Train(sys.det, sys.cam, sys.sc, cfg, nil)
		d := time.Since(t0)
		r.attempted++
		if err != nil {
			r.fail("Train: %v", err)
			continue
		}
		callMs = append(callMs, ms(d))
		if patches, err = appendPatch(patches, p); err != nil {
			return err
		}
	}
	mem.finish(r, len(callMs)*cfg.Iters)
	r.logf("Train call times (ms): %.0f", callMs)
	if len(callMs) == 0 {
		return fmt.Errorf("no Train call succeeded")
	}
	// One caller, so the rate is the reciprocal of the per-iteration time,
	// both taken at the same percentile call.
	iterMs := quantile(sorted(callMs), latencyQuantile) / float64(cfg.Iters)
	r.set("latency_p10_ms", iterMs)
	r.set("throughput_per_s", 1000/iterMs)

	if r.traced() {
		jn := newJournal("train", true)
		var starts []int64
		var tracedMs []float64
		tStart := time.Now()
		for len(starts) == 0 || time.Since(tStart) < r.tracedWindow() {
			callStart := time.Now()
			p, _, err := attack.Train(sys.det, sys.cam, sys.sc, cfg, jn.tr)
			tracedMs = append(tracedMs, ms(time.Since(callStart)))
			starts = append(starts, callStart.UnixNano())
			r.attempted++
			if err != nil {
				r.fail("traced Train: %v", err)
			} else if patches, err = appendPatch(patches, p); err != nil {
				return err
			}
		}
		recs, err := writeJournals(r.outDir, r.workload, []*journal{jn})
		if err != nil {
			return err
		}
		iterP50, err := setAttackLayers(r, recs[0].Records, starts)
		if err != nil {
			return err
		}
		r.set("obs.trace_overhead_ratio", median(tracedMs)/median(callMs)-1)
		if err := replay(r); err != nil {
			return err
		}
		r.set("attack.coverage", ratio(replayedIterMs(r.vals), iterP50))
	}
	checkPatches(r, patches)
	return nil
}

// appendPatch adds p's EncodePatch bytes to the list.
func appendPatch(list [][]byte, p *attack.Patch) ([][]byte, error) {
	b, err := attack.EncodePatch(p)
	return append(list, b), err
}

// checkPatches requires every call's patch to be byte-identical (they all
// ran with the same seed) and logs its sha256.
func checkPatches(r *run, patches [][]byte) {
	for i, p := range patches {
		if !bytes.Equal(p, patches[0]) {
			r.fail("Train call %d returned a different patch than call 0 with the same seed", i)
		}
	}
	if len(patches) > 0 {
		r.logf("patch sha256 %x (%d identical calls)", sha256.Sum256(patches[0]), len(patches))
	}
}

// setAttackLayers reads the wall-clock ticks of the records Train emits,
// one traced call per "train#k" span started at starts[k] (UnixNano), and
// records the per-iteration time, the verify snapshot time and the pool
// building time. It returns the median time of an iteration without a
// snapshot, the base attack.coverage divides by.
func setAttackLayers(r *run, recs []obs.JournalRecord, starts []int64) (float64, error) {
	type call struct {
		start    int64
		iters    []int64         // iter record ticks in order
		verifyAt map[int64]int64 // iteration -> verify record tick
		iterOf   []int64         // iteration index of each iter record
	}
	calls := map[string]*call{}
	dSteps, iterCount := 0, 0
	for _, rec := range recs {
		root, _, _ := strings.Cut(rec.Span, "/")
		c := calls[root]
		if c == nil {
			c = &call{verifyAt: map[int64]int64{}}
			calls[root] = c
		}
		switch rec.Kind {
		case "span_start":
			if rec.Str("name") == "train" {
				c.start = rec.Tick
			}
		case "iter":
			c.iters = append(c.iters, rec.Tick)
			c.iterOf = append(c.iterOf, rec.Int("it"))
			iterCount++
		case "verify":
			c.verifyAt[rec.Int("it")] = rec.Tick
		case "gan_d":
			dSteps++
		}
	}
	var plain, verifyGap, verify, pools []float64
	for k, start := range starts {
		c := calls[fmt.Sprintf("train#%d", k)]
		if c == nil || c.start == 0 || len(c.iters) < 2 {
			return 0, fmt.Errorf("attack trace: call %d has no train span or too few iterations", k)
		}
		pools = append(pools, float64(c.start-start)/1e6)
		for i := 1; i < len(c.iters); i++ {
			d := float64(c.iters[i]-c.iters[i-1]) / 1e6
			if v, ok := c.verifyAt[c.iterOf[i]]; ok && v < c.iters[i] {
				verifyGap = append(verifyGap, d) // a snapshot ran inside this iteration
				continue
			}
			plain = append(plain, d)
		}
		last := len(c.iters) - 1
		if v, ok := c.verifyAt[c.iterOf[last]]; ok && v > c.iters[last] {
			verify = append(verify, float64(v-c.iters[last])/1e6) // the final snapshot, timed exactly
		}
	}
	iterP50 := median(plain)
	for _, d := range verifyGap {
		verify = append(verify, d-iterP50)
	}
	r.set("attack.iter_ms_p50", iterP50)
	r.set("attack.verify_ms", median(verify))
	r.set("attack.pools_ms", median(pools))
	r.set("attack.d_step_share", ratio(float64(dSteps), float64(iterCount)))
	return iterP50, nil
}
