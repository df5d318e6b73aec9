package attack

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"roadtrojan/internal/eot"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/yolo"
)

// TestForwardFramesWorkerCountInvariant runs forwardFrames from one seed at
// GOMAXPROCS 1 and 4, so the frames render and backpropagate serially in
// one run and concurrently in the other. The loss, the target probability
// and the texture gradient must agree bit for bit, and both journals must
// hold the window's EOT draws, identical bytes, in frame order.
func TestForwardFramesWorkerCountInvariant(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	det := yolo.New(rand.New(rand.NewSource(5)), yolo.DefaultConfig())
	sc := testScene()
	pools := buildPools(scene.DefaultCamera(), sc, rand.New(rand.NewSource(1)))
	sampler := eot.NewSampler(eot.AllTricks())
	cfg := DefaultConfig()

	type result struct {
		loss, prob float64
		dTex       []float64
		journal    []byte
	}
	for _, w := range []int{3, 4} {
		// The middle of the longest approach: a moving camera, and motion
		// blur where the trajectory has it.
		traj := pools.dynamic[0]
		for _, d := range pools.dynamic {
			if len(d) > len(traj) {
				traj = d
			}
		}
		if len(traj) < w {
			t.Fatalf("longest trajectory has %d steps, want at least %d", len(traj), w)
		}
		window := traj[(len(traj)-w)/2:][:w]
		run := func(procs int) result {
			runtime.GOMAXPROCS(procs)
			var buf bytes.Buffer
			j := obs.NewJournal(&buf)
			sp := obs.New(j, obs.NewLogicalClock()).Span("iter")
			loss, dTex, prob, err := forwardFrames(det, sc.Ground, sc.Ground.Tex, window, sampler,
				rand.New(rand.NewSource(9)), sc, cfg.TargetClass, sp, 0)
			if err != nil {
				t.Fatal(err)
			}
			sp.End()
			if err := j.Flush(); err != nil {
				t.Fatal(err)
			}
			return result{loss, prob, dTex.Data(), buf.Bytes()}
		}
		serial, parallel := run(1), run(4)

		if math.Float64bits(serial.loss) != math.Float64bits(parallel.loss) {
			t.Errorf("W=%d loss %v at GOMAXPROCS 1, %v at 4", w, serial.loss, parallel.loss)
		}
		if math.Float64bits(serial.prob) != math.Float64bits(parallel.prob) {
			t.Errorf("W=%d target probability %v at GOMAXPROCS 1, %v at 4", w, serial.prob, parallel.prob)
		}
		for i := range serial.dTex {
			if math.Float64bits(serial.dTex[i]) != math.Float64bits(parallel.dTex[i]) {
				t.Fatalf("W=%d dTex[%d] = %v at GOMAXPROCS 1, %v at 4", w, i, serial.dTex[i], parallel.dTex[i])
			}
		}
		if !bytes.Equal(serial.journal, parallel.journal) {
			t.Errorf("W=%d journal differs between GOMAXPROCS 1 and 4:\n%s\nvs\n%s", w, serial.journal, parallel.journal)
		}
		recs, err := obs.ReadJournal(bytes.NewReader(parallel.journal))
		if err != nil {
			t.Fatal(err)
		}
		var frames []int
		for _, r := range recs {
			if r.Kind == "eot" {
				frames = append(frames, int(r.Float("frame")))
			}
		}
		if len(frames) != w {
			t.Fatalf("W=%d: %d eot records, want %d", w, len(frames), w)
		}
		for i, f := range frames {
			if f != i {
				t.Fatalf("W=%d: eot records in frame order %v, want 0..%d", w, frames, w-1)
			}
		}
	}
}
