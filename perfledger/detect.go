package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"roadtrojan/internal/eval"
	"roadtrojan/internal/serve"
	"roadtrojan/internal/yolo"
)

// framePeriod is one camera's frame interval (20 fps); detectLimit, the
// latency detect-2cam's goodput counts against, is one frame period.
const (
	framePeriod = 50 * time.Millisecond
	detectLimit = framePeriod
)

// detectServer is node 0's HTTP front end: a serve.Server with the node
// serving shape on a loopback listener.
type detectServer struct {
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	url      string
	journals []*journal
}

func startDetect(det *yolo.Model, traced bool) (*detectServer, error) {
	jn := newJournal("n0", traced)
	d := &detectServer{srv: serve.New(det, nodeConfig(nil, jn.trace())), served: make(chan error, 1)}
	if jn != nil {
		d.journals = []*journal{jn}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.srv.Shutdown(context.Background())
		return nil, err
	}
	d.url = "http://" + l.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(l) }()
	if err := waitHealthy(d.url, func([]byte) bool { return true }); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close drains the server and its executor and waits for Serve to return.
func (d *detectServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx)
	<-d.served
	_ = d.srv.Shutdown(ctx)
}

// runDetect: a synchronised two-camera rig; each tick both frames arrive
// at node 0's /v1/detect together. Its latency_p10_ms is taken over ticks
// of the pair's completion time.
func runDetect(r *run) error {
	cams, err := cameraFrames(r.seed, eval.NewEnv(nil, 0, 1, r.seed, nil).Road())
	if err != nil {
		return err
	}
	// The seed also picks where in each camera's video the window starts.
	rng := rand.New(rand.NewSource(r.seed))
	phase := [2]int{rng.Intn(len(cams[0])), rng.Intn(len(cams[1]))}
	frameOf := func(i int) camFrame {
		c := i % 2
		return cams[c][(i/2+phase[c])%len(cams[c])]
	}
	body := func(i int) []byte { return frameOf(i).body }

	secs, d, err := timeSetup(r.size.setups, func() (*detectServer, error) { return startDetect(newDetector(), false) },
		(*detectServer).close)
	if err != nil {
		return err
	}
	r.set("setup_s", secs)
	client := newClient(openSenders)
	exec := []*serve.Executor{d.srv.Executor()}

	mem := startMem()
	before, err := execSnapshot(exec)
	if err != nil {
		d.close()
		return err
	}
	samples, elapsed := openLoop(client, d.url+"/v1/detect", tickSchedule(framePeriod, r.window), body)
	after, err := execSnapshot(exec)
	d.close()
	if err != nil {
		return err
	}
	st := summarize(r, samples, elapsed)
	mem.finish(r, len(samples))
	setEndToEnd(r, st)
	r.set("latency_p10_ms", quantile(pairLatencies(samples), latencyQuantile))
	checkDetect(r, samples, frameOf)
	if !r.traced() {
		return nil
	}
	st.setClient(r, detectLimit, true)
	setServeLayers(r, before, after, st.ok, mean(st.latMs), "serve.http_overhead_ms")

	td, err := startDetect(newDetector(), true)
	if err != nil {
		return err
	}
	from := time.Now()
	traced, tElapsed := openLoop(client, td.url+"/v1/detect", tickSchedule(framePeriod, r.tracedWindow()), body)
	td.close()
	if err := finishTraced(r, td.journals, from, summarize(r, traced, tElapsed), st); err != nil {
		return err
	}
	return replay(r)
}

// pairLatencies returns, per tick whose two frames both succeeded, the later
// of the two latencies: how long the rig waits for both cameras' detections.
// It is steadier than the per-frame median, which flips between the first
// and second frame of a pair that did not share a batch.
func pairLatencies(samples []sample) []float64 {
	worst := map[int]time.Duration{}
	done := map[int]int{}
	for _, s := range samples {
		if s.ok() {
			done[s.idx/2]++
			worst[s.idx/2] = max(worst[s.idx/2], s.latency)
		}
	}
	var out []float64
	for tick, d := range worst {
		if done[tick] == 2 {
			out = append(out, ms(d))
		}
	}
	return sorted(out)
}

// detectReply is a /v1/detect response.
type detectReply struct {
	Detections []struct {
		Class      int     `json:"class"`
		Confidence float64 `json:"confidence"`
		Box        struct {
			CX float64 `json:"cx"`
			CY float64 `json:"cy"`
			W  float64 `json:"w"`
			H  float64 `json:"h"`
		} `json:"box"`
	} `json:"detections"`
}

// checkDetect compares the window's first r.size.checks responses with an
// in-process forward and decode of the same frame.
func checkDetect(r *run, samples []sample, frameOf func(i int) camFrame) {
	det := newDetector()
	det.SetTraining(false)
	for _, s := range samples {
		if !s.ok() || s.idx >= r.size.checks {
			continue
		}
		img := frameOf(s.idx).img
		heads := det.Forward(img.Reshape(1, 3, img.Dim(1), img.Dim(2)))
		want := det.DecodeSample(heads, 0, yolo.DefaultDecode())
		var got detectReply
		if err := json.Unmarshal(s.body, &got); err != nil {
			r.fail("request %d: %v", s.idx, err)
			continue
		}
		if err := compareDetections(got, want); err != nil {
			r.fail("request %d: %v", s.idx, err)
		}
	}
}

func compareDetections(got detectReply, want []yolo.Detection) error {
	if len(got.Detections) != len(want) {
		return fmt.Errorf("%d detections, want %d", len(got.Detections), len(want))
	}
	for i, g := range got.Detections {
		w := want[i]
		if g.Class != int(w.Class) || !sameBits(g.Confidence, w.Confidence) ||
			!sameBits(g.Box.CX, w.Box.CX) || !sameBits(g.Box.CY, w.Box.CY) ||
			!sameBits(g.Box.W, w.Box.W) || !sameBits(g.Box.H, w.Box.H) {
			return fmt.Errorf("detection %d differs", i)
		}
	}
	return nil
}
