package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/gan"
	"roadtrojan/internal/physical"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/serve"
	"roadtrojan/internal/shapes"
	"roadtrojan/internal/tensor"
)

// Everything a workload sends is generated here from the -seed value,
// before any timing starts; the system under test only ever sees the
// generated requests.

// evalInput is one prepared /v1/evaluate request.
type evalInput struct {
	req  serve.EvalRequest
	body []byte
}

// randomPatch draws a fresh monochrome decal in the default attack shape.
func randomPatch(rng *rand.Rand) (string, error) {
	cfg := attack.DefaultConfig()
	r := gan.PatchRes
	p := &attack.Patch{
		Gray: tensor.NewRandU(rng, 0, 1, 1, r, r),
		Mask: shapes.Mask(cfg.Shape, r, cfg.ShapeScale(), 0),
		Cfg:  cfg,
	}
	raw, err := attack.EncodePatch(p)
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(raw), nil
}

func newEvalInput(req serve.EvalRequest) (evalInput, error) {
	body, err := json.Marshal(req)
	return evalInput{req: req, body: body}, err
}

// coldInputs prepares n evaluate requests that share nothing: each carries
// a fresh random patch and seed, cycling round-robin over the eight
// challenges in digital then physical mode, one run each.
func coldInputs(seed int64, n int) ([]evalInput, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]evalInput, n)
	for i := range out {
		patch, err := randomPatch(rng)
		if err != nil {
			return nil, err
		}
		k := i % (2 * len(scene.AllChallengeNames))
		mode := "digital"
		if k >= len(scene.AllChallengeNames) {
			mode = "physical"
		}
		out[i], err = newEvalInput(serve.EvalRequest{Patch: patch, Scene: "road",
			Challenge: scene.AllChallengeNames[k%len(scene.AllChallengeNames)],
			Mode:      mode, Runs: 1, Seed: rng.Int63n(1 << 30)})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hotKeys prepares the eval-hot working set: patches x seeds requests on
// the normal challenge, digital, one run each.
func hotKeys(seed int64, patches, seeds int) ([]evalInput, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []evalInput
	for p := 0; p < patches; p++ {
		patch, err := randomPatch(rng)
		if err != nil {
			return nil, err
		}
		for s := 0; s < seeds; s++ {
			in, err := newEvalInput(serve.EvalRequest{Patch: patch, Scene: "road", Challenge: "normal",
				Mode: "digital", Runs: 1, Seed: rng.Int63n(1 << 30)})
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// poissonSchedule draws arrival offsets of a Poisson process at rate per
// second over d, and the key each arrival requests (uniform over keys).
func poissonSchedule(seed int64, rate float64, d time.Duration, keys int) (due []time.Duration, key []int) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return due, key
		}
		due = append(due, time.Duration(t*float64(time.Second)))
		key = append(key, rng.Intn(keys))
	}
}

// tickSchedule is the two-camera rig: every period both cameras deliver a
// frame at once, so requests 2k and 2k+1 share a due time.
func tickSchedule(period, d time.Duration) []time.Duration {
	var due []time.Duration
	for t := time.Duration(0); t < d; t += period {
		due = append(due, t, t)
	}
	return due
}

// camFrame is one prepared /v1/detect request and the frame it carries.
type camFrame struct {
	img  *tensor.Tensor // [3,H,W]
	body []byte
}

// cameraFrames renders the two cameras' videos of the road scene — the
// normal approach and the angle+15 approach — once, through the capture
// channel with seeded sensor noise, and encodes each frame as a request.
func cameraFrames(seed int64, sc attack.Scene) ([2][]camFrame, error) {
	var cams [2][]camFrame
	rng := rand.New(rand.NewSource(seed))
	capture := physical.RealWorld().Capture
	for c, name := range []string{"normal", "angle+15"} {
		steps := scene.BuildTrajectory(scene.DefaultCamera(), scene.Challenges(name)[0], sc.TargetGX, sc.TargetGY, rng)
		frames, err := scene.RenderVideo(sc.Ground, steps, sc.GX0, sc.GY0, sc.GX1, sc.GY1)
		if err != nil {
			return cams, err
		}
		for _, f := range frames {
			img := capture.Apply(rng, f.Image)
			body, err := json.Marshal(serve.DetectRequest{Image: img.Data(), Height: img.Dim(1), Width: img.Dim(2)})
			if err != nil {
				return cams, err
			}
			cams[c] = append(cams[c], camFrame{img: img, body: body})
		}
		if len(cams[c]) == 0 {
			return cams, fmt.Errorf("camera %s rendered no frames", name)
		}
	}
	return cams, nil
}
