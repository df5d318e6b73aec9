// Defense explores the countermeasure the paper's risk discussion implies:
// since the attack must hold the wrong class for 3 *consecutive* frames to
// make an AV react, a temporal majority-vote filter with random input
// jitter raises the bar. This example crafts decals, then scores the same
// approach video with and without the defense and reports how PWC/CWC
// change (an extension beyond the paper's evaluation).
//
// Run with: go run ./examples/defense -weights testdata/detector.rtwt
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"roadtrojan"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/defense"
	"roadtrojan/internal/metrics"
	"roadtrojan/internal/physical"
	"roadtrojan/internal/scene"
)

func main() {
	var (
		weights = flag.String("weights", "testdata/detector.rtwt", "detector weights")
		iters   = flag.Int("iters", 150, "attack training iterations")
		votes   = flag.Int("votes", 5, "defense voting window")
	)
	flag.Parse()
	if err := run(*weights, *iters, *votes); err != nil {
		log.Fatal(err)
	}
}

func run(weights string, iters, window int) error {
	det, err := roadtrojan.LoadDetector(weights)
	if err != nil {
		return fmt.Errorf("load detector (train one with cmd/trainyolo first): %w", err)
	}
	sc := roadtrojan.NewRoadScene()

	cfg := roadtrojan.DefaultAttackConfig()
	cfg.Iters = iters
	fmt.Println("crafting decals...")
	patch, err := roadtrojan.CraftPatch(det, sc, cfg, nil)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(99))
	ch := physical.RealWorld()
	ground, err := attack.Deploy(sc, patch, ch, rng)
	if err != nil {
		return err
	}
	cam := scene.DefaultCamera()

	dcfg := defense.DefaultConfig()
	dcfg.Window = window
	dcfg.Agreement = (2*window + 2) / 3
	filter := defense.NewFilter(det.Model(), dcfg)
	for _, chName := range []string{"slow", "normal"} {
		steps := scene.BuildTrajectory(cam, scene.Challenges(chName)[0], sc.TargetGX, sc.TargetGY, rng)
		frames, err := scene.RenderVideo(ground, steps, sc.GX0, sc.GY0, sc.GX1, sc.GY1)
		if err != nil {
			return err
		}
		raw, defended := filter.Classify(frames, ch, rng)
		sP := metrics.Evaluate(raw, cfg.TargetClass)
		sD := metrics.Evaluate(defended, cfg.TargetClass)
		fmt.Printf("%-7s undefended: %-10s defended (vote %d-of-%d + jitter): %s\n",
			chName, sP.String(), dcfg.Agreement, dcfg.Window, sD.String())
	}
	return nil
}
