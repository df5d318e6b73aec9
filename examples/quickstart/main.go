// Quickstart: the end-to-end pipeline on a small budget — train a victim
// detector on a reduced synthetic road dataset, craft monochrome adversarial
// road decals with the GAN attack, and measure PWC/CWC on an approach video.
//
// Run with: go run ./examples/quickstart
// (Pass -weights testdata/detector.rtwt to reuse the pre-trained detector
// and skip the training step.)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"roadtrojan"
)

func main() {
	weights := flag.String("weights", "", "pre-trained detector weights (empty = train a small one now)")
	iters := flag.Int("iters", 120, "attack training iterations")
	flag.Parse()
	if err := run(*weights, *iters); err != nil {
		log.Fatal(err)
	}
}

func run(weights string, iters int) error {
	var det *roadtrojan.Detector
	if weights != "" {
		fmt.Println("loading detector from", weights)
		var err error
		det, err = roadtrojan.LoadDetector(weights)
		if err != nil {
			return err
		}
	} else {
		fmt.Println("training a small victim detector (a few minutes on one core)...")
		cfg := roadtrojan.DefaultDetectorConfig()
		cfg.TrainImages = 300
		cfg.TestImages = 30
		cfg.Epochs = 15
		cfg.Log = os.Stdout
		var err error
		det, _, err = roadtrojan.TrainDetector(cfg)
		if err != nil {
			return err
		}
	}

	// The attacked location: a road with a painted arrow (class "mark").
	sc := roadtrojan.NewRoadScene()

	// Sanity: what does the clean detector see during a slow approach?
	clean, err := roadtrojan.EvaluateScenario(det, sc, nil, roadtrojan.Car, "slow", roadtrojan.DigitalCondition())
	if err != nil {
		return err
	}
	fmt.Printf("clean scene: target detected in %.0f%% of frames, PWC(car) = %s\n",
		clean.DetectRate*100, clean.String())

	// Craft the decals: star-shaped, N=4, k=60, consecutive-frame batches.
	cfg := roadtrojan.DefaultAttackConfig()
	cfg.Iters = iters
	fmt.Printf("crafting %d %v decals of size k=%d (target class %v)...\n",
		cfg.N, cfg.Shape, cfg.K, cfg.TargetClass)
	patch, err := roadtrojan.CraftPatch(det, sc, cfg, os.Stdout)
	if err != nil {
		return err
	}
	if err := roadtrojan.SavePatchPNG("out/quickstart_patch.png", patch); err != nil {
		return err
	}

	// The paper's protocol first confirms the attack in the digital world.
	frac, err := roadtrojan.VerifyDigital(det, sc, patch)
	if err != nil {
		return err
	}
	fmt.Printf("digital verification: %.0f%% of stationary views report %v\n", frac*100, cfg.TargetClass)

	// Evaluate digitally and through the print-and-capture channel.
	for _, mode := range []struct {
		name string
		cond roadtrojan.Condition
	}{{"digital", roadtrojan.DigitalCondition()}, {"physical", roadtrojan.PhysicalCondition()}} {
		fmt.Printf("\n%s world:\n", mode.name)
		for _, ch := range []string{"fix", "slow", "fast"} {
			s, err := roadtrojan.EvaluateScenario(det, sc, patch, cfg.TargetClass, ch, mode.cond)
			if err != nil {
				return err
			}
			fmt.Printf("  %-6s PWC/CWC = %s\n", ch, s.String())
		}
	}
	fmt.Println("\npatch preview written to out/quickstart_patch.png")
	return nil
}
