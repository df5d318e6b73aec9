// Parkinglot reproduces the paper's real-world scenario (Sec. IV-B,
// Table I): an underground-parking-style drive toward an arrow marking with
// N=6 star decals, comparing our consecutive-frame attack against the
// static ablation and the colored baseline [34] under the full
// print-and-capture channel — including the rotation / speed / angle
// challenges.
//
// Run with: go run ./examples/parkinglot -weights testdata/detector.rtwt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"roadtrojan"
)

func main() {
	weights := flag.String("weights", "testdata/detector.rtwt", "detector weights")
	iters := flag.Int("iters", 200, "attack training iterations")
	flag.Parse()
	if err := run(*weights, *iters); err != nil {
		log.Fatal(err)
	}
}

func run(weights string, iters int) error {
	det, err := roadtrojan.LoadDetector(weights)
	if err != nil {
		return fmt.Errorf("load detector (train one with cmd/trainyolo first): %w", err)
	}
	sc := roadtrojan.NewRoadScene()
	cond := roadtrojan.PhysicalCondition()
	challenges := []string{"fix", "slight", "slow", "normal", "fast", "angle-15", "angle0", "angle+15"}

	cfg := roadtrojan.DefaultAttackConfig()
	cfg.N = 6 // the paper's real-world setting
	cfg.Iters = iters

	fmt.Println("crafting: ours (w/ 3 consecutive frames)...")
	pOurs, err := roadtrojan.CraftPatch(det, sc, cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("crafting: ours (w/o 3 consecutive frames)...")
	cfgStatic := cfg
	cfgStatic.Consecutive = false
	pStatic, err := roadtrojan.CraftPatch(det, sc, cfgStatic, nil)
	if err != nil {
		return err
	}
	fmt.Println("crafting: baseline [34] (colored EOT patch)...")
	pBase, err := roadtrojan.CraftBaselinePatch(det, sc, cfg, nil)
	if err != nil {
		return err
	}

	rows := []struct {
		name  string
		patch *roadtrojan.Patch
	}{
		{"w/o Attack", nil},
		{"Ours (w/ 3 consecutive frames)", pOurs},
		{"Ours (w/o 3 consecutive frames)", pStatic},
		{"[34]", pBase},
	}
	fmt.Printf("\n%-34s", "method")
	for _, ch := range challenges {
		fmt.Printf("%12s", ch)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-34s", r.name)
		for _, ch := range challenges {
			s, err := roadtrojan.EvaluateScenario(det, sc, r.patch, cfg.TargetClass, ch, cond)
			if err != nil {
				return err
			}
			fmt.Printf("%12s", s.String())
		}
		fmt.Println()
	}
	if err := roadtrojan.SavePatchPNG("out/parkinglot_ours.png", pOurs); err != nil {
		return err
	}
	fmt.Fprintln(os.Stdout, "\nour decal preview: out/parkinglot_ours.png")
	return nil
}
