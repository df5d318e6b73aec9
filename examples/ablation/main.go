// Ablation sweeps one attack hyperparameter the way Sec. IV-C does —
// the decal shape (Table V), the count N (Table III), or the size k
// (Table VI) — and prints PWC/CWC for the speed challenges.
//
// Run with: go run ./examples/ablation -weights testdata/detector.rtwt -sweep shape
package main

import (
	"flag"
	"fmt"
	"log"

	"roadtrojan"

	"roadtrojan/internal/attack"
)

func main() {
	var (
		weights = flag.String("weights", "testdata/detector.rtwt", "detector weights")
		sweep   = flag.String("sweep", "shape", "shape | n | k")
		iters   = flag.Int("iters", 150, "attack training iterations")
	)
	flag.Parse()
	if err := run(*weights, *sweep, *iters); err != nil {
		log.Fatal(err)
	}
}

func run(weights, sweep string, iters int) error {
	det, err := roadtrojan.LoadDetector(weights)
	if err != nil {
		return fmt.Errorf("load detector (train one with cmd/trainyolo first): %w", err)
	}
	sc := roadtrojan.NewRoadScene()
	cond := roadtrojan.PhysicalCondition()
	cond.Runs = 2
	challenges := []string{"slow", "normal", "fast"}

	type variant struct {
		name string
		cfg  roadtrojan.AttackConfig
	}
	var variants []variant
	base := roadtrojan.DefaultAttackConfig()
	base.Iters = iters
	switch sweep {
	case "shape":
		for _, sh := range []roadtrojan.Shape{roadtrojan.Triangle, roadtrojan.Circle, roadtrojan.Star, roadtrojan.Square} {
			cfg := base
			cfg.Shape = sh
			variants = append(variants, variant{sh.String(), cfg})
		}
	case "n":
		for _, n := range []int{2, 4, 6, 8} {
			cfg := base
			cfg.N = n
			cfg.K = attack.KForEqualTotalArea(60, 4, n) // constant total area
			variants = append(variants, variant{fmt.Sprintf("N=%d (k=%d)", n, cfg.K), cfg})
		}
	case "k":
		for _, k := range []int{20, 40, 60, 80} {
			cfg := base
			cfg.K = k
			variants = append(variants, variant{fmt.Sprintf("k=%d", k), cfg})
		}
	default:
		return fmt.Errorf("unknown sweep %q (shape | n | k)", sweep)
	}

	fmt.Printf("%-16s", sweep)
	for _, ch := range challenges {
		fmt.Printf("%12s", ch)
	}
	fmt.Println()
	for _, v := range variants {
		patch, err := roadtrojan.CraftPatch(det, sc, v.cfg, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s", v.name)
		for _, ch := range challenges {
			s, err := roadtrojan.EvaluateScenario(det, sc, patch, v.cfg.TargetClass, ch, cond)
			if err != nil {
				return err
			}
			fmt.Printf("%12s", s.String())
		}
		fmt.Println()
	}
	return nil
}
