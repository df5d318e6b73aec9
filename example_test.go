package roadtrojan_test

import (
	"fmt"
	"log"
	"os"

	"roadtrojan"
)

// The typical flow: train the victim detector, craft a decal patch against
// it on the simulated scene, and score the patch on one approach challenge.
// Training at the default budget takes minutes, so the example is compiled
// but not run.
func Example() {
	det, _, err := roadtrojan.TrainDetector(roadtrojan.DefaultDetectorConfig())
	if err != nil {
		log.Fatal(err)
	}
	sc := roadtrojan.NewSimScene()
	patch, err := roadtrojan.CraftPatch(det, sc, roadtrojan.DefaultAttackConfig(), os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	score, err := roadtrojan.EvaluateScenario(det, sc, patch, roadtrojan.Car, "slow", roadtrojan.DigitalCondition())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(score)
}
