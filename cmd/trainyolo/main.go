// Command trainyolo generates the synthetic road dataset, trains the victim
// YOLOv3-tiny-style detector from scratch, reports its accuracy (recall,
// class accuracy and false positives on train and test, plus test mAP@0.5),
// and saves the weights for the attack experiments.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"roadtrojan/internal/nn"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/yolo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "trainyolo:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out      = flag.String("out", "testdata/detector.rtwt", "weights output path")
		epochs   = flag.Int("epochs", 30, "training epochs")
		numTrain = flag.Int("train", 1000, "training images (paper: 1000)")
		numTest  = flag.Int("test", 71, "test images (paper: 71)")
		batch    = flag.Int("batch", 16, "batch size")
		lr       = flag.Float64("lr", 1e-3, "learning rate")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	fmt.Printf("generating dataset: %d train / %d test images\n", *numTrain, *numTest)
	ds := scene.GenerateDataset(scene.DatasetConfig{
		Cam: scene.DefaultCamera(), NumTrain: *numTrain, NumTest: *numTest, Seed: *seed,
	})

	rng := rand.New(rand.NewSource(*seed + 1))
	model := yolo.New(rng, yolo.DefaultConfig())
	fmt.Printf("detector parameters: %d\n", nn.CountParams(model.Params()))

	cfg := yolo.TrainConfig{
		Epochs: *epochs, BatchSize: *batch, LR: *lr, Seed: *seed + 2,
		Weights: yolo.DefaultLossWeights(), Log: os.Stdout,
	}
	if _, err := yolo.Train(model, ds, cfg); err != nil {
		return err
	}

	train := yolo.Evaluate(model, ds.Train[:min(len(ds.Train), 100)], yolo.DefaultDecode())
	test := yolo.Evaluate(model, ds.Test, yolo.DefaultDecode())
	fmt.Printf("train(100): recall %.3f class-acc %.3f fp %d\n", train.Recall(), train.ClassAccuracy(), train.FalsePositives)
	fmt.Printf("test:       recall %.3f class-acc %.3f fp %d (objects %d)\n", test.Recall(), test.ClassAccuracy(), test.FalsePositives, test.Objects)
	_, mAP := yolo.MeanAP(model, ds.Test, yolo.DefaultDecode(), 0.5)
	fmt.Printf("test:       mAP@0.5 %.3f\n", mAP)

	if err := nn.SaveStateFile(*out, model.State()); err != nil {
		return err
	}
	fmt.Printf("saved weights to %s\n", *out)
	return nil
}
