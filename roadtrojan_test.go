package roadtrojan

import (
	"context"
	"encoding/base64"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/nn"
	"roadtrojan/internal/serve"
	"roadtrojan/internal/shapes"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

// microDetector trains a deliberately tiny detector so facade paths can be
// exercised quickly; accuracy is irrelevant here.
func microDetector(t *testing.T) *Detector {
	t.Helper()
	cfg := DetectorConfig{TrainImages: 8, TestImages: 2, Epochs: 1, BatchSize: 4, LR: 1e-3, Seed: 3}
	det, ds, err := TrainDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Train) != 8 || len(ds.Test) != 2 {
		t.Fatalf("dataset split %d/%d", len(ds.Train), len(ds.Test))
	}
	return det
}

func TestFacadeTrainSaveLoadDetect(t *testing.T) {
	if testing.Short() {
		t.Skip("facade training test skipped in -short mode")
	}
	det := microDetector(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "det.rtwt")
	if err := nn.SaveStateFile(path, det.Model().State()); err != nil {
		t.Fatal(err)
	}
	det2, err := LoadDetector(path)
	if err != nil {
		t.Fatal(err)
	}

	sc := NewSimScene()
	// Render frames via the evaluation path and run the loaded detector.
	s, err := EvaluateScenario(det2, sc, nil, Car, "fix", DigitalCondition())
	if err != nil {
		t.Fatal(err)
	}
	if s.Frames == 0 {
		t.Fatal("no frames evaluated")
	}
}

func TestLoadDetectorMissingFile(t *testing.T) {
	if _, err := LoadDetector(filepath.Join(t.TempDir(), "nope.rtwt")); err == nil {
		t.Fatal("expected error")
	}
}

func TestLoadDetectorCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.rtwt")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDetector(path); err == nil {
		t.Fatal("expected error")
	}
}

func TestFacadeCraftAndEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("facade attack test skipped in -short mode")
	}
	det := microDetector(t)
	sc := NewSimScene()
	cfg := DefaultAttackConfig()
	cfg.Iters = 2
	cfg.N = 2
	p, err := CraftPatch(det, sc, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsColored() {
		t.Fatal("ours must be monochrome")
	}
	pb, err := CraftBaselinePatchTraced(det, sc, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pb.IsColored() {
		t.Fatal("baseline must be colored")
	}
	cond := PhysicalCondition()
	cond.Runs = 1
	s, err := EvaluateScenario(det, sc, p, cfg.TargetClass, "fix", cond)
	if err != nil {
		t.Fatal(err)
	}
	if s.PWC < 0 || s.PWC > 100 {
		t.Fatalf("PWC = %v", s.PWC)
	}
	dir := t.TempDir()
	if err := SavePatchPNG(filepath.Join(dir, "p.png"), p); err != nil {
		t.Fatal(err)
	}
}

func TestAllChallengesList(t *testing.T) {
	chs := AllChallenges()
	if len(chs) != 8 {
		t.Fatalf("challenges = %d", len(chs))
	}
	// Returned slice is a copy: mutating it must not affect a second call.
	chs[0] = "tampered"
	if AllChallenges()[0] == "tampered" {
		t.Fatal("AllChallenges leaked internal state")
	}
}

func TestEvaluateScenarioUnknownChallengePanics(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a detector")
	}
	det := microDetector(t)
	sc := NewSimScene()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown challenge")
		}
	}()
	_, _ = EvaluateScenario(det, sc, nil, Car, "hyperspace", DigitalCondition())
}

func TestVerifyDigitalFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a detector")
	}
	det := microDetector(t)
	sc := NewSimScene()
	cfg := DefaultAttackConfig()
	cfg.Iters = 1
	cfg.N = 2
	p, err := CraftPatch(det, sc, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	frac, err := VerifyDigital(det, sc, p)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0 || frac > 1 {
		t.Fatalf("fraction = %v", frac)
	}
}

// TestEvaluateScenarioMatchesService pins that the facade and the
// evaluation service score the same road: EvaluateScenario on
// NewRoadScene() and serve's Executor answer the same patch, challenge and
// condition seed identically.
func TestEvaluateScenarioMatchesService(t *testing.T) {
	m := yolo.New(rand.New(rand.NewSource(11)), yolo.DefaultConfig())
	exec := serve.NewExecutor(m, serve.Config{Workers: 1}, nil)
	defer exec.Close(context.Background())

	rng := rand.New(rand.NewSource(12))
	gray := tensor.New(1, 32, 32)
	for i := range gray.Data() {
		gray.Data()[i] = rng.Float64()
	}
	cfg := DefaultAttackConfig()
	p := &Patch{Gray: gray, Mask: shapes.Mask(cfg.Shape, 32, cfg.ShapeScale(), 0), Cfg: cfg}
	raw, err := attack.EncodePatch(p)
	if err != nil {
		t.Fatal(err)
	}

	const seed = 5
	cond := DigitalCondition()
	cond.Runs = 1
	cond.Seed = seed
	want, err := EvaluateScenario(&Detector{model: m}, NewRoadScene(), p, cfg.TargetClass, "fast", cond)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Evaluate(context.Background(), serve.EvalRequest{
		Patch: base64.StdEncoding.EncodeToString(raw), Scene: "road", Challenge: "fast",
		Mode: "digital", Runs: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.PWC != want.PWC || got.CWC != want.CWC || got.Frames != want.Frames ||
		got.WrongRun != want.WrongRun || got.DetectRate != want.DetectRate {
		t.Fatalf("service answered %+v, facade scored %+v", got, want)
	}
	if want.Frames == 0 {
		t.Fatal("no frames evaluated")
	}
}
