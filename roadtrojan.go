// Package roadtrojan reproduces "Road Decals as Trojans: Disrupting
// Autonomous Vehicle Navigation with Adversarial Patterns" (DSN 2024) as a
// pure-Go system: a YOLOv3-tiny-style victim detector trained on a
// synthetic road dataset, a GAN that crafts monochrome shape-constrained
// adversarial road decals hardened with EOT and consecutive-frame batches,
// a print-and-capture physical channel, and the PWC/CWC evaluation protocol
// over rotation / speed / angle challenges.
//
// This root package is the public API; the implementation lives under
// internal/. The package example shows the typical flow: train the
// detector, craft a patch, score one challenge.
package roadtrojan

import (
	"fmt"
	"io"
	"math/rand"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/eval"
	"roadtrojan/internal/imaging"
	"roadtrojan/internal/metrics"
	"roadtrojan/internal/nn"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/yolo"
)

// Re-exported core types. Aliases keep the internal packages private while
// giving users real access to the data types they receive.
type (
	// Class is one of the five detector labels.
	Class = scene.Class
	// Score bundles PWC and CWC for one evaluation.
	Score = metrics.Score
	// AttackConfig parameterizes decal crafting (N, k, shape, α, EOT, …).
	AttackConfig = attack.Config
	// Patch is a trained decal artifact.
	Patch = attack.Patch
	// Scene is an attacked road location.
	Scene = attack.Scene
	// Condition fixes the evaluation environment (digital vs physical).
	Condition = eval.Condition
)

// Car is the target class of the paper's attacks.
const Car = scene.Car

// Detector wraps the victim YOLOv3-tiny-style model.
type Detector struct {
	model *yolo.Model
}

// Model exposes the underlying detector to the cmd/bench layer.
func (d *Detector) Model() *yolo.Model { return d.model }

// DetectorConfig controls detector training.
type DetectorConfig struct {
	TrainImages int
	TestImages  int
	Epochs      int
	BatchSize   int
	LR          float64
	Seed        int64
	Log         io.Writer
}

// DefaultDetectorConfig mirrors the paper's dataset split (1000/71).
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{TrainImages: 1000, TestImages: 71, Epochs: 35, BatchSize: 16, LR: 1e-3, Seed: 1}
}

// TrainDetector generates the synthetic dataset and trains the victim from
// scratch. It returns the detector and the dataset (for accuracy checks).
func TrainDetector(cfg DetectorConfig) (*Detector, *scene.Dataset, error) {
	ds := scene.GenerateDataset(scene.DatasetConfig{
		Cam: scene.DefaultCamera(), NumTrain: cfg.TrainImages, NumTest: cfg.TestImages, Seed: cfg.Seed,
	})
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	m := yolo.New(rng, yolo.DefaultConfig())
	tc := yolo.TrainConfig{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, LR: cfg.LR, Seed: cfg.Seed + 2,
		Weights: yolo.DefaultLossWeights(), Log: cfg.Log,
	}
	if _, err := yolo.Train(m, ds, tc); err != nil {
		return nil, nil, fmt.Errorf("roadtrojan: %w", err)
	}
	return &Detector{model: m}, ds, nil
}

// LoadDetector restores a detector from a weights file written by
// cmd/trainyolo (nn.SaveStateFile of the model's state).
func LoadDetector(path string) (*Detector, error) {
	state, err := nn.LoadStateFile(path)
	if err != nil {
		return nil, fmt.Errorf("roadtrojan: %w", err)
	}
	m := yolo.New(rand.New(rand.NewSource(0)), yolo.DefaultConfig())
	if err := m.LoadState(state); err != nil {
		return nil, fmt.Errorf("roadtrojan: %w", err)
	}
	m.SetTraining(false)
	return &Detector{model: m}, nil
}

// NewRoadScene builds the "real-world environment": a textured asphalt road
// with a painted arrow target at (0, 15). It is the one fixed road the
// experiments and the evaluation service (servd, gatewayd) use, so a
// score computed here matches the service's answer for the same request.
func NewRoadScene() Scene { return eval.RoadScene() }

// NewSimScene builds the paper's simulated environment: uniform gray ground
// ("gray paper") with a white arrow.
func NewSimScene() Scene { return eval.SimScene() }

// DefaultAttackConfig returns the paper's main attack setting.
func DefaultAttackConfig() AttackConfig { return attack.DefaultConfig() }

// CraftPatch trains our GAN-based monochrome decal attack against the
// detector on the given scene.
func CraftPatch(d *Detector, sc Scene, cfg AttackConfig, log io.Writer) (*Patch, error) {
	return CraftPatchTraced(d, sc, cfg, obs.TextTrace(log))
}

// CraftPatchTraced is CraftPatch with a structured trace instead of a text
// log: spans, per-iteration losses, EOT draws, and verify scores flow to
// whatever sinks the trace carries (journal, progress, telemetry). A nil
// trace disables all instrumentation.
func CraftPatchTraced(d *Detector, sc Scene, cfg AttackConfig, tr *obs.Trace) (*Patch, error) {
	p, _, err := attack.Train(d.model, scene.DefaultCamera(), sc, cfg, tr)
	return p, err
}

// CraftBaselinePatchTraced trains the colored EOT baseline [34] (Sava et
// al.) with a structured trace (see CraftPatchTraced).
func CraftBaselinePatchTraced(d *Detector, sc Scene, cfg AttackConfig, tr *obs.Trace) (*Patch, error) {
	p, _, err := attack.TrainBaseline(d.model, scene.DefaultCamera(), sc, cfg, tr)
	return p, err
}

// DigitalCondition evaluates without print/capture loss.
func DigitalCondition() Condition { return eval.Digital() }

// PhysicalCondition evaluates through the print-and-capture channel,
// averaging three runs like the paper.
func PhysicalCondition() Condition { return eval.DefaultCondition() }

// EvaluateScenario runs one challenge ("fix", "slight", "slow", "normal",
// "fast", "angle-15", "angle0", "angle+15") and returns the PWC/CWC score.
// patch may be nil for the no-attack row.
func EvaluateScenario(d *Detector, sc Scene, patch *Patch, target Class, challenge string, cond Condition) (Score, error) {
	return EvaluateScenarioTraced(d, sc, patch, target, challenge, cond, nil)
}

// EvaluateScenarioTraced is EvaluateScenario with a structured trace: each
// repetition's PWC/CWC and the averaged score are recorded on an "eval"
// span. Tracing never changes results; a nil trace is free.
func EvaluateScenarioTraced(d *Detector, sc Scene, patch *Patch, target Class, challenge string,
	cond Condition, tr *obs.Trace) (Score, error) {

	ch := scene.Challenges(challenge)[0]
	detail, err := eval.RunJob(eval.Job{
		Det: d.model, Cam: scene.DefaultCamera(), Scene: sc, Patch: patch,
		Target: target, Ch: ch, Cond: cond, Trace: tr,
	})
	if err != nil {
		return Score{}, err
	}
	return detail.Score, nil
}

// AllChallenges lists the Table I column order.
func AllChallenges() []string {
	out := make([]string, len(scene.AllChallengeNames))
	copy(out, scene.AllChallengeNames)
	return out
}

// SavePatchPNG writes the patch's print image to a PNG file.
func SavePatchPNG(path string, p *Patch) error {
	return imaging.SavePNG(path, p.RenderPrint())
}

// VerifyDigital mirrors the paper's protocol: before a physical deployment,
// confirm the patch succeeds in the digital world. It returns the fraction
// of stationary verification views in which the detector reports the
// patch's target class.
func VerifyDigital(d *Detector, sc Scene, p *Patch) (float64, error) {
	rng := rand.New(rand.NewSource(12345))
	return attack.VerifyDigital(d.model, scene.DefaultCamera(), sc, p, rng)
}
