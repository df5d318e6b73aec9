package yolo

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roadtrojan/internal/nn"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/tensor"
)

// tinyConfig is a shrunken detector for fast tests: 32×32 input.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.InputSize = 32
	return cfg
}

func TestModelForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(rng, tinyConfig())
	x := tensor.NewRandU(rng, 0, 1, 2, 3, 32, 32)
	h := m.Forward(x)
	per := AnchorsPerHead * (5 + 5)
	if h.Coarse.Dim(0) != 2 || h.Coarse.Dim(1) != per || h.Coarse.Dim(2) != 2 || h.Coarse.Dim(3) != 2 {
		t.Fatalf("coarse head shape %v", h.Coarse.Shape())
	}
	if h.Fine.Dim(2) != 4 || h.Fine.Dim(3) != 4 {
		t.Fatalf("fine head shape %v", h.Fine.Shape())
	}
}

func TestModelBackwardShapesAndGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New(rng, tinyConfig())
	m.SetTraining(false) // fixed BN stats keep the finite-difference loss well-defined
	// Warm running stats.
	warm := tensor.NewRandU(rng, 0, 1, 2, 3, 32, 32)
	m.SetTraining(true)
	m.Forward(warm)
	m.SetTraining(false)

	x := tensor.NewRandU(rng, 0, 1, 1, 3, 32, 32)
	h := m.Forward(x)
	probeC := tensor.NewRandN(rng, 0.1, h.Coarse.Shape()...)
	probeF := tensor.NewRandN(rng, 0.1, h.Fine.Shape()...)

	nn.ZeroGrads(m.Params())
	m.Forward(x)
	dIn := m.Backward(Heads{Coarse: probeC.Clone(), Fine: probeF.Clone()})
	if !dIn.SameShape(x) {
		t.Fatalf("input grad shape %v", dIn.Shape())
	}

	loss := func() float64 {
		hh := m.Forward(x)
		return tensor.Dot(hh.Coarse, probeC) + tensor.Dot(hh.Fine, probeF)
	}
	const eps = 1e-5
	stride := 1 + x.Len()/9
	for i := 0; i < x.Len(); i += stride {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := loss()
		x.Data()[i] = orig - eps
		lm := loss()
		x.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dIn.Data()[i]) > 1e-4*math.Max(1, math.Abs(num)) {
			t.Fatalf("input grad[%d]: analytic %v numeric %v", i, dIn.Data()[i], num)
		}
	}
}

func TestModelBackwardSingleHead(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(rng, tinyConfig())
	x := tensor.NewRandU(rng, 0, 1, 1, 3, 32, 32)
	h := m.Forward(x)
	d := m.Backward(Heads{Coarse: tensor.Ones(h.Coarse.Shape()...)})
	if !d.SameShape(x) {
		t.Fatalf("coarse-only backward shape %v", d.Shape())
	}
	m.Forward(x)
	d2 := m.Backward(Heads{Fine: tensor.Ones(h.Fine.Shape()...)})
	if !d2.SameShape(x) {
		t.Fatalf("fine-only backward shape %v", d2.Shape())
	}
}

func TestStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m1 := New(rng, tinyConfig())
	// Perturb running stats so the round trip is meaningful.
	x := tensor.NewRandU(rng, 0, 1, 2, 3, 32, 32)
	m1.Forward(x)
	m1.SetTraining(false)
	h1 := m1.Forward(x)

	var buf bytes.Buffer
	if err := nn.SaveState(&buf, m1.State()); err != nil {
		t.Fatal(err)
	}
	m2 := New(rand.New(rand.NewSource(99)), tinyConfig())
	state, err := nn.LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadState(state); err != nil {
		t.Fatal(err)
	}
	m2.SetTraining(false)
	h2 := m2.Forward(x)
	if d := tensor.MaxAbsDiff(h1.Coarse, h2.Coarse); d > 1e-12 {
		t.Fatalf("coarse heads differ by %v after state round trip", d)
	}
	if d := tensor.MaxAbsDiff(h1.Fine, h2.Fine); d > 1e-12 {
		t.Fatalf("fine heads differ by %v after state round trip", d)
	}
}

func TestLoadStateMissingBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(rng, tinyConfig())
	s := m.State()
	delete(s, "b1.bn.gamma.rmean")
	m2 := New(rng, tinyConfig())
	if err := m2.LoadState(s); err == nil {
		t.Fatal("expected error for missing buffer")
	}
}

// --- decoding -------------------------------------------------------------

// setPrediction writes a synthetic prediction into a raw head tensor.
func setPrediction(m *Model, raw *tensor.Tensor, fine bool, sample, anchor, cy, cx int,
	tx, ty, tw, th, objLogit float64, classLogits []float64) {
	l := m.layout(raw, fine)
	raw.Data()[l.at(sample, anchor, 0, cy, cx)] = tx
	raw.Data()[l.at(sample, anchor, 1, cy, cx)] = ty
	raw.Data()[l.at(sample, anchor, 2, cy, cx)] = tw
	raw.Data()[l.at(sample, anchor, 3, cy, cx)] = th
	raw.Data()[l.at(sample, anchor, 4, cy, cx)] = objLogit
	for c, v := range classLogits {
		raw.Data()[l.at(sample, anchor, 5+c, cy, cx)] = v
	}
}

func emptyHeads(m *Model, n int) Heads {
	per := AnchorsPerHead * (5 + m.Cfg.NumClasses)
	s := m.Cfg.InputSize
	h := Heads{
		Coarse: tensor.Full(-6, n, per, s/CoarseStride, s/CoarseStride),
		Fine:   tensor.Full(-6, n, per, s/FineStride, s/FineStride),
	}
	return h
}

func TestDecodeSingleDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := New(rng, tinyConfig())
	h := emptyHeads(m, 1)
	// Fine head, anchor 1 (12×7), cell (2,3): a confident "mark".
	setPrediction(m, h.Fine, true, 0, 1, 2, 3, 0, 0, 0, 0, 4, []float64{-2, -2, 5, -2, -2})
	dets := m.DecodeSample(h, 0, DefaultDecode())
	if len(dets) != 1 {
		t.Fatalf("got %d detections, want 1", len(dets))
	}
	d := dets[0]
	if d.Class != scene.Mark {
		t.Fatalf("class = %v", d.Class)
	}
	// Center: (cx+σ(0))·8 = 3.5·8 = 28; (cy+0.5)·8 = 20.
	if math.Abs(d.Box.CX-28) > 1e-9 || math.Abs(d.Box.CY-20) > 1e-9 {
		t.Fatalf("box center (%v,%v)", d.Box.CX, d.Box.CY)
	}
	if math.Abs(d.Box.W-12) > 1e-9 || math.Abs(d.Box.H-7) > 1e-9 {
		t.Fatalf("box size (%v,%v)", d.Box.W, d.Box.H)
	}
	if d.Confidence < 0.9 {
		t.Fatalf("confidence %v", d.Confidence)
	}
}

func TestDecodeRespectsThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(rng, tinyConfig())
	h := emptyHeads(m, 1)
	setPrediction(m, h.Fine, true, 0, 0, 1, 1, 0, 0, 0, 0, -1.5, []float64{3, 0, 0, 0, 0})
	dets := m.DecodeSample(h, 0, DefaultDecode())
	if len(dets) != 0 {
		t.Fatalf("low-confidence prediction leaked: %v", dets)
	}
}

func TestNMSSuppressesSameClassOnly(t *testing.T) {
	mk := func(cx float64, class scene.Class, conf float64) Detection {
		return Detection{Box: scene.Box{CX: cx, CY: 10, W: 10, H: 10}, Class: class, Confidence: conf}
	}
	dets := []Detection{
		mk(10, scene.Car, 0.9),
		mk(11, scene.Car, 0.8),    // suppressed: same class, high IoU
		mk(11, scene.Person, 0.7), // kept: different class
		mk(40, scene.Car, 0.6),    // kept: far away
	}
	out := NMS(dets, DefaultDecode())
	if len(out) != 3 {
		t.Fatalf("NMS kept %d, want 3: %v", len(out), out)
	}
	if out[0].Confidence != 0.9 {
		t.Fatal("NMS must keep highest confidence first")
	}
}

func TestNMSMaxDetections(t *testing.T) {
	var dets []Detection
	for i := 0; i < 30; i++ {
		dets = append(dets, Detection{
			Box:        scene.Box{CX: float64(i * 20), CY: 10, W: 5, H: 5},
			Class:      scene.Car,
			Confidence: 0.5 + float64(i)*0.01,
		})
	}
	opts := DefaultDecode()
	opts.MaxDetections = 7
	if got := len(NMS(dets, opts)); got != 7 {
		t.Fatalf("NMS kept %d, want 7", got)
	}
}

func TestMatchTarget(t *testing.T) {
	target := scene.Box{CX: 20, CY: 20, W: 10, H: 10}
	dets := []Detection{
		{Box: scene.Box{CX: 21, CY: 20, W: 10, H: 10}, Class: scene.Car, Confidence: 0.6},
		{Box: scene.Box{CX: 50, CY: 50, W: 10, H: 10}, Class: scene.Mark, Confidence: 0.9},
	}
	d, ok := MatchTarget(dets, target, 0.3)
	if !ok || d.Class != scene.Car {
		t.Fatalf("match = %v ok=%v", d, ok)
	}
	if _, ok := MatchTarget(dets[1:], target, 0.3); ok {
		t.Fatal("distant detection matched")
	}
}

// --- losses ----------------------------------------------------------------

func TestTrainLossGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := New(rng, tinyConfig())
	h := Heads{
		Coarse: tensor.NewRandN(rng, 0.5, 1, 30, 2, 2),
		Fine:   tensor.NewRandN(rng, 0.5, 1, 30, 4, 4),
	}
	labels := [][]scene.Object{{
		{Class: scene.Mark, Box: scene.Box{CX: 16, CY: 18, W: 10, H: 4}},
		{Class: scene.Car, Box: scene.Box{CX: 8, CY: 8, W: 14, H: 14}},
	}}
	w := DefaultLossWeights()
	w.Ignore = 2 // disable the ignore rule: it is non-differentiable at the flip
	res := m.Loss(h, labels, w)
	if res.Total <= 0 {
		t.Fatal("loss must be positive for random predictions")
	}
	check := func(name string, raw, grad *tensor.Tensor) {
		const eps = 1e-6
		stride := 1 + raw.Len()/41
		for i := 0; i < raw.Len(); i += stride {
			orig := raw.Data()[i]
			raw.Data()[i] = orig + eps
			lp := m.Loss(h, labels, w).Total
			raw.Data()[i] = orig - eps
			lm := m.Loss(h, labels, w).Total
			raw.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-grad.Data()[i]) > 1e-5 {
				t.Fatalf("%s grad[%d]: analytic %v numeric %v", name, i, grad.Data()[i], num)
			}
		}
	}
	check("coarse", h.Coarse, res.Grad.Coarse)
	check("fine", h.Fine, res.Grad.Fine)
}

func TestLossDropsWhenPredictionMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := New(rng, tinyConfig())
	labels := [][]scene.Object{{{Class: scene.Mark, Box: scene.Box{CX: 12, CY: 12, W: 12, H: 7}}}}

	w := DefaultLossWeights()
	w.LabelSmooth = 0 // smoothing adds a constant entropy floor to Class
	bad := emptyHeads(m, 1)
	resBad := m.Loss(bad, labels, w)

	good := emptyHeads(m, 1)
	// Perfect prediction at fine head (12×7 = anchor 1), cell (1,1), center offset 0.5.
	setPrediction(m, good.Fine, true, 0, 1, 1, 1, 0, 0, 0, 0, 8, []float64{-4, -4, 8, -4, -4})
	resGood := m.Loss(good, labels, w)
	if resGood.Total >= resBad.Total {
		t.Fatalf("matching prediction must lower loss: %v vs %v", resGood.Total, resBad.Total)
	}
	if resGood.Class > 0.01 || resGood.Obj > 0.01 {
		t.Fatalf("good prediction should have tiny class/obj loss: %+v", resGood)
	}
}

func TestLossIgnoreRule(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := New(rng, tinyConfig())
	labels := [][]scene.Object{{{Class: scene.Car, Box: scene.Box{CX: 16, CY: 16, W: 16, H: 16}}}}
	h := emptyHeads(m, 1)
	// A confident duplicate prediction at a *neighboring* coarse cell that
	// still overlaps the GT. With the ignore rule it must not be punished.
	setPrediction(m, h.Coarse, false, 0, 1, 0, 0, 2, 2, 0, 0, 5, []float64{0, 0, 0, 3, 0})
	w := DefaultLossWeights()
	resIgnore := m.Loss(h, labels, w)
	w.Ignore = 2 // effectively disabled
	resPunish := m.Loss(h, labels, w)
	if resIgnore.NoObj >= resPunish.NoObj {
		t.Fatalf("ignore rule did not reduce no-obj loss: %v vs %v", resIgnore.NoObj, resPunish.NoObj)
	}
}

func TestLossSkipsOutOfFrameObjects(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := New(rng, tinyConfig())
	h := emptyHeads(m, 1)
	labels := [][]scene.Object{{{Class: scene.Car, Box: scene.Box{CX: 500, CY: 500, W: 10, H: 10}}}}
	res := m.Loss(h, labels, DefaultLossWeights())
	if res.Coord != 0 || res.Class != 0 {
		t.Fatal("out-of-frame object should not be assigned")
	}
}

func TestAttackLossGradCheckAndDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := New(rng, tinyConfig())
	h := Heads{
		Coarse: tensor.NewRandN(rng, 0.5, 1, 30, 2, 2),
		Fine:   tensor.NewRandN(rng, 0.5, 1, 30, 4, 4),
	}
	targets := []AttackTarget{{Box: scene.Box{CX: 16, CY: 16, W: 10, H: 6}, Class: scene.Car}}
	w := DefaultAttackLossWeights()
	loss, grad := m.AttackLoss(h, targets, w)
	if loss <= 0 {
		t.Fatal("attack loss must be positive initially")
	}
	const eps = 1e-6
	for _, pair := range []struct {
		name      string
		raw, grad *tensor.Tensor
	}{{"coarse", h.Coarse, grad.Coarse}, {"fine", h.Fine, grad.Fine}} {
		stride := 1 + pair.raw.Len()/37
		for i := 0; i < pair.raw.Len(); i += stride {
			orig := pair.raw.Data()[i]
			pair.raw.Data()[i] = orig + eps
			lp, _ := m.AttackLoss(h, targets, w)
			pair.raw.Data()[i] = orig - eps
			lm, _ := m.AttackLoss(h, targets, w)
			pair.raw.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-pair.grad.Data()[i]) > 1e-6 {
				t.Fatalf("%s grad[%d]: analytic %v numeric %v", pair.name, i, pair.grad.Data()[i], num)
			}
		}
	}
	// Descending the gradient must increase the target-class probability.
	before := m.TargetClassProb(h, targets[0], 0)
	h.Fine.Axpy(-5, grad.Fine)
	h.Coarse.Axpy(-5, grad.Coarse)
	after := m.TargetClassProb(h, targets[0], 0)
	if after <= before {
		t.Fatalf("gradient step did not raise target prob: %v -> %v", before, after)
	}
}

func TestAttackLossOutOfFrameTargetIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := New(rng, tinyConfig())
	h := emptyHeads(m, 1)
	loss, grad := m.AttackLoss(h, []AttackTarget{{Box: scene.Box{CX: -50, CY: -50, W: 5, H: 5}, Class: scene.Car}}, DefaultAttackLossWeights())
	if loss != 0 || grad.Fine.L2() != 0 {
		t.Fatal("out-of-frame target must contribute nothing")
	}
}

// --- end-to-end micro-training ---------------------------------------------

func TestTrainOverfitsMicroDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	cfg := scene.DatasetConfig{Cam: scene.DefaultCamera(), NumTrain: 24, NumTest: 8, Seed: 3}
	ds := scene.GenerateDataset(cfg)
	rng := rand.New(rand.NewSource(14))
	m := New(rng, DefaultConfig())
	tc := TrainConfig{Epochs: 10, BatchSize: 8, LR: 2e-3, Seed: 5, Weights: DefaultLossWeights()}
	hist, err := Train(m, ds, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 10 {
		t.Fatalf("history length %d", len(hist))
	}
	if hist[len(hist)-1] >= hist[0] {
		t.Fatalf("loss did not decrease: %v -> %v", hist[0], hist[len(hist)-1])
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := New(rng, tinyConfig())
	cfg := TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3, Weights: DefaultLossWeights()}
	if _, err := Train(m, &scene.Dataset{}, cfg); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestEvaluateOnPerfectPredictions(t *testing.T) {
	// Evaluate's matching logic, isolated: craft a frame then check stats.
	cfg := scene.DatasetConfig{Cam: scene.DefaultCamera(), NumTrain: 2, NumTest: 1, Seed: 4}
	ds := scene.GenerateDataset(cfg)
	rng := rand.New(rand.NewSource(16))
	m := New(rng, DefaultConfig())
	st := Evaluate(m, ds.Test, DefaultDecode())
	if st.Objects == 0 {
		t.Fatal("no objects in eval set")
	}
	if st.Detected > st.Objects {
		t.Fatal("detected more than exist")
	}
	if st.CorrectClass > st.Detected {
		t.Fatal("correct-class exceeds detected")
	}
}

func TestPropNMSOutputDisjointPerClass(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		dets := make([]Detection, n)
		for i := range dets {
			dets[i] = Detection{
				Box: scene.Box{
					CX: r.Float64() * 64, CY: r.Float64() * 64,
					W: 4 + r.Float64()*20, H: 4 + r.Float64()*20,
				},
				Class:      scene.ClassFromIndex(r.Intn(scene.NumClasses)),
				Confidence: r.Float64(),
			}
		}
		opts := DefaultDecode()
		kept := NMS(dets, opts)
		// Sorted by confidence.
		for i := 1; i < len(kept); i++ {
			if kept[i].Confidence > kept[i-1].Confidence {
				return false
			}
		}
		// Same-class survivors never overlap above the threshold.
		for i := range kept {
			for j := i + 1; j < len(kept); j++ {
				if kept[i].Class == kept[j].Class && kept[i].Box.IoU(kept[j].Box) > opts.NMSIoU {
					return false
				}
			}
		}
		return len(kept) <= len(dets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchTargetCenterContainment(t *testing.T) {
	// A wide flat target and a square detection with low IoU but mutual
	// center containment must match.
	target := scene.Box{CX: 32, CY: 40, W: 24, H: 2.4}
	det := Detection{Box: scene.Box{CX: 33, CY: 40, W: 10, H: 10}, Class: scene.Word, Confidence: 0.5}
	if target.IoU(det.Box) >= 0.2 {
		t.Fatalf("test premise broken: IoU %v", target.IoU(det.Box))
	}
	if _, ok := MatchTarget([]Detection{det}, target, 0.2); !ok {
		t.Fatal("center containment match failed")
	}
	// One-sided containment is not enough.
	far := Detection{Box: scene.Box{CX: 45, CY: 41, W: 4, H: 4}, Class: scene.Word, Confidence: 0.5}
	if _, ok := MatchTarget([]Detection{far}, target, 0.9); ok {
		t.Fatal("one-sided containment must not match")
	}
}
