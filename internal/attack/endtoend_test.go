package attack

import (
	"math"
	"math/rand"
	"testing"

	"roadtrojan/internal/eot"
	"roadtrojan/internal/imaging"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

// TestEndToEndAttackGradient verifies the entire differentiable chain the
// attack backpropagates through — patch → shape mask → ground compositing →
// camera homography → EOT → detector → targeted loss — against central
// finite differences on the raw patch pixels. This is the integration-level
// guarantee that the per-module gradient checks compose correctly.
func TestEndToEndAttackGradient(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end gradient check skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(42))
	det := yolo.New(rng, yolo.DefaultConfig())
	det.SetTraining(false)

	g := scene.NewSimRoom(8, 30, 0.05)
	sc := NewArrowScene(g, 0, 15, 1.8)
	cfg := DefaultConfig()
	cfg.N = 2
	pls := Placements(cfg, sc.TargetGX, sc.TargetGY)
	mask := tensor.Ones(1, 12, 12) // full-square mask keeps every pixel live
	patch := tensor.NewRandU(rng, 0.2, 0.8, 1, 12, 12)

	cam := scene.DefaultCamera()
	cam.Y = 15 - 4.5
	step := scene.TrajectoryStep{Cam: cam, BlurLen: 3}
	sampler := eot.NewSampler(eot.NewSet(3, 4)) // photometric-only: re-runnable graph
	applied := sampler.Sample(rng, cam.ImgH, cam.ImgW)
	box, ok := cam.GroundBoxToImage(sc.GX0, sc.GY0, sc.GX1, sc.GY1)
	if !ok {
		t.Fatal("target not visible")
	}
	target := yolo.AttackTarget{Box: box, Class: scene.Word}
	w := yolo.DefaultAttackLossWeights()

	forward := func() (float64, *tensor.Tensor) {
		masked, maskBwd := imaging.ApplyShapeMask(patch, mask)
		decaled, gcomp, err := applyGrayDecals(sc.Ground, masked, pls, cfg.Ink)
		if err != nil {
			t.Fatal(err)
		}
		img, fg, err := renderTrainFrame(sc.Ground, decaled, step, applied)
		if err != nil {
			t.Fatal(err)
		}
		batch := img.Reshape(1, 3, cam.ImgH, cam.ImgW)
		heads := det.Forward(batch)
		loss, dHeads := det.AttackLoss(heads, []yolo.AttackTarget{target}, w)
		dBatch := det.InputGrad(dHeads)
		dTex := fg.backward(dBatch.Reshape(3, cam.ImgH, cam.ImgW))
		dPatch := maskBwd(gcomp.backward(dTex))
		return loss, dPatch
	}

	_, grad := forward()
	const eps = 1e-5
	checked := 0
	for i := 0; i < patch.Len(); i += 11 {
		orig := patch.Data()[i]
		patch.Data()[i] = orig + eps
		lp, _ := forward()
		patch.Data()[i] = orig - eps
		lm, _ := forward()
		patch.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data()[i]) > 2e-4*math.Max(1, math.Abs(num)) {
			t.Fatalf("end-to-end grad[%d]: analytic %v numeric %v", i, grad.Data()[i], num)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d pixels checked", checked)
	}
}

// TestEndToEndAttackReducesLoss runs a few direct gradient steps through the
// full pipeline and asserts the targeted loss on the fixed frame decreases —
// the minimal "the attack optimizes what it claims to" property.
func TestEndToEndAttackReducesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("optimization test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(43))
	det := yolo.New(rng, yolo.DefaultConfig())
	det.SetTraining(false)

	g := scene.NewSimRoom(8, 30, 0.05)
	sc := NewArrowScene(g, 0, 15, 1.8)
	cfg := DefaultConfig()
	cfg.N = 2
	pls := Placements(cfg, sc.TargetGX, sc.TargetGY)
	mask := tensor.Ones(1, 12, 12)
	patch := tensor.NewRandU(rng, 0.3, 0.7, 1, 12, 12)

	cam := scene.DefaultCamera()
	cam.Y = 15 - 4.5
	step := scene.TrajectoryStep{Cam: cam}
	applied := eot.NewSampler(eot.Set{}).Sample(rng, cam.ImgH, cam.ImgW)
	box, _ := cam.GroundBoxToImage(sc.GX0, sc.GY0, sc.GX1, sc.GY1)
	target := yolo.AttackTarget{Box: box, Class: scene.Word}
	w := yolo.DefaultAttackLossWeights()

	lossOf := func() (float64, *tensor.Tensor) {
		masked, maskBwd := imaging.ApplyShapeMask(patch, mask)
		decaled, gcomp, err := applyGrayDecals(sc.Ground, masked, pls, cfg.Ink)
		if err != nil {
			t.Fatal(err)
		}
		img, fg, err := renderTrainFrame(sc.Ground, decaled, step, applied)
		if err != nil {
			t.Fatal(err)
		}
		heads := det.Forward(img.Reshape(1, 3, cam.ImgH, cam.ImgW))
		loss, dHeads := det.AttackLoss(heads, []yolo.AttackTarget{target}, w)
		dBatch := det.InputGrad(dHeads)
		dTex := fg.backward(dBatch.Reshape(3, cam.ImgH, cam.ImgW))
		return loss, maskBwd(gcomp.backward(dTex))
	}

	first, _ := lossOf()
	best := first
	lr := 20.0
	for i := 0; i < 30; i++ {
		loss, grad := lossOf()
		if loss < best {
			best = loss
		}
		patch.Axpy(-lr, grad)
		patch.Clamp(0, 1)
		lr *= 0.93 // diminish to avoid overshooting the plateau
	}
	if last, _ := lossOf(); math.Min(last, best) >= first-0.5 {
		t.Fatalf("gradient descent did not reduce attack loss: %v -> %v (best %v)", first, last, best)
	}
}
