package gan

import (
	"math"
	"math/rand"
	"testing"

	"roadtrojan/internal/nn"
	"roadtrojan/internal/optim"
	"roadtrojan/internal/shapes"
	"roadtrojan/internal/tensor"
)

func TestGeneratorOutputShapeAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewGenerator(rng)
	z := SampleZ(rng, 3)
	p := g.Forward(z)
	if p.Dim(0) != 3 || p.Dim(1) != 1 || p.Dim(2) != PatchRes || p.Dim(3) != PatchRes {
		t.Fatalf("patch shape %v", p.Shape())
	}
	if p.Min() <= 0 || p.Max() >= 1 {
		t.Fatalf("sigmoid output escaped (0,1): [%v,%v]", p.Min(), p.Max())
	}
}

func TestGeneratorBackwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewGenerator(rng)
	z := SampleZ(rng, 2)
	p := g.Forward(z)
	dz := g.Backward(tensor.Ones(p.Shape()...))
	if dz.Dim(0) != 2 || dz.Dim(1) != ZDim {
		t.Fatalf("dz shape %v", dz.Shape())
	}
	// Gradients accumulated on parameters.
	any := false
	for _, pr := range g.Params() {
		if pr.Grad.L2() > 0 {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("no parameter gradients accumulated")
	}
}

func TestDiscriminatorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDiscriminator(rng)
	x := tensor.NewRandU(rng, 0, 1, 4, 1, PatchRes, PatchRes)
	logits := d.Forward(x)
	if logits.Dim(0) != 4 || logits.Dim(1) != 1 {
		t.Fatalf("logits shape %v", logits.Shape())
	}
	dx := d.Backward(tensor.Ones(4, 1))
	if dx.Dim(1) != 1 || dx.Dim(2) != PatchRes {
		t.Fatalf("dx shape %v", dx.Shape())
	}
}

func TestBCEWithLogits(t *testing.T) {
	logits := tensor.FromSlice([]float64{0}, 1, 1)
	loss, grad := BCEWithLogits(logits, 1)
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("BCE(0,1) = %v, want ln2", loss)
	}
	if math.Abs(grad.At(0, 0)+0.5) > 1e-12 {
		t.Fatalf("grad = %v, want -0.5", grad.At(0, 0))
	}
	// Extreme logits stay finite.
	logits2 := tensor.FromSlice([]float64{-100, 100}, 2, 1)
	loss2, _ := BCEWithLogits(logits2, 0)
	if math.IsInf(loss2, 0) || math.IsNaN(loss2) {
		t.Fatalf("BCE overflow: %v", loss2)
	}
}

func TestBCEGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	logits := tensor.NewRandN(rng, 1, 5, 1)
	for _, target := range []float64{0, 1} {
		_, grad := BCEWithLogits(logits, target)
		const eps = 1e-6
		for i := 0; i < logits.Len(); i++ {
			orig := logits.Data()[i]
			logits.Data()[i] = orig + eps
			lp, _ := BCEWithLogits(logits, target)
			logits.Data()[i] = orig - eps
			lm, _ := BCEWithLogits(logits, target)
			logits.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-grad.Data()[i]) > 1e-6 {
				t.Fatalf("target %v grad[%d]: analytic %v numeric %v", target, i, grad.Data()[i], num)
			}
		}
	}
}

func TestAdversarialTrainingMovesDiscriminator(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(5))
	g := NewGenerator(rng)
	d := NewDiscriminator(rng)
	optD := optim.NewAdam(d.Params(), 2e-3)
	optG := optim.NewAdam(g.Params(), 2e-3)

	const n = 8
	real := shapes.Samples(rng, shapes.Star, PatchRes, n)

	var dLossFirst, dLossLast float64
	for it := 0; it < 30; it++ {
		z := SampleZ(rng, n)
		fake := g.Forward(z)

		nn.ZeroGrads(d.Params())
		dLoss := DiscriminatorStep(d, real, fake)
		optD.Step()
		if it == 0 {
			dLossFirst = dLoss
		}
		dLossLast = dLoss

		nn.ZeroGrads(g.Params())
		nn.ZeroGrads(d.Params())
		z2 := SampleZ(rng, n)
		fake2 := g.Forward(z2)
		_, dFake := GeneratorAdversarialGrad(d, fake2)
		g.Backward(dFake)
		nn.ZeroGrads(d.Params()) // generator step must not move D
		optG.Step()
	}
	if dLossLast >= dLossFirst {
		t.Fatalf("discriminator did not learn: %v -> %v", dLossFirst, dLossLast)
	}
}

func TestSampleZShapeAndDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	z := SampleZ(rng, 64)
	if z.Dim(0) != 64 || z.Dim(1) != ZDim {
		t.Fatalf("z shape %v", z.Shape())
	}
	m := z.Mean()
	if m < -0.2 || m > 0.2 {
		t.Fatalf("z mean %v far from 0", m)
	}
}

func TestGeneratorDiversityAcrossZ(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := NewGenerator(rng)
	z := SampleZ(rng, 2)
	out := g.Forward(z)
	a := out.Data()[:PatchRes*PatchRes]
	b := out.Data()[PatchRes*PatchRes:]
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different z produced identical patches")
	}
}

func TestDiscriminatorStepAccumulatesGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDiscriminator(rng)
	real := tensor.NewRandU(rng, 0, 1, 2, 1, PatchRes, PatchRes)
	fake := tensor.NewRandU(rng, 0, 1, 2, 1, PatchRes, PatchRes)
	nn.ZeroGrads(d.Params())
	loss := DiscriminatorStep(d, real, fake)
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	any := false
	for _, p := range d.Params() {
		if p.Grad.L2() > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no gradients accumulated")
	}
}
