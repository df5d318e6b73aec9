// Package gan implements the generative adversarial network of Sec. III:
// a generator that synthesizes monochrome k×k adversarial patches from
// noise, and a discriminator trained to tell them apart from Four Shapes
// samples. The generator's full loss (Eq. 1) adds the α-weighted targeted
// attack term, which the attack package supplies as an external gradient on
// the generated patch.
package gan

import (
	"math"
	"math/rand"

	"roadtrojan/internal/nn"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/tensor"
)

// PatchRes is the generator's native output resolution. Patches are
// bilinearly resized to the physical print size k afterwards (the paper's k
// sweep is a physical-size sweep; the generator capacity stays fixed).
const PatchRes = 32

// ZDim is the noise dimension.
const ZDim = 32

// Generator maps z ∈ R^ZDim to a [1,PatchRes,PatchRes] grayscale patch in
// (0,1).
type Generator struct {
	net *nn.Sequential
}

// NewGenerator builds a DCGAN-style generator.
func NewGenerator(rng *rand.Rand) *Generator {
	net := nn.NewSequential(
		nn.NewLinear(rng, "g.fc", ZDim, 64*4*4),
		nn.NewReshape(64, 4, 4),
		nn.NewUpsample2D(2), // 8×8
		nn.NewConv2D(rng, "g.c1", 64, 32, 3, 1, 1, false),
		nn.NewBatchNorm2D("g.bn1", 32),
		nn.NewLeakyReLU(0.1),
		nn.NewUpsample2D(2), // 16×16
		nn.NewConv2D(rng, "g.c2", 32, 16, 3, 1, 1, false),
		nn.NewBatchNorm2D("g.bn2", 16),
		nn.NewLeakyReLU(0.1),
		nn.NewUpsample2D(2), // 32×32
		nn.NewConv2D(rng, "g.c3", 16, 8, 3, 1, 1, false),
		nn.NewBatchNorm2D("g.bn3", 8),
		nn.NewLeakyReLU(0.1),
		nn.NewConv2D(rng, "g.out", 8, 1, 3, 1, 1, true),
		nn.NewSigmoid(),
	)
	return &Generator{net: net}
}

// Forward synthesizes patches from a [n, ZDim] noise batch, returning
// [n,1,PatchRes,PatchRes].
func (g *Generator) Forward(z *tensor.Tensor) *tensor.Tensor {
	return g.net.Forward(z)
}

// Backward accumulates parameter gradients from dPatch and returns dZ.
func (g *Generator) Backward(dPatch *tensor.Tensor) *tensor.Tensor {
	return g.net.Backward(dPatch)
}

// Params returns the generator's parameters.
func (g *Generator) Params() []*nn.Param { return g.net.Params() }

// SetTraining toggles batch-norm mode.
func (g *Generator) SetTraining(training bool) { g.net.SetTraining(training) }

// SampleZ draws a [n, ZDim] standard-normal noise batch.
func SampleZ(rng *rand.Rand, n int) *tensor.Tensor {
	return tensor.NewRandN(rng, 1, n, ZDim)
}

// Discriminator scores patches: positive logits mean "real Four Shapes
// sample".
type Discriminator struct {
	net *nn.Sequential
}

// NewDiscriminator builds a DCGAN-style critic.
func NewDiscriminator(rng *rand.Rand) *Discriminator {
	net := nn.NewSequential(
		nn.NewConv2D(rng, "d.c1", 1, 8, 3, 2, 1, true), // 16×16
		nn.NewLeakyReLU(0.2),
		nn.NewConv2D(rng, "d.c2", 8, 16, 3, 2, 1, false), // 8×8
		nn.NewBatchNorm2D("d.bn1", 16),
		nn.NewLeakyReLU(0.2),
		nn.NewConv2D(rng, "d.c3", 16, 32, 3, 2, 1, false), // 4×4
		nn.NewBatchNorm2D("d.bn2", 32),
		nn.NewLeakyReLU(0.2),
		nn.NewReshape(32*4*4),
		nn.NewLinear(rng, "d.fc", 32*4*4, 1),
	)
	return &Discriminator{net: net}
}

// Forward returns [n,1] logits.
func (d *Discriminator) Forward(x *tensor.Tensor) *tensor.Tensor {
	return d.net.Forward(x)
}

// Backward accumulates parameter gradients and returns dX.
func (d *Discriminator) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	return d.net.Backward(dOut)
}

// Params returns the discriminator's parameters.
func (d *Discriminator) Params() []*nn.Param { return d.net.Params() }

// BCEWithLogits returns the mean binary cross-entropy of logits [n,1]
// against the constant target, plus d(loss)/d(logits).
func BCEWithLogits(logits *tensor.Tensor, target float64) (float64, *tensor.Tensor) {
	n := logits.Len()
	grad := tensor.New(logits.Shape()...)
	loss := 0.0
	for i, v := range logits.Data() {
		p := nn.SigmoidScalar(v)
		loss += -target*math.Log(math.Max(p, 1e-12)) - (1-target)*math.Log(math.Max(1-p, 1e-12))
		grad.Data()[i] = (p - target) / float64(n)
	}
	return loss / float64(n), grad
}

// DiscriminatorStep computes the standard GAN discriminator loss on a real
// and a fake batch, accumulating parameter gradients (call ZeroGrads first,
// then an optimizer step). It returns the loss value.
func DiscriminatorStep(d *Discriminator, real, fake *tensor.Tensor) float64 {
	logitsR := d.Forward(real)
	lossR, gradR := BCEWithLogits(logitsR, 1)
	d.Backward(gradR)
	logitsF := d.Forward(fake)
	lossF, gradF := BCEWithLogits(logitsF, 0)
	d.Backward(gradF)
	return lossR + lossF
}

// TracedDiscriminatorStep is DiscriminatorStep plus a "gan_d" record on sp
// (free when sp is nil). The attack trainer uses it so the discriminator's
// own update cadence — it only steps while its loss is above the
// saturation gate — is visible in run journals.
func TracedDiscriminatorStep(sp *obs.Span, it int, d *Discriminator, real, fake *tensor.Tensor) float64 {
	loss := DiscriminatorStep(d, real, fake)
	sp.GanD(obs.GanDStep{It: it, Loss: loss})
	return loss
}

// GeneratorAdversarialGrad computes the generator's GAN objective — make
// the discriminator call fakes real — returning the loss and d(loss)/d(fake)
// without touching discriminator parameter gradients (the caller zeroes
// them afterwards or uses a separate optimizer).
func GeneratorAdversarialGrad(d *Discriminator, fake *tensor.Tensor) (float64, *tensor.Tensor) {
	logits := d.Forward(fake)
	loss, grad := BCEWithLogits(logits, 1)
	return loss, d.Backward(grad)
}
