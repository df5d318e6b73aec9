package gan

import (
	"math"
	"math/rand"
	"testing"

	"roadtrojan/internal/nn"
	"roadtrojan/internal/tensor"
)

// ganGradCheck verifies sampled parameter and input gradients against
// central finite differences of loss(x) = <m(x), probe>. The networks are
// full-size (the architecture is fixed), so only a strided subset of each
// tensor is probed to keep the test fast.
func ganGradCheck(t *testing.T, m nn.Module, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	out := m.Forward(x)
	probe := tensor.NewRandN(rng, 1, out.Shape()...)
	loss := func() float64 { return tensor.Dot(m.Forward(x), probe) }

	nn.ZeroGrads(m.Params())
	m.Forward(x)
	dIn := m.Backward(probe.Clone())

	const eps = 1e-6
	check := func(name string, vals, grads *tensor.Tensor) {
		stride := 1 + vals.Len()/5
		for i := 0; i < vals.Len(); i += stride {
			orig := vals.Data()[i]
			vals.Data()[i] = orig + eps
			lp := loss()
			vals.Data()[i] = orig - eps
			lm := loss()
			vals.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			if diff := math.Abs(num - grads.Data()[i]); diff > tol {
				t.Fatalf("%s grad[%d]: analytic %v numeric %v (|diff| %v)", name, i, grads.Data()[i], num, diff)
			}
		}
	}
	for _, p := range m.Params() {
		check(p.Name, p.Value, p.Grad)
	}
	check("input", x, dIn)
}

func TestGeneratorGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := NewGenerator(rng)
	g.SetTraining(true)
	z := SampleZ(rng, 1)
	ganGradCheck(t, g, z, 2e-4)
}

func TestDiscriminatorGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	d := NewDiscriminator(rng)
	d.net.SetTraining(true)
	x := tensor.NewRandU(rng, 0.1, 0.9, 2, 1, PatchRes, PatchRes)
	ganGradCheck(t, d, x, 2e-4)
}
