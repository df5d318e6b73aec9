package optim

import (
	"math"
	"math/rand"
	"testing"

	"roadtrojan/internal/nn"
	"roadtrojan/internal/tensor"
)

// quadratic builds a parameter holding x and a function computing the
// gradient of f(x) = Σ (x_i − target)² into its Grad.
func quadratic(x0 []float64, target float64) (*nn.Param, func()) {
	p := nn.NewParam("x", tensor.FromSlice(append([]float64(nil), x0...), len(x0)))
	fill := func() {
		for i, v := range p.Value.Data() {
			p.Grad.Data()[i] = 2 * (v - target)
		}
	}
	return p, fill
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p, grad := quadratic([]float64{5, -3}, 2)
	opt := NewAdam([]*nn.Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		grad()
		opt.Step()
	}
	for _, v := range p.Value.Data() {
		if math.Abs(v-2) > 1e-3 {
			t.Fatalf("Adam did not converge: %v", p.Value.Data())
		}
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the very first Adam step is ≈ lr·sign(g).
	p := nn.NewParam("x", tensor.FromSlice([]float64{0}, 1))
	p.Grad.Data()[0] = 123.456
	opt := NewAdam([]*nn.Param{p}, 0.05)
	opt.Step()
	if got := p.Value.At(0); math.Abs(got+0.05) > 1e-6 {
		t.Fatalf("first Adam step = %v, want ≈ -0.05", got)
	}
}

func TestSetLR(t *testing.T) {
	p, _ := quadratic([]float64{1}, 0)
	opt := NewAdam([]*nn.Param{p}, 0.1)
	opt.SetLR(0.123)
	if opt.LR() != 0.123 {
		t.Fatalf("SetLR/LR mismatch: %v", opt.LR())
	}
}

func TestClipGradNorm(t *testing.T) {
	p := nn.NewParam("x", tensor.New(2))
	p.Grad.Data()[0] = 3
	p.Grad.Data()[1] = 4
	norm := ClipGradNorm([]*nn.Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v", norm)
	}
	after := math.Hypot(p.Grad.At(0), p.Grad.At(1))
	if math.Abs(after-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v", after)
	}
	// Below the threshold nothing changes.
	norm2 := ClipGradNorm([]*nn.Param{p}, 10)
	if math.Abs(norm2-1) > 1e-12 || math.Abs(math.Hypot(p.Grad.At(0), p.Grad.At(1))-1) > 1e-12 {
		t.Fatal("clip below threshold must be a no-op")
	}
}

func TestOptimizersTrainTinyNetwork(t *testing.T) {
	// Fit y = relu-net(x) to a linear target; loss must drop a lot.
	rng := rand.New(rand.NewSource(42))
	net := nn.NewSequential(
		nn.NewLinear(rng, "l1", 2, 8),
		nn.NewLeakyReLU(0.1),
		nn.NewLinear(rng, "l2", 8, 1),
	)
	xs := tensor.NewRandN(rng, 1, 32, 2)
	ys := tensor.New(32, 1)
	for i := 0; i < 32; i++ {
		ys.Set(2*xs.At(i, 0)-xs.At(i, 1), i, 0)
	}
	loss := func() float64 {
		out := net.Forward(xs)
		return tensor.Sub(out, ys).Map(func(v float64) float64 { return v * v }).Mean()
	}
	first := loss()
	opt := NewAdam(net.Params(), 0.02)
	for it := 0; it < 300; it++ {
		nn.ZeroGrads(net.Params())
		out := net.Forward(xs)
		dOut := tensor.Sub(out, ys).Scale(2.0 / 32)
		net.Backward(dOut)
		opt.Step()
	}
	last := loss()
	if last > first/20 {
		t.Fatalf("training barely improved: %v -> %v", first, last)
	}
}

func TestAdamHandlesSparseGradients(t *testing.T) {
	// Zero gradients must not move weights much after bias correction decay.
	p := nn.NewParam("x", tensor.FromSlice([]float64{1}, 1))
	opt := NewAdam([]*nn.Param{p}, 0.1)
	// One real step, then many zero-grad steps.
	p.Grad.Data()[0] = 1
	opt.Step()
	p.Grad.Zero()
	for i := 0; i < 200; i++ {
		opt.Step()
	}
	if math.IsNaN(p.Value.At(0)) {
		t.Fatal("Adam produced NaN on zero gradients")
	}
}

func TestClipGradNormZeroGrads(t *testing.T) {
	p := nn.NewParam("x", tensor.New(3))
	if norm := ClipGradNorm([]*nn.Param{p}, 1); norm != 0 {
		t.Fatalf("norm of zero grads = %v", norm)
	}
}
