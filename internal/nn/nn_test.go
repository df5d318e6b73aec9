package nn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"roadtrojan/internal/tensor"
)

// gradCheck verifies every parameter of m and the input gradient against
// central finite differences of loss(x) = <m(x), probe>.
func gradCheck(t *testing.T, m Module, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	out := m.Forward(x)
	probe := tensor.NewRandN(rng, 1, out.Shape()...)
	loss := func() float64 { return tensor.Dot(m.Forward(x), probe) }

	ZeroGrads(m.Params())
	m.Forward(x)
	dIn := m.Backward(probe.Clone())

	const eps = 1e-6
	checkTensor := func(name string, vals *tensor.Tensor, grads *tensor.Tensor) {
		stride := 1 + vals.Len()/23
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
		checkTensor(p.Name, p.Value, p.Grad)
	}
	checkTensor("input", x, dIn)
}

func TestConv2DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(rng, "c", 2, 3, 3, 1, 1, true)
	x := tensor.NewRandN(rng, 1, 2, 2, 5, 5)
	gradCheck(t, c, x, 1e-5)
}

func TestConv2DStride2GradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D(rng, "c", 1, 2, 3, 2, 1, false)
	x := tensor.NewRandN(rng, 1, 1, 1, 7, 7)
	gradCheck(t, c, x, 1e-5)
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(rng, "fc", 6, 4)
	x := tensor.NewRandN(rng, 1, 3, 6)
	gradCheck(t, l, x, 1e-5)
}

func TestLeakyReLUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.NewRandN(rng, 1, 2, 3, 4, 4)
	gradCheck(t, NewLeakyReLU(0.1), x, 1e-5)
}

func TestSigmoidGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.NewRandN(rng, 1, 2, 8)
	gradCheck(t, NewSigmoid(), x, 1e-5)
}

func TestBatchNormTrainingGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm2D("bn", 3)
	// Running stats update on every Forward, but they do not feed the
	// training-mode output, so the finite-difference loss stays valid.
	x := tensor.NewRandN(rng, 1, 2, 3, 4, 4)
	gradCheck(t, bn, x, 1e-4)
}

func TestBatchNormInferenceGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bn := NewBatchNorm2D("bn", 2)
	// Populate running stats first.
	warm := tensor.NewRandN(rng, 2, 4, 2, 3, 3).AddScalar(1)
	bn.Forward(warm)
	bn.SetTraining(false)
	x := tensor.NewRandN(rng, 1, 2, 2, 3, 3)
	gradCheck(t, bn, x, 1e-5)
}

func TestBatchNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.NewRandN(rng, 3, 4, 2, 8, 8).AddScalar(5)
	y := bn.Forward(x)
	// Per-channel mean ≈ 0, var ≈ 1 (γ=1, β=0).
	for ch := 0; ch < 2; ch++ {
		var sum, sq float64
		n := 0
		for s := 0; s < 4; s++ {
			for i := 0; i < 64; i++ {
				v := y.At(s, ch, i/8, i%8)
				sum += v
				sq += v * v
				n++
			}
		}
		mean := sum / float64(n)
		variance := sq/float64(n) - mean*mean
		if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d: mean %v var %v", ch, mean, variance)
		}
	}
}

func TestMaxPoolGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Use well-separated values so eps perturbations don't flip the argmax.
	x := tensor.New(1, 2, 4, 4)
	perm := rng.Perm(32)
	for i, p := range perm {
		x.Data()[i] = float64(p)
	}
	gradCheck(t, NewMaxPool2D(2, 2), x, 1e-5)
}

func TestUpsampleGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.NewRandN(rng, 1, 1, 2, 3, 3)
	gradCheck(t, NewUpsample2D(2), x, 1e-5)
}

func TestSequentialGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	seq := NewSequential(
		NewConv2D(rng, "c1", 1, 4, 3, 1, 1, false),
		NewBatchNorm2D("bn1", 4),
		NewLeakyReLU(0.1),
		NewMaxPool2D(2, 2),
		NewConv2D(rng, "c2", 4, 2, 3, 1, 1, true),
	)
	x := tensor.NewRandN(rng, 1, 2, 1, 8, 8)
	gradCheck(t, seq, x, 1e-4)
}

func TestSequentialSetTrainingPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bn := NewBatchNorm2D("bn", 1)
	seq := NewSequential(NewConv2D(rng, "c", 1, 1, 1, 1, 0, true), bn)
	seq.SetTraining(false)
	if bn.training {
		t.Fatal("SetTraining(false) did not propagate")
	}
}

func TestReshapeRoundTrip(t *testing.T) {
	r := NewReshape(4, 2, 2)
	x := tensor.NewRandN(rand.New(rand.NewSource(14)), 1, 3, 16)
	y := r.Forward(x)
	if y.Dim(1) != 4 || y.Dim(3) != 2 {
		t.Fatalf("shape = %v", y.Shape())
	}
	back := r.Backward(y)
	if back.Dim(1) != 16 {
		t.Fatalf("backward shape = %v", back.Shape())
	}
}

func TestReshapeGradCheck(t *testing.T) {
	r := NewReshape(4, 2, 2)
	x := tensor.NewRandN(rand.New(rand.NewSource(15)), 1, 3, 16)
	gradCheck(t, r, x, 1e-6)
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	mods := map[string]Module{
		"conv":    NewConv2D(rand.New(rand.NewSource(1)), "c", 1, 1, 1, 1, 0, true),
		"linear":  NewLinear(rand.New(rand.NewSource(1)), "l", 2, 2),
		"relu":    NewLeakyReLU(0.1),
		"sigmoid": NewSigmoid(),
		"bn":      NewBatchNorm2D("bn", 1),
		"pool":    NewMaxPool2D(2, 2),
	}
	for name, m := range mods {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			m.Backward(tensor.New(1, 1))
		})
	}
}

func TestSigmoidScalarStable(t *testing.T) {
	if v := SigmoidScalar(1000); v != 1 {
		t.Fatalf("sigmoid(1000) = %v", v)
	}
	if v := SigmoidScalar(-1000); v != 0 {
		t.Fatalf("sigmoid(-1000) = %v", v)
	}
	if v := SigmoidScalar(0); v != 0.5 {
		t.Fatalf("sigmoid(0) = %v", v)
	}
}

func TestCountParams(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	c := NewConv2D(rng, "c", 2, 3, 3, 1, 1, true)
	if got := CountParams(c.Params()); got != 3*2*3*3+3 {
		t.Fatalf("CountParams = %d", got)
	}
}

func TestStateSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	state := State{
		"a.weight": tensor.NewRandN(rng, 1, 3, 4),
		"b.bias":   tensor.NewRandN(rng, 1, 7),
		"scalar":   tensor.Scalar(3.25),
	}
	var buf bytes.Buffer
	if err := SaveState(&buf, state); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(state) {
		t.Fatalf("entries = %d, want %d", len(got), len(state))
	}
	for name, want := range state {
		g, ok := got[name]
		if !ok {
			t.Fatalf("missing %q", name)
		}
		if !g.SameShape(want) || tensor.MaxAbsDiff(g, want) != 0 {
			t.Fatalf("%q round trip mismatch", name)
		}
	}
}

func TestLoadStateRejectsCorrupt(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{name: "empty", data: nil},
		{name: "bad magic", data: []byte{1, 2, 3, 4, 1, 0, 0, 0, 0, 0, 0, 0}},
		{name: "truncated", data: func() []byte {
			var buf bytes.Buffer
			if err := SaveState(&buf, State{"x": tensor.Ones(8)}); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()[:buf.Len()-9]
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := LoadState(bytes.NewReader(tt.data)); err == nil {
				t.Fatal("expected error for corrupt data")
			}
		})
	}
}

func TestApplyState(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := NewConv2D(rng, "c", 1, 1, 1, 1, 0, true)
	state := State{
		"c.weight": tensor.Full(2, 1, 1, 1, 1),
		"c.bias":   tensor.Full(-1, 1),
	}
	if err := ApplyState(state, c.Params()); err != nil {
		t.Fatal(err)
	}
	if c.Weight.Value.At(0, 0, 0, 0) != 2 || c.Bias.Value.At(0) != -1 {
		t.Fatal("ApplyState did not copy values")
	}
	if err := ApplyState(State{}, c.Params()); err == nil {
		t.Fatal("expected missing-parameter error")
	}
	bad := State{"c.weight": tensor.Ones(5), "c.bias": tensor.Ones(1)}
	if err := ApplyState(bad, c.Params()); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestPropStateRoundTripArbitrary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		state := make(State, n)
		for i := 0; i < n; i++ {
			name := string(rune('a'+i)) + ".p"
			state[name] = tensor.NewRandN(rng, 1, 1+rng.Intn(5), 1+rng.Intn(5))
		}
		var buf bytes.Buffer
		if err := SaveState(&buf, state); err != nil {
			return false
		}
		got, err := LoadState(&buf)
		if err != nil {
			return false
		}
		for name, want := range state {
			if g, ok := got[name]; !ok || tensor.MaxAbsDiff(g, want) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropConvLinearInInput(t *testing.T) {
	// Convolution without bias is linear: conv(a·x) = a·conv(x).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewConv2D(rng, "c", 1, 2, 3, 1, 1, false)
		x := tensor.NewRandN(rng, 1, 1, 1, 6, 6)
		a := 0.5 + rng.Float64()*2
		y1 := c.Forward(x).Clone().Scale(a)
		xs := x.Clone().Scale(a)
		y2 := c.Forward(xs)
		return tensor.MaxAbsDiff(y1, y2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConvTranslationEquivariance(t *testing.T) {
	// Shifting the input by one pixel shifts the (interior of the) output
	// by one pixel for a stride-1 same conv.
	rng := rand.New(rand.NewSource(30))
	c := NewConv2D(rng, "c", 1, 1, 3, 1, 1, false)
	x := tensor.New(1, 1, 8, 8)
	x.Set(1, 0, 0, 3, 3)
	y := c.Forward(x)
	xs := tensor.New(1, 1, 8, 8)
	xs.Set(1, 0, 0, 3, 4)
	ys := c.Forward(xs)
	for oy := 1; oy < 7; oy++ {
		for ox := 1; ox < 6; ox++ {
			if math.Abs(y.At(0, 0, oy, ox)-ys.At(0, 0, oy, ox+1)) > 1e-12 {
				t.Fatalf("not equivariant at (%d,%d)", oy, ox)
			}
		}
	}
}

func TestPropLinearAdditivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLinear(rng, "l", 4, 3)
		a := tensor.NewRandN(rng, 1, 1, 4)
		b := tensor.NewRandN(rng, 1, 1, 4)
		ya := l.Forward(a)
		yb := l.Forward(b)
		sum := tensor.Add(ya, yb)
		yab := l.Forward(tensor.Add(a, b))
		// f(a)+f(b) = f(a+b) + bias (bias counted twice on the left).
		for i := range sum.Data() {
			sum.Data()[i] -= l.Bias.Value.Data()[i%3]
		}
		return tensor.MaxAbsDiff(sum, yab) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialEmptyIsIdentity(t *testing.T) {
	seq := NewSequential()
	x := tensor.FromSlice([]float64{1, 2, 3}, 1, 3)
	if tensor.MaxAbsDiff(seq.Forward(x), x) != 0 {
		t.Fatal("empty Sequential must be identity")
	}
	if tensor.MaxAbsDiff(seq.Backward(x), x) != 0 {
		t.Fatal("empty Sequential backward must be identity")
	}
	if seq.Params() != nil {
		t.Fatal("empty Sequential has no params")
	}
}

// TestBatchNormInputGradPanicsInTraining: with batch statistics, dInput
// depends on the γ/β reductions InputGrad skips, so the input-only entry
// must refuse training mode with an nn:-prefixed panic.
func TestBatchNormInputGradPanicsInTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.NewRandN(rng, 1, 2, 2, 3, 3)
	bn.Forward(x)
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "nn: ") {
			t.Fatalf("InputGrad in training mode: recovered %q, want an nn: panic", msg)
		}
	}()
	bn.InputGrad(x)
}
