package nn

import (
	"math/rand"
	"testing"

	"roadtrojan/internal/tensor"
)

// warmBlock builds a ConvBNLeaky with non-trivial batch-norm statistics and
// affine, then freezes it in inference mode.
func warmBlock(rng *rand.Rand, inC, outC, kernel, stride, pad int) *ConvBNLeaky {
	f := NewConvBNLeaky(rng, "blk", inC, outC, kernel, stride, pad, 0.1)
	// Perturb γ/β so the batch-norm affine is not the identity.
	for i := range f.BN.Gamma.Value.Data() {
		f.BN.Gamma.Value.Data()[i] = 0.5 + rng.Float64()
		f.BN.Beta.Value.Data()[i] = rng.NormFloat64() * 0.3
	}
	h := kernel + 2 + rng.Intn(6)
	w := kernel + 2 + rng.Intn(6)
	warm := tensor.NewRandN(rng, 1, 3, inC, h, w)
	f.Forward(warm) // training mode: populates running statistics
	f.SetTraining(false)
	return f
}

func TestConvBNLeakyGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := NewConvBNLeaky(rng, "blk", 2, 3, 3, 1, 1, 0.1)
	x := tensor.NewRandN(rng, 1, 2, 2, 5, 5)
	gradCheck(t, f, x, 1e-4)
}

func TestConvBNLeakyInferenceGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := warmBlock(rng, 2, 3, 3, 1, 1)
	// Fusing stays off: eval-mode Forward→Backward is the attack trainer's
	// hot loop and must keep working through the unfused chain.
	x := tensor.NewRandN(rng, 1, 2, 2, 5, 5)
	gradCheck(t, f, x, 1e-5)
}

// TestConvBNLeakyFusedParity is the randomized fused-vs-unfused suite: across
// 32 random shapes (batch sizes cycling through 1, 2, 7, 16) the fused path
// must match the unfused module chain bit for bit.
func TestConvBNLeakyFusedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	batches := []int{1, 2, 7, 16}
	for it := 0; it < 32; it++ {
		n := batches[it%len(batches)]
		inC := 1 + rng.Intn(4)
		outC := 1 + rng.Intn(6)
		kernel := 1 + 2*rng.Intn(3) // 1, 3, 5
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(kernel)
		f := warmBlock(rng, inC, outC, kernel, stride, pad)
		h := kernel + rng.Intn(10)
		w := kernel + rng.Intn(10)
		x := tensor.NewRandN(rng, 1, n, inC, h, w)

		want := f.Forward(x) // unfused chain (fusing off)

		f.SetFused(true)
		got := f.Forward(x)
		if gs, ws := got.Shape(), want.Shape(); len(gs) != len(ws) {
			t.Fatalf("it %d: fused shape %v want %v", it, gs, ws)
		}
		for i, v := range got.Data() {
			if v != want.Data()[i] {
				t.Fatalf("it %d (n=%d c=%d->%d k=%d s=%d p=%d h=%d w=%d): fused[%d]=%v unfused=%v",
					it, n, inC, outC, kernel, stride, pad, h, w, i, v, want.Data()[i])
			}
		}
	}
}

// TestConvBNLeakyRefKernelsFallback: with the reference kernels routed, the
// fused Forward's convolution is the reference kernel, and the block must
// answer the same bytes as under the production kernels.
func TestConvBNLeakyRefKernelsFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := warmBlock(rng, 2, 4, 3, 1, 1)
	f.SetFused(true)
	x := tensor.NewRandN(rng, 1, 2, 2, 6, 6)
	fused := f.Forward(x)
	tensor.SetRefKernels(true)
	defer tensor.SetRefKernels(false)
	ref := f.Forward(x)
	for i, v := range ref.Data() {
		if v != fused.Data()[i] {
			t.Fatalf("ref[%d]=%v fused=%v", i, v, fused.Data()[i])
		}
	}
}

func TestConvBNLeakyBackwardAfterFusedPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	f := warmBlock(rng, 1, 2, 3, 1, 1)
	f.SetFused(true)
	x := tensor.NewRandN(rng, 1, 1, 1, 5, 5)
	out := f.Forward(x)
	for name, backward := range map[string]func(*tensor.Tensor) *tensor.Tensor{"Backward": f.Backward, "InputGrad": f.InputGrad} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after fused Forward must panic", name)
				}
			}()
			backward(out)
		})
	}
}

// TestConvBNLeakyRefoldAfterTraining: a fused block reads batch norm's
// parameters and running statistics as they are at each Forward. Whatever
// changes them — another training period, or an in-place edit with no mode
// switch at all — the next fused Forward must answer the unfused chain's
// bytes, which differ from the output before the change.
func TestConvBNLeakyRefoldAfterTraining(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(rng *rand.Rand, f *ConvBNLeaky)
	}{
		{"retrain", func(rng *rand.Rand, f *ConvBNLeaky) {
			// Another training period shifts weights and statistics.
			f.SetTraining(true)
			for i := range f.Conv.Weight.Value.Data() {
				f.Conv.Weight.Value.Data()[i] *= 1.25
			}
			f.Forward(tensor.NewRandN(rng, 2, 4, 2, 7, 7))
			f.SetTraining(false)
		}},
		{"gamma in place", func(_ *rand.Rand, f *ConvBNLeaky) {
			f.BN.Gamma.Value.Data()[1] *= 1.5
		}},
		{"running statistics in place", func(_ *rand.Rand, f *ConvBNLeaky) {
			f.BN.RunningMean.Data()[0] += 0.25
			f.BN.RunningVar.Data()[2] *= 2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(26))
			f := warmBlock(rng, 2, 3, 3, 1, 1)
			f.SetFused(true)
			x := tensor.NewRandN(rng, 1, 2, 2, 6, 6)
			before := f.Forward(x)

			tc.mutate(rng, f)

			after := f.Forward(x)
			f.SetFused(false)
			want := f.Forward(x)
			same := true
			for i, v := range after.Data() {
				if v != before.Data()[i] {
					same = false
				}
				if v != want.Data()[i] {
					t.Fatalf("fused[%d]=%v unfused=%v", i, v, want.Data()[i])
				}
			}
			if same {
				t.Fatal("fused output unchanged despite the state change; stale batch-norm affine")
			}
		})
	}
}

func TestConvBNLeakyCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	f := warmBlock(rng, 2, 3, 3, 1, 1)
	f.SetFused(true)
	x := tensor.NewRandN(rng, 1, 2, 2, 6, 6)
	want := f.Forward(x)
	c := f.Clone()
	if !c.fused {
		t.Fatal("clone must inherit the fused flag")
	}
	got := c.Forward(x)
	for i, v := range got.Data() {
		if v != want.Data()[i] {
			t.Fatalf("clone[%d]=%v want %v", i, v, want.Data()[i])
		}
	}
	// Mutating the clone's weights must not leak into the source.
	c.Conv.Weight.Value.Data()[0] += 1
	again := f.Forward(x)
	for i, v := range again.Data() {
		if v != want.Data()[i] {
			t.Fatalf("source drifted after clone mutation: [%d]=%v want %v", i, v, want.Data()[i])
		}
	}
}
