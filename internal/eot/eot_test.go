package eot

import (
	"math"
	"math/rand"
	"testing"

	"roadtrojan/internal/tensor"
)

func TestNewSetSortsAndValidates(t *testing.T) {
	s := NewSet(5, 1, 4)
	if s.String() != "(1)+(4)+(5)" {
		t.Fatalf("String = %q", s.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid trick")
		}
	}()
	NewSet(6)
}

func TestSetHasAndAllString(t *testing.T) {
	s := PaperBest()
	if !s.Has(Perspective) || s.Has(Brightness) {
		t.Fatalf("PaperBest membership wrong: %v", s)
	}
	if AllTricks().String() != "All" {
		t.Fatalf("All string = %q", AllTricks().String())
	}
}

func TestTableIVSetsMatchPaperRows(t *testing.T) {
	sets := TableIVSets()
	want := []string{"(1)+(2)+(3)+(5)", "(1)+(2)+(4)+(5)", "(2)+(3)+(4)+(5)", "(1)+(3)+(4)+(5)", "(1)+(2)+(3)+(4)", "All"}
	if len(sets) != len(want) {
		t.Fatalf("rows = %d", len(sets))
	}
	for i, s := range sets {
		if s.String() != want[i] {
			t.Errorf("row %d = %q, want %q", i, s.String(), want[i])
		}
	}
}

func TestTrickNames(t *testing.T) {
	names := map[Trick]string{
		Resize: "resize", Rotation: "rotation", Brightness: "brightness",
		Gamma: "gamma", Perspective: "perspective",
	}
	for tr, want := range names {
		if tr.String() != want {
			t.Errorf("%d.String() = %q", tr, tr.String())
		}
	}
}

func TestSampleStageCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Geometric tricks fuse into one warp; photometric are separate; plus
	// the trailing clamp.
	tests := []struct {
		set  Set
		want int
	}{
		{NewSet(1, 2, 5), 2},    // warp + clamp
		{NewSet(3, 4), 3},       // brightness + gamma + clamp
		{AllTricks(), 4},        // warp + brightness + gamma + clamp
		{NewSet(2), 2},          // warp + clamp
		{Set{}, 1},              // clamp only
		{NewSet(1, 2, 3, 4), 4}, // warp + brightness + gamma + clamp
	}
	for _, tt := range tests {
		a := NewSampler(tt.set).Sample(rng, 16, 16)
		if len(a.stages) != tt.want {
			t.Errorf("%v: stages = %d, want %d", tt.set, len(a.stages), tt.want)
		}
	}
}

func TestAppliedKeepsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	img := tensor.NewRandU(rng, 0, 1, 3, 24, 24)
	for i := 0; i < 20; i++ {
		a := NewSampler(AllTricks()).Sample(rng, 24, 24)
		out := a.Forward(img)
		if out.Min() < 0 || out.Max() > 1 {
			t.Fatalf("sample %d escapes [0,1]: [%v,%v]", i, out.Min(), out.Max())
		}
		if out.HasNaN() {
			t.Fatal("NaN in EOT output")
		}
	}
}

func TestAppliedGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	img := tensor.NewRandU(rng, 0.1, 0.9, 1, 10, 10)
	a := NewSampler(AllTricks()).Sample(rng, 10, 10)
	out := a.Forward(img)
	probe := tensor.NewRandN(rng, 1, out.Shape()...)
	a.Forward(img)
	dIn := a.Backward(probe.Clone())

	loss := func() float64 { return tensor.Dot(a.Forward(img), probe) }
	const eps = 1e-6
	for i := 0; i < img.Len(); i += 7 {
		orig := img.Data()[i]
		img.Data()[i] = orig + eps
		lp := loss()
		img.Data()[i] = orig - eps
		lm := loss()
		img.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dIn.Data()[i]) > 1e-5 {
			t.Fatalf("grad[%d]: analytic %v numeric %v", i, dIn.Data()[i], num)
		}
	}
}

func TestSamplerDiversity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	img := tensor.NewRandU(rng, 0, 1, 1, 12, 12)
	a := NewSampler(AllTricks()).Sample(rng, 12, 12)
	b := NewSampler(AllTricks()).Sample(rng, 12, 12)
	if tensor.MaxAbsDiff(a.Forward(img), b.Forward(img)) == 0 {
		t.Fatal("two samples produced identical transforms")
	}
}

func TestEmptySetIsClampOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	img := tensor.NewRandU(rng, 0, 1, 1, 8, 8)
	a := NewSampler(Set{}).Sample(rng, 8, 8)
	out := a.Forward(img)
	if tensor.MaxAbsDiff(img, out) != 0 {
		t.Fatal("empty trick set must be identity on [0,1] images")
	}
}

func TestRangesCustomizable(t *testing.T) {
	s := NewSampler(NewSet(3))
	s.Ranges.BrightnessMin, s.Ranges.BrightnessMax = 2, 2 // fixed 2× gain
	rng := rand.New(rand.NewSource(6))
	img := tensor.Full(0.25, 1, 4, 4)
	out := s.Sample(rng, 4, 4).Forward(img)
	for _, v := range out.Data() {
		if math.Abs(v-0.5) > 1e-12 {
			t.Fatalf("fixed gain output = %v, want 0.5", v)
		}
	}
}

func TestGeometricTricksFuseIntoOneWarp(t *testing.T) {
	// Chained warps resample twice and lose signal; the sampler must fuse
	// resize+rotation+perspective into a single warp stage (asserted via
	// stage counting in TestSampleStageCount, and here via energy: a fused
	// identity-magnitude chain keeps a bright pixel's mass within bilinear
	// spread of a single resampling).
	rng := rand.New(rand.NewSource(7))
	s := NewSampler(NewSet(1, 2, 5))
	s.Ranges.ResizeMin, s.Ranges.ResizeMax = 1, 1
	s.Ranges.RotationMaxRad = 0
	s.Ranges.PerspectiveJitter = 0
	img := tensor.New(1, 9, 9)
	img.Set(1, 0, 4, 4)
	out := s.Sample(rng, 9, 9).Forward(img)
	if math.Abs(out.Sum()-1) > 1e-9 {
		t.Fatalf("identity-magnitude geometric chain lost mass: %v", out.Sum())
	}
}
