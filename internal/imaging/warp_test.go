package imaging

import (
	"image/png"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"roadtrojan/internal/tensor"
)

func TestWarpIdentityPreservesImage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := tensor.NewRandU(rng, 0, 1, 3, 6, 7)
	out := WarpImage(src, Identity(), 6, 7, 0)
	if d := tensor.MaxAbsDiff(src, out); d > 1e-12 {
		t.Fatalf("identity warp changed image by %v", d)
	}
}

func TestWarpTranslationShifts(t *testing.T) {
	src := tensor.New(1, 4, 4)
	src.Set(1, 0, 1, 1)
	// Output→input map: out(x,y) samples in(x+1, y). So the bright input
	// pixel (1,1) appears at output x=0.
	out := WarpImage(src, Translate(1, 0), 4, 4, 0)
	if out.At(0, 1, 0) != 1 || out.At(0, 1, 1) != 0 {
		t.Fatalf("translation wrong: %v", out.Data())
	}
}

func TestWarpOutsideFill(t *testing.T) {
	src := tensor.New(1, 2, 2)
	out := WarpImage(src, Translate(100, 100), 2, 2, 0.77)
	for _, v := range out.Data() {
		if v != 0.77 {
			t.Fatalf("outside fill = %v, want 0.77", v)
		}
	}
}

func TestWarpGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := tensor.NewRandU(rng, 0, 1, 1, 5, 5)
	h := RotateAbout(0.3, 2, 2).Mul(ScaleXY(0.9, 1.1))
	wp := NewWarp(h, 5, 5, 0)
	out := wp.Forward(src)
	probe := tensor.NewRandN(rng, 1, out.Shape()...)
	wp.Forward(src)
	dSrc := wp.Backward(probe)

	loss := func() float64 { return tensor.Dot(NewWarp(h, 5, 5, 0).Forward(src), probe) }
	const eps = 1e-6
	for i := 0; i < src.Len(); i += 3 {
		orig := src.Data()[i]
		src.Data()[i] = orig + eps
		lp := loss()
		src.Data()[i] = orig - eps
		lm := loss()
		src.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dSrc.Data()[i]) > 1e-6 {
			t.Fatalf("warp grad[%d]: analytic %v numeric %v", i, dSrc.Data()[i], num)
		}
	}
}

func TestWarpBackwardBeforeForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWarp(Identity(), 2, 2, 0).Backward(tensor.New(1, 2, 2))
}

func TestResizeBilinearConstant(t *testing.T) {
	src := tensor.Full(0.5, 1, 4, 4)
	out := ResizeBilinear(src, 8, 8)
	if out.Dim(1) != 8 || out.Dim(2) != 8 {
		t.Fatalf("shape = %v", out.Shape())
	}
	for _, v := range out.Data() {
		if math.Abs(v-0.5) > 1e-9 {
			t.Fatalf("constant image not preserved: %v", v)
		}
	}
}

func TestResizeBilinearPreservesMeanApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := tensor.NewRandU(rng, 0, 1, 1, 16, 16)
	out := ResizeBilinear(src, 8, 8)
	if math.Abs(out.Mean()-src.Mean()) > 0.05 {
		t.Fatalf("resize mean drifted: %v vs %v", out.Mean(), src.Mean())
	}
}

func TestPropWarpLinearInInput(t *testing.T) {
	// Warping is a linear operator: warp(a+b) = warp(a)+warp(b).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := tensor.NewRandU(r, 0, 1, 1, 6, 6)
		b := tensor.NewRandU(r, 0, 1, 1, 6, 6)
		h := RotateAbout(r.Float64(), 3, 3)
		wa := WarpImage(a, h, 6, 6, 0)
		wb := WarpImage(b, h, 6, 6, 0)
		wab := WarpImage(tensor.Add(a, b), h, 6, 6, 0)
		return tensor.MaxAbsDiff(tensor.Add(wa, wb), wab) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.NewRandU(rng, 0.1, 0.9, 1, 4, 4)
	g := NewGamma(1.7)
	out := g.Forward(x)
	probe := tensor.NewRandN(rng, 1, out.Shape()...)
	g.Forward(x)
	dX := g.Backward(probe)
	const eps = 1e-6
	for i := 0; i < x.Len(); i += 2 {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := tensor.Dot(NewGamma(1.7).Forward(x), probe)
		x.Data()[i] = orig - eps
		lm := tensor.Dot(NewGamma(1.7).Forward(x), probe)
		x.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dX.Data()[i]) > 1e-5 {
			t.Fatalf("gamma grad[%d]: analytic %v numeric %v", i, dX.Data()[i], num)
		}
	}
}

func TestGammaIdentityAtOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.NewRandU(rng, 0.1, 1, 1, 3, 3)
	out := NewGamma(1).Forward(x)
	if d := tensor.MaxAbsDiff(x, out); d > 1e-12 {
		t.Fatalf("gamma=1 changed image by %v", d)
	}
}

func TestBrightnessScalesAndBackprops(t *testing.T) {
	x := tensor.Full(0.4, 1, 2, 2)
	br := NewBrightness(1.5)
	out := br.Forward(x)
	if math.Abs(out.At(0, 0, 0)-0.6) > 1e-12 {
		t.Fatalf("brightness = %v", out.At(0, 0, 0))
	}
	d := br.Backward(tensor.Ones(1, 2, 2))
	if d.At(0, 1, 1) != 1.5 {
		t.Fatalf("brightness grad = %v", d.At(0, 1, 1))
	}
}

func TestClampUnitGradGating(t *testing.T) {
	x := tensor.FromSlice([]float64{-0.5, 0.5, 1.5}, 1, 1, 3)
	cl := NewClampUnit()
	out := cl.Forward(x)
	if out.At(0, 0, 0) != 0 || out.At(0, 0, 1) != 0.5 || out.At(0, 0, 2) != 1 {
		t.Fatalf("clamp = %v", out.Data())
	}
	d := cl.Backward(tensor.Ones(1, 1, 3))
	if d.At(0, 0, 0) != 0 || d.At(0, 0, 1) != 1 || d.At(0, 0, 2) != 0 {
		t.Fatalf("clamp grad = %v", d.Data())
	}
}

func TestGrayscaleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	gray := tensor.NewRandU(rng, 0, 1, 1, 4, 4)
	rgb := GrayToRGB(gray)
	back := Grayscale(rgb)
	if d := tensor.MaxAbsDiff(gray, back); d > 1e-9 {
		t.Fatalf("gray→rgb→gray drifted by %v", d)
	}
}

func TestCompositeInkGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bg := tensor.NewRandU(rng, 0, 1, 3, 4, 4)
	gray := tensor.NewRandU(rng, 0, 1, 1, 4, 4)
	cp := NewCompositeInk([3]float64{0.1, 0.1, 0.1})
	out := cp.Forward(bg, gray)
	probe := tensor.NewRandN(rng, 1, out.Shape()...)
	cp.Forward(bg, gray)
	dBg, dGray := cp.Backward(probe)
	loss := func() float64 {
		return tensor.Dot(NewCompositeInk([3]float64{0.1, 0.1, 0.1}).Forward(bg, gray), probe)
	}
	const eps = 1e-6
	check := func(name string, x, grad *tensor.Tensor) {
		for i := 0; i < x.Len(); i += 3 {
			orig := x.Data()[i]
			x.Data()[i] = orig + eps
			lp := loss()
			x.Data()[i] = orig - eps
			lm := loss()
			x.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-grad.Data()[i]) > 1e-5 {
				t.Fatalf("%s grad[%d]: analytic %v numeric %v", name, i, grad.Data()[i], num)
			}
		}
	}
	check("bg", bg, dBg)
	check("gray", gray, dGray)
}

func TestCompositeInkWhiteIsTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bg := tensor.NewRandU(rng, 0, 1, 3, 3, 3)
	white := tensor.Ones(1, 3, 3)
	out := NewCompositeInk([3]float64{0, 0, 0}).Forward(bg, white)
	if d := tensor.MaxAbsDiff(bg, out); d > 1e-12 {
		t.Fatalf("white layer must be invisible, diff %v", d)
	}
	black := tensor.New(1, 3, 3)
	out2 := NewCompositeInk([3]float64{0, 0, 0}).Forward(bg, black)
	if out2.Max() > 1e-12 {
		t.Fatalf("black layer must paint pure ink, max %v", out2.Max())
	}
}

func TestCompositeRGBMask(t *testing.T) {
	bg := tensor.Full(0.2, 3, 2, 2)
	layer := tensor.Full(0.8, 3, 2, 2)
	mask := tensor.New(1, 2, 2)
	mask.Set(1, 0, 0, 0)
	cp := NewCompositeRGB()
	out := cp.Forward(bg, layer, mask)
	if out.At(0, 0, 0) != 0.8 || out.At(0, 1, 1) != 0.2 {
		t.Fatalf("masked composite wrong: %v", out.Data())
	}
	dBg, dLayer := cp.Backward(tensor.Ones(3, 2, 2))
	if dBg.At(0, 0, 0) != 0 || dLayer.At(0, 0, 0) != 1 || dBg.At(0, 1, 1) != 1 {
		t.Fatal("composite gradients wrong")
	}
}

func TestApplyShapeMask(t *testing.T) {
	patch := tensor.FromSlice([]float64{0.25, 0.5, 0.75, 0.875}, 1, 2, 2)
	mask := tensor.FromSlice([]float64{1, 1, 0, 0}, 1, 2, 2)
	out, backward := ApplyShapeMask(patch, mask)
	if out.At(0, 0, 0) != 0.25 || out.At(0, 1, 0) != 1 {
		t.Fatalf("mask application wrong: %v", out.Data())
	}
	d := backward(tensor.Ones(1, 2, 2))
	if d.At(0, 0, 1) != 1 || d.At(0, 1, 1) != 0 {
		t.Fatalf("mask backward wrong: %v", d.Data())
	}
}

func TestBoxBlurPreservesConstant(t *testing.T) {
	img := tensor.Full(0.5, 1, 8, 8)
	for _, l := range []int{3, 5} {
		out := BoxBlurVertical(img, l)
		// Interior rows must stay exactly 0.5; borders darken (zero pad).
		if math.Abs(out.At(0, 4, 4)-0.5) > 1e-12 {
			t.Fatalf("interior changed for l=%d: %v", l, out.At(0, 4, 4))
		}
	}
}

func TestBoxBlurSymmetricOperator(t *testing.T) {
	// <Blur(a), b> == <a, Blur(b)> — needed so eval code can treat blur as
	// self-adjoint.
	rng := rand.New(rand.NewSource(9))
	a := tensor.NewRandN(rng, 1, 1, 7, 7)
	b := tensor.NewRandN(rng, 1, 1, 7, 7)
	for _, l := range []int{2, 3, 4, 5} {
		lhs := tensor.Dot(BoxBlurVertical(a, l), b)
		rhs := tensor.Dot(a, BoxBlurVertical(b, l))
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Fatalf("l=%d: blur not symmetric: %v vs %v", l, lhs, rhs)
		}
		lhs = tensor.Dot(BoxBlurHorizontal(a, l), b)
		rhs = tensor.Dot(a, BoxBlurHorizontal(b, l))
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Fatalf("l=%d: hblur not symmetric: %v vs %v", l, lhs, rhs)
		}
	}
}

func TestBoxBlurEvenLengthPromoted(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	img := tensor.NewRandU(rng, 0, 1, 1, 6, 6)
	if d := tensor.MaxAbsDiff(BoxBlurVertical(img, 2), BoxBlurVertical(img, 3)); d != 0 {
		t.Fatalf("even length must equal next odd length, diff %v", d)
	}
}

func TestBlurNoOpForL1(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	img := tensor.NewRandU(rng, 0, 1, 1, 4, 4)
	if d := tensor.MaxAbsDiff(img, BoxBlurVertical(img, 1)); d != 0 {
		t.Fatalf("l=1 blur changed image by %v", d)
	}
	if d := tensor.MaxAbsDiff(img, GaussianApprox(img, 0)); d != 0 {
		t.Fatalf("sigma=0 gaussian changed image by %v", d)
	}
}

func TestGaussianApproxSmooths(t *testing.T) {
	img := tensor.New(1, 9, 9)
	img.Set(1, 0, 4, 4)
	out := GaussianApprox(img, 1.5)
	if out.At(0, 4, 4) >= 1 || out.At(0, 4, 4) <= 0 {
		t.Fatalf("center value %v", out.At(0, 4, 4))
	}
	if out.At(0, 3, 4) <= 0 {
		t.Fatal("blur did not spread energy")
	}
}

func TestPNGSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "img.png")
	rng := rand.New(rand.NewSource(11))
	img := tensor.NewRandU(rng, 0, 1, 3, 5, 6)
	if err := SavePNG(path, img); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := png.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if b := back.Bounds(); b.Dy() != 5 || b.Dx() != 6 {
		t.Fatalf("bounds = %v", b)
	}
	for y := 0; y < 5; y++ {
		for x := 0; x < 6; x++ {
			rgb := [3]uint32{}
			rgb[0], rgb[1], rgb[2], _ = back.At(x, y).RGBA()
			for c, v := range rgb {
				if d := math.Abs(float64(v)/65535 - img.At(c, y, x)); d > 1.0/255+1e-9 {
					t.Fatalf("png round trip error %v at (%d,%d,%d) exceeds quantization", d, c, y, x)
				}
			}
		}
	}
}

func TestDrawRectClampsAndDraws(t *testing.T) {
	img := tensor.New(3, 8, 8)
	DrawRect(img, -5, 2, 100, 6, [3]float64{1, 0, 0})
	if img.At(0, 2, 0) != 1 || img.At(0, 6, 7) != 1 {
		t.Fatal("rect edges not drawn")
	}
	if img.At(1, 2, 0) != 0 {
		t.Fatal("wrong channel painted")
	}
}

func TestTileHorizontal(t *testing.T) {
	a := tensor.Full(0.2, 3, 4, 3)
	b := tensor.Full(0.8, 1, 4, 2)
	tiled := TileHorizontal([]*tensor.Tensor{a, b}, 1)
	if tiled.Dim(2) != 3+1+2 {
		t.Fatalf("width = %d", tiled.Dim(2))
	}
	if tiled.At(0, 0, 0) != 0.2 || tiled.At(2, 0, 4) != 0.8 {
		t.Fatalf("tiling misplaced: %v %v", tiled.At(0, 0, 0), tiled.At(2, 0, 4))
	}
	if tiled.At(0, 0, 3) != 1 {
		t.Fatal("gutter not white")
	}
}

func TestWarpClampEdgesSamplesBorder(t *testing.T) {
	src := tensor.New(1, 3, 3)
	src.Set(0.7, 0, 0, 0)
	wp := NewWarp(Translate(-2, -2), 3, 3, 0.123)
	wp.ClampEdges = true
	out := wp.Forward(src)
	// Every output pixel samples inside the (clamped) source: no fill value.
	for _, v := range out.Data() {
		if v == 0.123 {
			t.Fatal("ClampEdges warp used the outside fill")
		}
	}
	// Without clamping the same warp fills with Outside.
	wp2 := NewWarp(Translate(-2, -2), 3, 3, 0.123)
	out2 := wp2.Forward(src)
	if out2.At(0, 0, 0) != 0.123 {
		t.Fatalf("expected outside fill, got %v", out2.At(0, 0, 0))
	}
}

func TestWarpDegenerateHomography(t *testing.T) {
	var h Homography // all zeros: Apply reports !ok everywhere
	out := NewWarp(h, 2, 2, 0.5).Forward(tensor.Ones(1, 2, 2))
	for _, v := range out.Data() {
		if v != 0.5 {
			t.Fatalf("degenerate homography must fill Outside, got %v", v)
		}
	}
}

func TestSaveGIFRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	frames := []*tensor.Tensor{
		tensor.NewRandU(rng, 0, 1, 3, 8, 8),
		tensor.NewRandU(rng, 0, 1, 3, 8, 8),
	}
	path := filepath.Join(dir, "anim.gif")
	if err := SaveGIF(path, frames, 10); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatalf("gif missing: %v", err)
	}
}

func TestSaveGIFEmpty(t *testing.T) {
	if err := SaveGIF(filepath.Join(t.TempDir(), "x.gif"), nil, 10); err == nil {
		t.Fatal("expected error for empty frame list")
	}
}
