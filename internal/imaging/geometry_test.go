package imaging

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIdentityApply(t *testing.T) {
	h := Identity()
	u, v, ok := h.Apply(3.5, -2)
	if !ok || u != 3.5 || v != -2 {
		t.Fatalf("identity moved the point: %v %v %v", u, v, ok)
	}
}

func TestTranslateScaleRotate(t *testing.T) {
	u, v, _ := Translate(2, 3).Apply(1, 1)
	if u != 3 || v != 4 {
		t.Fatalf("translate = (%v,%v)", u, v)
	}
	u, v, _ = ScaleXY(2, 0.5).Apply(4, 4)
	if u != 8 || v != 2 {
		t.Fatalf("scale = (%v,%v)", u, v)
	}
	// 90° rotation about (1,1): (2,1) → (1,2).
	u, v, _ = RotateAbout(math.Pi/2, 1, 1).Apply(2, 1)
	if !almostEq(u, 1, 1e-12) || !almostEq(v, 2, 1e-12) {
		t.Fatalf("rotate = (%v,%v)", u, v)
	}
}

func TestMulComposesRightToLeft(t *testing.T) {
	// h = Translate(1,0) ∘ Scale(2,2): scale first, then translate.
	h := Translate(1, 0).Mul(ScaleXY(2, 2))
	u, v, _ := h.Apply(3, 3)
	if u != 7 || v != 6 {
		t.Fatalf("compose = (%v,%v), want (7,6)", u, v)
	}
}

func TestInvertRoundTrip(t *testing.T) {
	h := Translate(5, -2).Mul(RotateAbout(0.3, 2, 2)).Mul(ScaleXY(1.5, 0.75))
	inv, err := h.Invert()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{{0, 0}, {3, 7}, {-2, 4}} {
		u, v, _ := h.Apply(p.X, p.Y)
		x, y, _ := inv.Apply(u, v)
		if !almostEq(x, p.X, 1e-9) || !almostEq(y, p.Y, 1e-9) {
			t.Fatalf("invert round trip failed for %v: got (%v,%v)", p, x, y)
		}
	}
}

func TestInvertSingular(t *testing.T) {
	var h Homography // all zeros
	if _, err := h.Invert(); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestQuadToQuadMapsCorners(t *testing.T) {
	src := [4]Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	dst := [4]Point{{2, 1}, {9, 2}, {11, 12}, {1, 8}}
	h, err := QuadToQuad(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		u, v, ok := h.Apply(src[i].X, src[i].Y)
		if !ok || !almostEq(u, dst[i].X, 1e-8) || !almostEq(v, dst[i].Y, 1e-8) {
			t.Fatalf("corner %d maps to (%v,%v), want %v", i, u, v, dst[i])
		}
	}
}

func TestQuadToQuadDegenerate(t *testing.T) {
	src := [4]Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}} // collinear
	dst := [4]Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	if _, err := QuadToQuad(src, dst); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular for collinear quad, got %v", err)
	}
}

func TestUnitSquareTo(t *testing.T) {
	quad := [4]Point{{5, 5}, {15, 6}, {14, 18}, {4, 16}}
	h, err := QuadToQuad([4]Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}}, quad)
	if err != nil {
		t.Fatal(err)
	}
	u, v, _ := h.Apply(0.5, 0.5)
	// Center of the unit square must land strictly inside the quad's bbox.
	if u < 4 || u > 15 || v < 5 || v > 18 {
		t.Fatalf("center maps outside: (%v,%v)", u, v)
	}
}

func TestPropQuadToQuadRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random convex-ish quad via jittered square corners.
		jitter := func(x, y float64) Point {
			return Point{X: x + r.Float64()*2 - 1, Y: y + r.Float64()*2 - 1}
		}
		dst := [4]Point{jitter(0, 0), jitter(10, 0), jitter(10, 10), jitter(0, 10)}
		src := [4]Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
		h, err := QuadToQuad(src, dst)
		if err != nil {
			return true // skip rare degenerate draws
		}
		inv, err := h.Invert()
		if err != nil {
			return true
		}
		// Interior points must round trip.
		for k := 0; k < 5; k++ {
			x, y := r.Float64()*10, r.Float64()*10
			u, v, ok1 := h.Apply(x, y)
			if !ok1 {
				return true
			}
			bx, by, ok2 := inv.Apply(u, v)
			if !ok2 || !almostEq(bx, x, 1e-6) || !almostEq(by, y, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
