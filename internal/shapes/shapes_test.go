package shapes

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStringAndParseRoundTrip(t *testing.T) {
	for _, s := range []Shape{Star, Circle, Square, Triangle} {
		got, err := ParseShape(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip %v: got %v err %v", s, got, err)
		}
	}
	if _, err := ParseShape("hexagon"); err == nil {
		t.Fatal("expected error for unknown shape")
	}
}

func TestMaskBounds(t *testing.T) {
	for _, s := range []Shape{Star, Circle, Square, Triangle} {
		m := Mask(s, 24, 1, 0)
		if m.Min() < 0 || m.Max() > 1 {
			t.Fatalf("%v mask out of [0,1]: [%v,%v]", s, m.Min(), m.Max())
		}
		if m.Max() == 0 {
			t.Fatalf("%v mask empty", s)
		}
		// Corners of the tile are outside every shape.
		if m.At(0, 0, 0) != 0 || m.At(0, 23, 23) != 0 {
			t.Fatalf("%v covers tile corners", s)
		}
		// Center is inside every shape.
		if m.At(0, 12, 12) != 1 {
			t.Fatalf("%v does not cover the tile center: %v", s, m.At(0, 12, 12))
		}
	}
}

func TestRenderIsInvertedMask(t *testing.T) {
	m := Mask(Star, 16, 1, 0)
	r := Render(Star, 16, 1, 0)
	for i := range m.Data() {
		if math.Abs(m.Data()[i]+r.Data()[i]-1) > 1e-12 {
			t.Fatal("Render must be 1 − Mask")
		}
	}
}

func TestAreasComparable(t *testing.T) {
	// At scale 1 all four shapes should cover a nontrivial, same-order
	// fraction of their tile.
	areas := map[Shape]float64{}
	for _, s := range []Shape{Star, Circle, Square, Triangle} {
		areas[s] = Mask(s, 48, 1, 0).Mean()
		if areas[s] < 0.2 || areas[s] > 0.9 {
			t.Fatalf("%v area = %v, outside sane range", s, areas[s])
		}
	}
	if areas[Square] <= areas[Star] {
		t.Fatalf("square (%v) should cover more than star (%v)", areas[Square], areas[Star])
	}
	if areas[Square] <= areas[Triangle] {
		t.Fatalf("square (%v) should cover more than triangle (%v)", areas[Square], areas[Triangle])
	}
}

func TestRotationInvariantAreaCircle(t *testing.T) {
	a0 := Mask(Circle, 32, 0.9, 0).Mean()
	m := Mask(Circle, 32, 0.9, 1.1)
	if math.Abs(a0-m.Mean()) > 0.01 {
		t.Fatalf("circle area changed under rotation: %v vs %v", a0, m.Mean())
	}
}

// scaleForArea returns the scale at which the shape covers approximately
// the target area fraction of its tile, found by bisection.
func scaleForArea(s Shape, k int, target float64) float64 {
	lo, hi := 0.05, 1.0
	for i := 0; i < 24; i++ {
		mid := (lo + hi) / 2
		if Mask(s, k, mid, 0).Mean() < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func TestScaleForAreaBisection(t *testing.T) {
	for _, s := range []Shape{Star, Circle, Square, Triangle} {
		target := 0.3
		scale := scaleForArea(s, 40, target)
		got := Mask(s, 40, scale, 0).Mean()
		// Raster + 2×2 supersampling quantizes coverage in visible steps,
		// so the solved area can only match to within roughly one edge row.
		if math.Abs(got-target) > 0.035 {
			t.Fatalf("%v: area at solved scale = %v, want ≈ %v", s, got, target)
		}
	}
}

func TestSamplesShapeAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := Samples(rng, Triangle, 20, 5)
	if b.Dim(0) != 5 || b.Dim(1) != 1 || b.Dim(2) != 20 {
		t.Fatalf("batch shape = %v", b.Shape())
	}
	if b.Min() < 0 || b.Max() > 1 {
		t.Fatal("sample values out of range")
	}
	// Jitter means two samples should differ.
	a := b.Data()[:400]
	c := b.Data()[400:800]
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("samples are not jittered")
	}
}

func TestPropMaskScalingMonotone(t *testing.T) {
	// Larger scale ⇒ area must not shrink.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := []Shape{Star, Circle, Square, Triangle}[r.Intn(4)]
		s1 := 0.3 + r.Float64()*0.3
		s2 := s1 + 0.2
		return Mask(s, 32, s2, 0).Mean() >= Mask(s, 32, s1, 0).Mean()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMaskValuesQuantized(t *testing.T) {
	// 2×2 supersampling only yields multiples of 0.25.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := []Shape{Star, Circle, Square, Triangle}[r.Intn(4)]
		m := Mask(s, 8+r.Intn(16), 0.5+r.Float64()*0.5, r.Float64())
		for _, v := range m.Data() {
			q := v * 4
			if math.Abs(q-math.Round(q)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}

func TestStarHasLongerEdgePerimeterThanCircle(t *testing.T) {
	// The paper attributes star superiority to its many corners; as a crude
	// raster proxy, the star's mask boundary (pixels with fractional
	// coverage) should be longer than the circle's at equal area.
	starScale := scaleForArea(Star, 48, 0.35)
	circleScale := scaleForArea(Circle, 48, 0.35)
	boundary := func(s Shape, scale float64) int {
		m := Mask(s, 48, scale, 0)
		n := 0
		for _, v := range m.Data() {
			if v > 0 && v < 1 {
				n++
			}
		}
		return n
	}
	if boundary(Star, starScale) <= boundary(Circle, circleScale) {
		t.Fatal("star boundary should exceed circle boundary at equal area")
	}
}

func TestMaskDeterministic(t *testing.T) {
	a := Mask(Star, 24, 0.9, 0.3)
	b := Mask(Star, 24, 0.9, 0.3)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("Mask must be deterministic")
		}
	}
}

func TestAllListsFourShapes(t *testing.T) {
	if len(All) != 4 {
		t.Fatalf("All has %d shapes", len(All))
	}
	seen := map[Shape]bool{}
	for _, s := range All {
		seen[s] = true
	}
	for _, s := range []Shape{Star, Circle, Square, Triangle} {
		if !seen[s] {
			t.Fatalf("All missing %v", s)
		}
	}
}

func TestMaskRotationMovesCorners(t *testing.T) {
	a := Mask(Triangle, 32, 0.9, 0)
	b := Mask(Triangle, 32, 0.9, 1.0)
	diff := 0
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			diff++
		}
	}
	if diff < 20 {
		t.Fatalf("rotation changed only %d texels", diff)
	}
}
