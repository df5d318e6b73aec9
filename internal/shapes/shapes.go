// Package shapes procedurally renders the Four Shapes dataset the paper
// draws adversarial-patch silhouettes from: star, circle, square and
// triangle, each a black shape on a white background. The renderers provide
// both display images (black-on-white, antialiased) and binary masks
// (1 inside the shape), plus jittered sample batches used as the GAN
// discriminator's "real" distribution.
package shapes

import (
	"fmt"
	"math"
	"math/rand"

	"roadtrojan/internal/tensor"
)

// Shape enumerates the Four Shapes classes.
type Shape int

// The four patch silhouettes studied in Table V.
const (
	Star Shape = iota + 1
	Circle
	Square
	Triangle
)

// All lists every shape in Table V's order of interest.
var All = []Shape{Triangle, Circle, Star, Square}

// String returns the lowercase shape name.
func (s Shape) String() string {
	switch s {
	case Star:
		return "star"
	case Circle:
		return "circle"
	case Square:
		return "square"
	case Triangle:
		return "triangle"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// ParseShape converts a name to a Shape.
func ParseShape(name string) (Shape, error) {
	for _, s := range []Shape{Star, Circle, Square, Triangle} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("shapes: unknown shape %q", name)
}

// polygon returns the shape's outline as unit-disk vertices (radius ≤ 1,
// centered at the origin, y up), or nil for Circle.
func (s Shape) polygon() []point {
	switch s {
	case Star:
		pts := make([]point, 10)
		for i := 0; i < 10; i++ {
			r := 1.0
			if i%2 == 1 {
				r = 0.42 // classic five-point star inner radius ratio
			}
			a := math.Pi/2 + float64(i)*math.Pi/5
			pts[i] = point{x: r * math.Cos(a), y: r * math.Sin(a)}
		}
		return pts
	case Square:
		const r = 0.78 // matches the other shapes' visual mass
		return []point{{-r, -r}, {r, -r}, {r, r}, {-r, r}}
	case Triangle:
		pts := make([]point, 3)
		for i := 0; i < 3; i++ {
			a := math.Pi/2 + float64(i)*2*math.Pi/3
			pts[i] = point{x: math.Cos(a), y: math.Sin(a)}
		}
		return pts
	default:
		return nil
	}
}

type point struct{ x, y float64 }

// outline is a shape posed at one scale and rotation: the inverse rotation
// and the polygon, computed once for every point a mask tests.
type outline struct {
	circle       bool
	c, sn, scale float64
	poly         []point
}

func (s Shape) outline(scale, rot float64) outline {
	return outline{circle: s == Circle, c: math.Cos(-rot), sn: math.Sin(-rot), scale: scale, poly: s.polygon()}
}

// inside reports whether the normalized point (unit-disk coordinates) lies
// inside the posed shape.
func (o *outline) inside(x, y float64) bool {
	// Undo rotation.
	rx := (x*o.c - y*o.sn) / o.scale
	ry := (x*o.sn + y*o.c) / o.scale
	if o.circle {
		return rx*rx+ry*ry <= 0.81 // radius 0.9 keeps area comparable
	}
	return pointInPolygon(rx, ry, o.poly)
}

// pointInPolygon uses the even-odd ray-casting rule.
func pointInPolygon(x, y float64, poly []point) bool {
	inside := false
	n := len(poly)
	j := n - 1
	for i := 0; i < n; i++ {
		pi, pj := poly[i], poly[j]
		if (pi.y > y) != (pj.y > y) &&
			x < (pj.x-pi.x)*(y-pi.y)/(pj.y-pi.y)+pi.x {
			inside = !inside
		}
		j = i
	}
	return inside
}

// Mask renders a [1,k,k] coverage mask for the shape: 1 inside, 0 outside,
// antialiased by 2×2 supersampling. scale ∈ (0,1] shrinks the silhouette
// inside the tile; rot rotates it (radians).
func Mask(s Shape, k int, scale, rot float64) *tensor.Tensor {
	out := tensor.New(1, k, k)
	o := s.outline(scale, rot)
	half := float64(k) / 2
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			hits := 0
			for sy := 0; sy < 2; sy++ {
				for sx := 0; sx < 2; sx++ {
					px := (float64(x) + 0.25 + 0.5*float64(sx) - half) / half
					py := (float64(y) + 0.25 + 0.5*float64(sy) - half) / half
					if o.inside(px, py) {
						hits++
					}
				}
			}
			out.Set(float64(hits)/4, 0, y, x)
		}
	}
	return out
}

// Render returns the shape as a black-on-white [1,k,k] image, the form the
// Four Shapes dataset stores.
func Render(s Shape, k int, scale, rot float64) *tensor.Tensor {
	m := Mask(s, k, scale, rot)
	return m.Map(func(v float64) float64 { return 1 - v })
}

// Samples draws n jittered black-on-white shape images of size k — random
// small rotations and scale wobble — forming the GAN's "real" batch.
func Samples(rng *rand.Rand, s Shape, k, n int) *tensor.Tensor {
	out := tensor.New(n, 1, k, k)
	for i := 0; i < n; i++ {
		scale := 0.85 + rng.Float64()*0.15
		rot := (rng.Float64() - 0.5) * math.Pi / 4
		img := Render(s, k, scale, rot)
		copy(out.Data()[i*k*k:(i+1)*k*k], img.Data())
	}
	return out
}

// Area returns the fraction of the k×k tile covered by the shape at the
// given scale (rotation-invariant up to raster error).
func Area(s Shape, k int, scale float64) float64 {
	return Mask(s, k, scale, 0).Mean()
}

// ScaleForArea returns the scale at which the shape covers approximately the
// target area fraction of its tile, found by bisection.
func ScaleForArea(s Shape, k int, target float64) float64 {
	lo, hi := 0.05, 1.0
	for i := 0; i < 24; i++ {
		mid := (lo + hi) / 2
		if Area(s, k, mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
