// Package imaging provides image⇄tensor conversion, PNG I/O, homography
// geometry, and the differentiable image operations (bilinear warping,
// gamma/brightness adjustment, alpha compositing, blur) the attack pipeline
// backpropagates through. Images are CHW tensors with values in [0,1];
// color images have 3 channels (RGB), masks and patches have 1.
package imaging

import (
	"errors"
	"fmt"
	"math"
)

// Point is a 2-D point in pixel coordinates.
type Point struct {
	X, Y float64
}

// Homography is a 3×3 projective transform in row-major order. Applying it
// to (x, y) maps through homogeneous coordinates.
type Homography [9]float64

// ErrSingular is returned when a homography (or the 4-point system defining
// one) is not invertible.
var ErrSingular = errors.New("imaging: singular homography")

// Identity returns the identity transform.
func Identity() Homography {
	return Homography{1, 0, 0, 0, 1, 0, 0, 0, 1}
}

// Translate returns a transform moving points by (tx, ty).
func Translate(tx, ty float64) Homography {
	return Homography{1, 0, tx, 0, 1, ty, 0, 0, 1}
}

// ScaleXY returns a transform scaling x by sx and y by sy about the origin.
func ScaleXY(sx, sy float64) Homography {
	return Homography{sx, 0, 0, 0, sy, 0, 0, 0, 1}
}

// RotateAbout returns a rotation by theta radians about center (cx, cy).
func RotateAbout(theta, cx, cy float64) Homography {
	c, s := math.Cos(theta), math.Sin(theta)
	// T(c) · R · T(−c)
	return Homography{
		c, -s, cx - c*cx + s*cy,
		s, c, cy - s*cx - c*cy,
		0, 0, 1,
	}
}

// Mul returns h∘g, the transform applying g first and then h.
func (h Homography) Mul(g Homography) Homography {
	var out Homography
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += h[r*3+k] * g[k*3+c]
			}
			out[r*3+c] = s
		}
	}
	return out
}

// Apply maps (x, y) through the homography. ok is false when the point maps
// to infinity (w ≈ 0).
func (h Homography) Apply(x, y float64) (u, v float64, ok bool) {
	w := h[6]*x + h[7]*y + h[8]
	if math.Abs(w) < 1e-12 {
		return 0, 0, false
	}
	inv := 1 / w
	return (h[0]*x + h[1]*y + h[2]) * inv, (h[3]*x + h[4]*y + h[5]) * inv, true
}

// Invert returns h⁻¹ via the adjugate, or ErrSingular.
func (h Homography) Invert() (Homography, error) {
	a, b, c := h[0], h[1], h[2]
	d, e, f := h[3], h[4], h[5]
	g, hh, i := h[6], h[7], h[8]
	det := a*(e*i-f*hh) - b*(d*i-f*g) + c*(d*hh-e*g)
	if math.Abs(det) < 1e-14 {
		return Homography{}, ErrSingular
	}
	inv := 1 / det
	return Homography{
		(e*i - f*hh) * inv, (c*hh - b*i) * inv, (b*f - c*e) * inv,
		(f*g - d*i) * inv, (a*i - c*g) * inv, (c*d - a*f) * inv,
		(d*hh - e*g) * inv, (b*g - a*hh) * inv, (a*e - b*d) * inv,
	}, nil
}

// QuadToQuad solves for the homography mapping the four src points onto the
// four dst points (in order). It solves the standard 8×8 linear system with
// partial-pivot Gaussian elimination.
func QuadToQuad(src, dst [4]Point) (Homography, error) {
	// Unknowns: h0..h7 with h8 = 1.
	var a [8][9]float64
	for i := 0; i < 4; i++ {
		sx, sy := src[i].X, src[i].Y
		dx, dy := dst[i].X, dst[i].Y
		a[2*i] = [9]float64{sx, sy, 1, 0, 0, 0, -dx * sx, -dx * sy, dx}
		a[2*i+1] = [9]float64{0, 0, 0, sx, sy, 1, -dy * sx, -dy * sy, dy}
	}
	for col := 0; col < 8; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < 8; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return Homography{}, fmt.Errorf("%w: degenerate quad", ErrSingular)
		}
		a[col], a[piv] = a[piv], a[col]
		inv := 1 / a[col][col]
		for c := col; c < 9; c++ {
			a[col][c] *= inv
		}
		for r := 0; r < 8; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for c := col; c < 9; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	return Homography{
		a[0][8], a[1][8], a[2][8],
		a[3][8], a[4][8], a[5][8],
		a[6][8], a[7][8], 1,
	}, nil
}
