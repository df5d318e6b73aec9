package scene

import (
	"math"
	"math/rand"

	"roadtrojan/internal/imaging"
	"roadtrojan/internal/tensor"
)

// Ground is a rasterized ground-plane texture with a meters⇄texels mapping.
// Texel row 0 is the *far* edge (gy = LengthM); the bottom row is gy = 0.
// Column 0 is gx = −WidthM/2.
type Ground struct {
	Tex     *tensor.Tensor // [3, rows, cols]
	WidthM  float64
	LengthM float64
	MPP     float64 // meters per texel
}

// Rows and Cols report the texture raster size.
func (g *Ground) Rows() int { return g.Tex.Dim(1) }

// Cols reports the texture width in texels.
func (g *Ground) Cols() int { return g.Tex.Dim(2) }

// TexelOf converts ground meters to texture pixel coordinates.
func (g *Ground) TexelOf(gx, gy float64) (tx, ty float64) {
	tx = (gx + g.WidthM/2) / g.MPP
	ty = (g.LengthM - gy) / g.MPP
	return tx, ty
}

// MetersOf converts texture pixel coordinates to ground meters.
func (g *Ground) MetersOf(tx, ty float64) (gx, gy float64) {
	gx = tx*g.MPP - g.WidthM/2
	gy = g.LengthM - ty*g.MPP
	return gx, gy
}

// DecalQuad returns the texture-pixel corner quad of a square decal of side
// sizeM centered at (gx, gy) and rotated by rot radians on the ground. The
// corners run (−,−), (+,−), (+,+), (−,+), the order of a patch raster's
// corners (0,0), (R−1,0), (R−1,R−1), (0,R−1).
func (g *Ground) DecalQuad(gx, gy, sizeM, rot float64) [4]imaging.Point {
	h := sizeM / 2
	corners := [4][2]float64{{-h, -h}, {h, -h}, {h, h}, {-h, h}}
	c, s := math.Cos(rot), math.Sin(rot)
	var quad [4]imaging.Point
	for i, cr := range corners {
		rx := cr[0]*c - cr[1]*s
		ry := cr[0]*s + cr[1]*c
		tx, ty := g.TexelOf(gx+rx, gy+ry)
		quad[i] = imaging.Point{X: tx, Y: ty}
	}
	return quad
}

// NewRoad builds an asphalt ground texture with edge lines and a dashed
// center line, plus per-texel noise — the "real-world environment".
func NewRoad(rng *rand.Rand, widthM, lengthM, mpp float64) *Ground {
	cols := int(widthM / mpp)
	rows := int(lengthM / mpp)
	g := &Ground{Tex: tensor.New(3, rows, cols), WidthM: widthM, LengthM: lengthM, MPP: mpp}
	n := rows * cols
	for i := 0; i < n; i++ {
		v := 0.32 + rng.Float64()*0.08 // asphalt gray with speckle
		g.Tex.Data()[i] = v
		g.Tex.Data()[n+i] = v
		g.Tex.Data()[2*n+i] = v + rng.Float64()*0.01
	}
	// Edge lines (solid white) and center dashed line.
	edge := int(0.15 / mpp)
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			white := false
			if x < edge || x >= cols-edge {
				white = true
			}
			if abs(x-cols/2) < edge/2 && (y/int(1.5/mpp))%2 == 0 {
				white = true
			}
			if white {
				i := y*cols + x
				g.Tex.Data()[i] = 0.85
				g.Tex.Data()[n+i] = 0.85
				g.Tex.Data()[2*n+i] = 0.82
			}
		}
	}
	return g
}

// NewSimRoom builds the paper's simulated environment: uniform gray paper
// standing in for the road, with no texture noise.
func NewSimRoom(widthM, lengthM, mpp float64) *Ground {
	cols := int(widthM / mpp)
	rows := int(lengthM / mpp)
	g := &Ground{Tex: tensor.Full(0.55, 3, rows, cols), WidthM: widthM, LengthM: lengthM, MPP: mpp}
	return g
}

// PaintArrow paints a white forward arrow (the "mark" class, the attack's
// target object) centered at (gx, gy) with total length lenM. It returns the
// ground-space bounding box (gx0, gy0, gx1, gy1).
func (g *Ground) PaintArrow(gx, gy, lenM float64) (gx0, gy0, gx1, gy1 float64) {
	widthM := lenM * 0.55
	shaftW := widthM * 0.35
	headLen := lenM * 0.45
	gx0, gy0 = gx-widthM/2, gy-lenM/2
	gx1, gy1 = gx+widthM/2, gy+lenM/2
	g.paintRegion(gx0, gy0, gx1, gy1, func(px, py float64) bool {
		// Local coords: u lateral ∈ [−w/2, w/2], v along arrow ∈ [0, len].
		u := px - gx
		v := py - (gy - lenM/2)
		if v < 0 || v > lenM {
			return false
		}
		if v < lenM-headLen {
			return math.Abs(u) <= shaftW/2
		}
		// Triangular head narrowing toward the tip (far end, larger gy).
		t := (lenM - v) / headLen // 1 at head base, 0 at tip
		return math.Abs(u) <= t*widthM/2
	}, [3]float64{0.92, 0.92, 0.9})
	return gx0, gy0, gx1, gy1
}

// PaintWordStripes paints a word-like block of horizontal stripes (the
// "word" class, e.g. "SLOW" painted on the road). Returns its ground bbox.
func (g *Ground) PaintWordStripes(gx, gy, widthM float64) (gx0, gy0, gx1, gy1 float64) {
	return g.PaintWordStripesN(gx, gy, widthM, 5, 0)
}

// PaintWordStripesN paints a word block with the given stripe count and a
// gap fraction of missing paint per stripe (worn lettering) — intra-class
// variation that keeps the detector's class boundaries realistic.
func (g *Ground) PaintWordStripesN(gx, gy, widthM float64, stripes int, gapFrac float64) (gx0, gy0, gx1, gy1 float64) {
	if stripes < 2 {
		stripes = 2
	}
	heightM := widthM * 0.5
	gx0, gy0 = gx-widthM/2, gy-heightM/2
	gx1, gy1 = gx+widthM/2, gy+heightM/2
	stripe := heightM / float64(stripes)
	g.paintRegion(gx0, gy0, gx1, gy1, func(px, py float64) bool {
		v := py - gy0
		band := int(v / stripe)
		if band%2 != 0 {
			return false
		}
		if gapFrac > 0 {
			// Periodic horizontal gaps simulate separated letters.
			u := px - gx0
			phase := u / (widthM / 4)
			if phase-math.Floor(phase) < gapFrac {
				return false
			}
		}
		return true
	}, [3]float64{0.9, 0.9, 0.88})
	return gx0, gy0, gx1, gy1
}

// WearArrow erodes an already-painted arrow with dark speckle holes,
// simulating worn road paint (makes the "mark" class less uniform).
func (g *Ground) WearArrow(rng *rand.Rand, gx, gy, lenM, holeFrac float64) {
	widthM := lenM * 0.55
	g.paintRegionIf(gx-widthM/2, gy-lenM/2, gx+widthM/2, gy+lenM/2, func(px, py float64) bool {
		return rng.Float64() < holeFrac
	}, [3]float64{0.38, 0.38, 0.39}, true)
}

// paintRegionIf is paintRegion but only recolors texels that are already
// bright (painted) when brightOnly is set.
func (g *Ground) paintRegionIf(gx0, gy0, gx1, gy1 float64, inside func(px, py float64) bool, col [3]float64, brightOnly bool) {
	tx0, ty1 := g.TexelOf(gx0, gy0)
	tx1, ty0 := g.TexelOf(gx1, gy1)
	rows, cols := g.Rows(), g.Cols()
	n := rows * cols
	y0, y1 := clampI(int(ty0), 0, rows-1), clampI(int(ty1)+1, 0, rows-1)
	x0, x1 := clampI(int(tx0), 0, cols-1), clampI(int(tx1)+1, 0, cols-1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			px, py := g.MetersOf(float64(x)+0.5, float64(y)+0.5)
			if px < gx0 || px > gx1 || py < gy0 || py > gy1 || !inside(px, py) {
				continue
			}
			i := y*cols + x
			if brightOnly && g.Tex.Data()[i] < 0.7 {
				continue
			}
			g.Tex.Data()[i] = col[0]
			g.Tex.Data()[n+i] = col[1]
			g.Tex.Data()[2*n+i] = col[2]
		}
	}
}

// PaintCrosswalkBar paints a single crosswalk bar (scene clutter).
func (g *Ground) PaintCrosswalkBar(gx, gy, widthM, heightM float64) {
	g.paintRegion(gx-widthM/2, gy-heightM/2, gx+widthM/2, gy+heightM/2,
		func(px, py float64) bool { return true }, [3]float64{0.88, 0.88, 0.86})
}

// paintRegion fills texels whose ground coordinates satisfy inside().
func (g *Ground) paintRegion(gx0, gy0, gx1, gy1 float64, inside func(px, py float64) bool, col [3]float64) {
	tx0, ty1 := g.TexelOf(gx0, gy0)
	tx1, ty0 := g.TexelOf(gx1, gy1)
	rows, cols := g.Rows(), g.Cols()
	n := rows * cols
	y0, y1 := clampI(int(ty0), 0, rows-1), clampI(int(ty1)+1, 0, rows-1)
	x0, x1 := clampI(int(tx0), 0, cols-1), clampI(int(tx1)+1, 0, cols-1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			px, py := g.MetersOf(float64(x)+0.5, float64(y)+0.5)
			if px < gx0 || px > gx1 || py < gy0 || py > gy1 || !inside(px, py) {
				continue
			}
			i := y*cols + x
			g.Tex.Data()[i] = col[0]
			g.Tex.Data()[n+i] = col[1]
			g.Tex.Data()[2*n+i] = col[2]
		}
	}
}

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// CastShadow darkens a rectangular ground region by the given factor
// (0 = black, 1 = no shadow) with a soft penumbra near the edges — the
// "shadow" environmental challenge from the paper's abstract. It mutates
// the texture in place.
func (g *Ground) CastShadow(gx0, gy0, gx1, gy1, dim float64) {
	if dim >= 1 {
		return
	}
	tx0, ty1 := g.TexelOf(gx0, gy0)
	tx1, ty0 := g.TexelOf(gx1, gy1)
	rows, cols := g.Rows(), g.Cols()
	n := rows * cols
	y0, y1i := clampI(int(ty0), 0, rows-1), clampI(int(ty1)+1, 0, rows-1)
	x0, x1i := clampI(int(tx0), 0, cols-1), clampI(int(tx1)+1, 0, cols-1)
	penumbra := 0.15 / g.MPP // 15 cm soft edge in texels
	for y := y0; y <= y1i; y++ {
		for x := x0; x <= x1i; x++ {
			// Distance to the nearest edge, for the soft falloff: no shadow
			// at the boundary, full dimming one penumbra inside.
			d := math.Min(
				math.Min(float64(x)-tx0, tx1-float64(x)),
				math.Min(float64(y)-ty0, ty1-float64(y)),
			)
			f := dim
			if penumbra > 0 && d < penumbra {
				t := d / penumbra
				f = 1 - (1-dim)*t
			}
			i := y*cols + x
			g.Tex.Data()[i] *= f
			g.Tex.Data()[n+i] *= f
			g.Tex.Data()[2*n+i] *= f
		}
	}
}
