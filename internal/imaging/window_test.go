package imaging

import (
	"math"
	"math/rand"
	"testing"

	"roadtrojan/internal/tensor"
)

// testWindows are [x0, y0, w, h] windows of a 37×45 raster: the whole
// raster, an interior window, windows touching each edge and empty ones.
var testWindows = [][4]int{
	{0, 0, 45, 37}, {5, 7, 12, 9}, {30, 20, 15, 17}, {0, 30, 45, 7},
	{0, 0, 1, 37}, {10, 10, 0, 5}, {44, 36, 1, 1}, {3, 4, 9, 0},
}

// sameWindow fails unless win [C,h,w] equals the window at (x0, y0) of
// full [C,H,W] bit for bit.
func sameWindow(t *testing.T, name string, win, full *tensor.Tensor, x0, y0 int) {
	t.Helper()
	c, h, w := win.Dim(0), win.Dim(1), win.Dim(2)
	if full.Dim(0) != c {
		t.Fatalf("%s: %d channels vs %d", name, c, full.Dim(0))
	}
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				got, want := win.At(ch, y, x), full.At(ch, y0+y, x0+x)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: texel (%d,%d,%d) = %v, full raster %v", name, ch, y0+y, x0+x, got, want)
				}
			}
		}
	}
}

// padded embeds win [C,h,w] at (x0, y0) in a [C,rows,cols] tensor filled
// with fill.
func padded(win *tensor.Tensor, rows, cols, x0, y0 int, fill float64) *tensor.Tensor {
	c, h, w := win.Dim(0), win.Dim(1), win.Dim(2)
	out := tensor.Full(fill, c, rows, cols)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				out.Set(win.At(ch, y, x), ch, y0+y, x0+x)
			}
		}
	}
	return out
}

// TestWarpWindowMatchesFullRaster pins the output origin: a warp that
// renders a window of the raster gives the window's crop of the
// full-raster Forward bit for bit, and its Backward gives the full
// Backward of the window's gradient padded with zeros.
func TestWarpWindowMatchesFullRaster(t *testing.T) {
	const rows, cols = 37, 45
	rng := rand.New(rand.NewSource(11))
	src := tensor.NewRandU(rng, 0, 1, 2, 19, 23)
	h := RotateAbout(0.37, 11.3, 9.1).Mul(ScaleXY(0.61, 0.53)).Mul(Translate(-3.3, -4.1))
	h[6], h[7] = 1.3e-3, -7.1e-4
	full := NewWarp(h, rows, cols, 0.25)
	fullOut := full.Forward(src)
	for _, win := range testWindows {
		x0, y0, w, hh := win[0], win[1], win[2], win[3]
		wp := NewWarp(h, hh, w, 0.25)
		wp.X0, wp.Y0 = x0, y0
		sameWindow(t, "forward", wp.Forward(src), fullOut, x0, y0)

		probe := tensor.NewRandN(rng, 1, 2, hh, w)
		got := wp.Backward(probe)
		want := full.Backward(padded(probe, rows, cols, x0, y0, 0))
		sameWindow(t, "backward", got, want, 0, 0)
	}
}

// TestCompositeWindowMatchesFullCanvas checks ForwardAt and BackwardAt
// against Forward and Backward with the layer padded to the canvas by
// transparent texels (gray 1 for ink, mask 0 for RGB), bit for bit in
// both directions, and that the canvas gradient passes through outside
// the window.
func TestCompositeWindowMatchesFullCanvas(t *testing.T) {
	const rows, cols = 37, 45
	rng := rand.New(rand.NewSource(12))
	bg := tensor.NewRandU(rng, 0, 1, 3, rows, cols)
	dOut := tensor.NewRandN(rng, 1, 3, rows, cols)
	ink := [3]float64{0.05, 0.05, 0.051}
	for _, win := range testWindows {
		x0, y0, w, h := win[0], win[1], win[2], win[3]

		gray := tensor.NewRandU(rng, 0, 1, 1, h, w)
		full := NewCompositeInk(ink)
		fullOut := full.Forward(bg, padded(gray, rows, cols, x0, y0, 1))
		dBg, dGray := full.Backward(dOut)
		cp := NewCompositeInk(ink)
		canvas := bg.Clone()
		cp.ForwardAt(canvas, gray, x0, y0)
		sameWindow(t, "ink forward", canvas, fullOut, 0, 0)
		d := dOut.Clone()
		sameWindow(t, "ink dGray", cp.BackwardAt(d), dGray, x0, y0)
		sameWindow(t, "ink dBg", d, dBg, 0, 0)

		layer := tensor.NewRandU(rng, 0, 1, 3, h, w)
		mask := tensor.NewRandU(rng, 0, 1, 1, h, w)
		fullRGB := NewCompositeRGB()
		fullOut = fullRGB.Forward(bg, padded(layer, rows, cols, x0, y0, 0), padded(mask, rows, cols, x0, y0, 0))
		dBg, dLayer := fullRGB.Backward(dOut)
		rgb := NewCompositeRGB()
		canvas = bg.Clone()
		rgb.ForwardAt(canvas, layer, mask, x0, y0)
		sameWindow(t, "rgb forward", canvas, fullOut, 0, 0)
		d = dOut.Clone()
		sameWindow(t, "rgb dLayer", rgb.BackwardAt(d), dLayer, x0, y0)
		sameWindow(t, "rgb dBg", d, dBg, 0, 0)
	}
}

func TestCompositeWindowOutsideCanvasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a window past the canvas edge must panic")
		}
	}()
	NewCompositeInk([3]float64{}).ForwardAt(tensor.New(3, 4, 4), tensor.New(1, 2, 2), 3, 0)
}
