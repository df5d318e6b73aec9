package imaging

import (
	"fmt"

	"roadtrojan/internal/tensor"
)

// CompositeInk alpha-composites a *monochrome* decal over an RGB canvas.
// The decal input is a full-canvas grayscale layer (the patch already warped
// into place, with 1.0 = white = fully transparent background, matching the
// paper's "remove the backgrounds from the APs"): opacity = 1 − gray, and
// covered pixels blend toward the ink color.
//
//	out_c = bg_c·gray + ink_c·(1 − gray)
//
// Both the canvas and the decal layer receive gradients, so stacking N
// decals (each composite's output is the next one's canvas) backpropagates
// correctly.
//
// ForwardAt and BackwardAt composite a layer smaller than the canvas, in
// place, at an origin. They give the bits Forward and Backward give with
// the layer padded to the canvas by transparent texels: there gray is 1,
// so bg·1 + ink·0 = bg and dBg = dOut·1.
type CompositeInk struct {
	Ink [3]float64 // ink color; road paint is near-black by default

	lastBg   *tensor.Tensor
	lastGray *tensor.Tensor
	x0, y0   int // ForwardAt's origin
}

// NewCompositeInk returns a compositor with the given ink color.
func NewCompositeInk(ink [3]float64) *CompositeInk { return &CompositeInk{Ink: ink} }

// Forward blends gray [1,H,W] over bg [3,H,W].
func (cp *CompositeInk) Forward(bg, gray *tensor.Tensor) *tensor.Tensor {
	h, w := bg.Dim(1), bg.Dim(2)
	if gray.Dim(1) != h || gray.Dim(2) != w {
		panic(fmt.Sprintf("imaging: CompositeInk size mismatch bg %v gray %v", bg.Shape(), gray.Shape()))
	}
	cp.lastBg, cp.lastGray = bg, gray
	out := tensor.New(3, h, w)
	n := h * w
	for c := 0; c < 3; c++ {
		ink := cp.Ink[c]
		bgp := bg.Data()[c*n : (c+1)*n]
		op := out.Data()[c*n : (c+1)*n]
		for i := 0; i < n; i++ {
			g := gray.Data()[i]
			op[i] = bgp[i]*g + ink*(1-g)
		}
	}
	return out
}

// ForwardAt blends gray [1,h,w] into canvas [3,H,W] in place, the layer's
// top-left texel on canvas texel (x0, y0). The layer must lie inside the
// canvas; texels outside it keep their value.
func (cp *CompositeInk) ForwardAt(canvas, gray *tensor.Tensor, x0, y0 int) {
	out := cp.Forward(cropWindow(canvas, x0, y0, gray.Dim(1), gray.Dim(2)), gray)
	pasteWindow(canvas, out, x0, y0)
	cp.x0, cp.y0 = x0, y0
}

// Backward returns (dBg, dGray).
func (cp *CompositeInk) Backward(dOut *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	if cp.lastBg == nil {
		panic("imaging: CompositeInk.Backward called before Forward")
	}
	h, w := cp.lastBg.Dim(1), cp.lastBg.Dim(2)
	n := h * w
	dBg := tensor.New(3, h, w)
	dGray := tensor.New(1, h, w)
	for c := 0; c < 3; c++ {
		ink := cp.Ink[c]
		bgp := cp.lastBg.Data()[c*n : (c+1)*n]
		dp := dOut.Data()[c*n : (c+1)*n]
		dbgp := dBg.Data()[c*n : (c+1)*n]
		for i := 0; i < n; i++ {
			g := cp.lastGray.Data()[i]
			dbgp[i] = dp[i] * g
			dGray.Data()[i] += dp[i] * (bgp[i] - ink)
		}
	}
	return dBg, dGray
}

// BackwardAt is ForwardAt's adjoint. dCanvas is the gradient of the
// composited canvas; BackwardAt rewrites its window in place into the
// gradient of the canvas before compositing and returns dGray [1,h,w].
func (cp *CompositeInk) BackwardAt(dCanvas *tensor.Tensor) *tensor.Tensor {
	if cp.lastGray == nil {
		panic("imaging: CompositeInk.BackwardAt called before ForwardAt")
	}
	dBg, dGray := cp.Backward(cropWindow(dCanvas, cp.x0, cp.y0, cp.lastGray.Dim(1), cp.lastGray.Dim(2)))
	pasteWindow(dCanvas, dBg, cp.x0, cp.y0)
	return dGray
}

// CompositeRGB pastes a full-canvas RGB layer over the canvas using an
// explicit coverage mask (used by the colored baseline attack [34], whose
// patch has no transparent background: the whole square covers the road).
//
//	out_c = bg_c·(1 − m) + layer_c·m
//
// The mask is treated as a constant; gradients flow to bg and layer.
// ForwardAt and BackwardAt work in place on a window, as CompositeInk's do:
// outside it the mask is 0, so bg·1 + layer·0 = bg and dBg = dOut·1.
type CompositeRGB struct {
	lastMask *tensor.Tensor
	x0, y0   int // ForwardAt's origin
}

// NewCompositeRGB returns an RGB-over-RGB compositor.
func NewCompositeRGB() *CompositeRGB { return &CompositeRGB{} }

// Forward blends layer [3,H,W] over bg [3,H,W] with mask [1,H,W].
func (cp *CompositeRGB) Forward(bg, layer, mask *tensor.Tensor) *tensor.Tensor {
	h, w := bg.Dim(1), bg.Dim(2)
	cp.lastMask = mask
	out := tensor.New(3, h, w)
	n := h * w
	for c := 0; c < 3; c++ {
		bgp := bg.Data()[c*n : (c+1)*n]
		lp := layer.Data()[c*n : (c+1)*n]
		op := out.Data()[c*n : (c+1)*n]
		for i := 0; i < n; i++ {
			m := mask.Data()[i]
			op[i] = bgp[i]*(1-m) + lp[i]*m
		}
	}
	return out
}

// ForwardAt blends layer [3,h,w] with mask [1,h,w] into canvas [3,H,W] in
// place, the layer's top-left texel on canvas texel (x0, y0). The layer
// must lie inside the canvas; texels outside it keep their value.
func (cp *CompositeRGB) ForwardAt(canvas, layer, mask *tensor.Tensor, x0, y0 int) {
	out := cp.Forward(cropWindow(canvas, x0, y0, layer.Dim(1), layer.Dim(2)), layer, mask)
	pasteWindow(canvas, out, x0, y0)
	cp.x0, cp.y0 = x0, y0
}

// Backward returns (dBg, dLayer).
func (cp *CompositeRGB) Backward(dOut *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	if cp.lastMask == nil {
		panic("imaging: CompositeRGB.Backward called before Forward")
	}
	h, w := dOut.Dim(1), dOut.Dim(2)
	n := h * w
	dBg := tensor.New(3, h, w)
	dLayer := tensor.New(3, h, w)
	for c := 0; c < 3; c++ {
		dp := dOut.Data()[c*n : (c+1)*n]
		dbgp := dBg.Data()[c*n : (c+1)*n]
		dlp := dLayer.Data()[c*n : (c+1)*n]
		for i := 0; i < n; i++ {
			m := cp.lastMask.Data()[i]
			dbgp[i] = dp[i] * (1 - m)
			dlp[i] = dp[i] * m
		}
	}
	return dBg, dLayer
}

// BackwardAt is ForwardAt's adjoint: it rewrites the window of dCanvas in
// place into the gradient of the canvas before compositing and returns
// dLayer [3,h,w].
func (cp *CompositeRGB) BackwardAt(dCanvas *tensor.Tensor) *tensor.Tensor {
	if cp.lastMask == nil {
		panic("imaging: CompositeRGB.BackwardAt called before ForwardAt")
	}
	dBg, dLayer := cp.Backward(cropWindow(dCanvas, cp.x0, cp.y0, cp.lastMask.Dim(1), cp.lastMask.Dim(2)))
	pasteWindow(dCanvas, dBg, cp.x0, cp.y0)
	return dLayer
}

// cropWindow copies the [C,h,w] window at (x0, y0) out of t [C,H,W].
func cropWindow(t *tensor.Tensor, x0, y0, h, w int) *tensor.Tensor {
	c, th, tw := t.Dim(0), t.Dim(1), t.Dim(2)
	if x0 < 0 || y0 < 0 || x0+w > tw || y0+h > th {
		panic(fmt.Sprintf("imaging: window %dx%d at (%d,%d) outside canvas %v", w, h, x0, y0, t.Shape()))
	}
	win := tensor.New(c, h, w)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			src := (ch*th+y0+y)*tw + x0
			copy(win.Data()[(ch*h+y)*w:(ch*h+y+1)*w], t.Data()[src:src+w])
		}
	}
	return win
}

// pasteWindow writes win [C,h,w] into t [C,H,W] at (x0, y0).
func pasteWindow(t, win *tensor.Tensor, x0, y0 int) {
	c, h, w := win.Dim(0), win.Dim(1), win.Dim(2)
	th, tw := t.Dim(1), t.Dim(2)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			dst := (ch*th+y0+y)*tw + x0
			copy(t.Data()[dst:dst+w], win.Data()[(ch*h+y)*w:(ch*h+y+1)*w])
		}
	}
}

// ApplyShapeMask whitens a grayscale patch outside the shape mask:
// out = 1 − mask·(1 − p). Inside the mask the patch value passes through;
// outside it becomes 1 (transparent for CompositeInk). The mask is constant;
// the returned closure converts dOut into dPatch.
func ApplyShapeMask(patch, mask *tensor.Tensor) (*tensor.Tensor, func(dOut *tensor.Tensor) *tensor.Tensor) {
	if patch.Len() != mask.Len() {
		panic(fmt.Sprintf("imaging: ApplyShapeMask size mismatch %v vs %v", patch.Shape(), mask.Shape()))
	}
	out := tensor.New(patch.Shape()...)
	for i, p := range patch.Data() {
		out.Data()[i] = 1 - mask.Data()[i]*(1-p)
	}
	backward := func(dOut *tensor.Tensor) *tensor.Tensor {
		dP := tensor.New(patch.Shape()...)
		for i := range dP.Data() {
			dP.Data()[i] = dOut.Data()[i] * mask.Data()[i]
		}
		return dP
	}
	return out, backward
}
