package imaging

import (
	"roadtrojan/internal/tensor"
)

// Warp resamples a CHW image through a homography. The transform maps
// *output* pixel coordinates to *input* coordinates (inverse warping), and
// samples bilinearly. Output pixels that map outside the source are filled
// with Outside.
type Warp struct {
	H          Homography
	OutH, OutW int
	// X0, Y0 place the output window inside a larger raster: output pixel
	// (ox, oy) samples H at raster pixel (X0+ox, Y0+oy). The origin stays
	// out of H, since folding a translation into H changes its rounding.
	// Both are zero for a warp that renders the whole raster.
	X0, Y0  int
	Outside float64
	// ClampEdges samples the nearest border pixel instead of filling with
	// Outside when a coordinate falls outside the source (used by resizing,
	// where half-pixel overshoot at the borders is expected).
	ClampEdges   bool
	lastSrcShape []int
	// Cached sampling positions for the backward pass: for each output
	// pixel, the 4 source corners and weights (or -1 when outside).
	idx []int32
	wgt []float64
}

// NewWarp builds a warp stage. h maps output (x, y) → input (u, v).
func NewWarp(h Homography, outH, outW int, outside float64) *Warp {
	return &Warp{H: h, OutH: outH, OutW: outW, Outside: outside}
}

// Forward warps src [C,H,W] into the [C,OutH,OutW] output window.
func (wp *Warp) Forward(src *tensor.Tensor) *tensor.Tensor {
	c, h, w := src.Dim(0), src.Dim(1), src.Dim(2)
	wp.lastSrcShape = src.Shape()
	out := tensor.New(c, wp.OutH, wp.OutW)
	n := wp.OutH * wp.OutW
	wp.idx = make([]int32, 4*n)
	wp.wgt = make([]float64, 4*n)

	for oy := 0; oy < wp.OutH; oy++ {
		for ox := 0; ox < wp.OutW; ox++ {
			p := oy*wp.OutW + ox
			u, v, ok := wp.H.Apply(float64(ox+wp.X0), float64(oy+wp.Y0))
			if wp.ClampEdges && ok {
				if u < 0 {
					u = 0
				} else if u > float64(w-1) {
					u = float64(w - 1)
				}
				if v < 0 {
					v = 0
				} else if v > float64(h-1) {
					v = float64(h - 1)
				}
			}
			if !ok || u < 0 || v < 0 || u > float64(w-1) || v > float64(h-1) {
				wp.idx[4*p] = -1
				for ch := 0; ch < c; ch++ {
					out.Data()[ch*n+p] = wp.Outside
				}
				continue
			}
			x0 := int(u)
			y0 := int(v)
			x1, y1 := x0+1, y0+1
			if x1 > w-1 {
				x1 = w - 1
			}
			if y1 > h-1 {
				y1 = h - 1
			}
			fx := u - float64(x0)
			fy := v - float64(y0)
			w00 := (1 - fx) * (1 - fy)
			w01 := fx * (1 - fy)
			w10 := (1 - fx) * fy
			w11 := fx * fy
			wp.idx[4*p] = int32(y0*w + x0)
			wp.idx[4*p+1] = int32(y0*w + x1)
			wp.idx[4*p+2] = int32(y1*w + x0)
			wp.idx[4*p+3] = int32(y1*w + x1)
			wp.wgt[4*p] = w00
			wp.wgt[4*p+1] = w01
			wp.wgt[4*p+2] = w10
			wp.wgt[4*p+3] = w11
			for ch := 0; ch < c; ch++ {
				plane := src.Data()[ch*h*w : (ch+1)*h*w]
				out.Data()[ch*n+p] = w00*plane[y0*w+x0] + w01*plane[y0*w+x1] +
					w10*plane[y1*w+x0] + w11*plane[y1*w+x1]
			}
		}
	}
	return out
}

// Backward scatters dOut back to source-pixel gradients using the cached
// bilinear weights.
func (wp *Warp) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	if wp.lastSrcShape == nil {
		panic("imaging: Warp.Backward called before Forward")
	}
	c, h, w := wp.lastSrcShape[0], wp.lastSrcShape[1], wp.lastSrcShape[2]
	dSrc := tensor.New(c, h, w)
	n := wp.OutH * wp.OutW
	for p := 0; p < n; p++ {
		if wp.idx[4*p] < 0 {
			continue
		}
		for ch := 0; ch < c; ch++ {
			g := dOut.Data()[ch*n+p]
			if g == 0 {
				continue
			}
			plane := dSrc.Data()[ch*h*w : (ch+1)*h*w]
			for k := 0; k < 4; k++ {
				plane[wp.idx[4*p+k]] += g * wp.wgt[4*p+k]
			}
		}
	}
	return dSrc
}

// WarpImage is a one-shot convenience wrapper around Warp.Forward.
func WarpImage(src *tensor.Tensor, h Homography, outH, outW int, outside float64) *tensor.Tensor {
	return NewWarp(h, outH, outW, outside).Forward(src)
}

// ResizeBilinear resizes a CHW image to [C,outH,outW] with bilinear
// interpolation (a special case of Warp with a scaling homography).
func ResizeBilinear(src *tensor.Tensor, outH, outW int) *tensor.Tensor {
	h, w := src.Dim(1), src.Dim(2)
	sx := float64(w) / float64(outW)
	sy := float64(h) / float64(outH)
	// Map output pixel centers to input pixel centers.
	hm := Translate(-0.5, -0.5).Mul(ScaleXY(sx, sy)).Mul(Translate(0.5, 0.5))
	wp := NewWarp(hm, outH, outW, 0)
	wp.ClampEdges = true
	return wp.Forward(src)
}
