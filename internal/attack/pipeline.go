package attack

import (
	"fmt"
	"math"

	"roadtrojan/internal/eot"
	"roadtrojan/internal/imaging"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/tensor"
)

// patchCorners returns the pixel-corner quad of an R×R patch raster.
func patchCorners(r int) [4]imaging.Point {
	f := float64(r - 1)
	return [4]imaging.Point{{X: 0, Y: 0}, {X: f, Y: 0}, {X: f, Y: f}, {X: 0, Y: f}}
}

// decalWarp builds the warp that resamples an R×R patch raster onto the
// ground texture at the given placement (output = ground raster pixels,
// input = patch pixels). It renders only the window of texels the decal
// can touch, the quad's bounding box with a one-texel margin (windowSpan);
// outside fills the texels of that window the decal does not cover.
func decalWarp(g *scene.Ground, pl Placement, r int, outside float64) (*imaging.Warp, error) {
	quad := g.DecalQuad(pl.GX, pl.GY, pl.SizeM, pl.Rot)
	h, err := imaging.QuadToQuad(quad, patchCorners(r))
	if err != nil {
		return nil, fmt.Errorf("attack: decal warp: %w", err)
	}
	lo, hi := quad[0], quad[0]
	for _, p := range quad[1:] {
		lo.X, lo.Y = math.Min(lo.X, p.X), math.Min(lo.Y, p.Y)
		hi.X, hi.Y = math.Max(hi.X, p.X), math.Max(hi.Y, p.Y)
	}
	x0, x1 := windowSpan(lo.X, hi.X, g.Cols())
	y0, y1 := windowSpan(lo.Y, hi.Y, g.Rows())
	wp := imaging.NewWarp(h, y1-y0, x1-x0, outside)
	wp.X0, wp.Y0 = x0, y0
	return wp, nil
}

// windowSpan returns a decal window's half-open texel range along one
// axis, for a quad spanning [lo, hi] on it: the texels inside that span,
// one more on each side to absorb rounding in the homography, clipped to
// [0, n). A quad that misses the raster gets an empty range.
func windowSpan(lo, hi float64, n int) (int, int) {
	a := math.Max(math.Ceil(lo)-1, 0)
	b := math.Min(math.Floor(hi)+2, float64(n))
	if !(b > a) {
		return 0, 0
	}
	return int(a), int(b)
}

// decalGraph is the differentiable application of one patch layer to the
// ground at N placements: each placement's windowed warp and the adjoint
// of its in-place composite. Backward converts the texture gradient into
// the layer gradient.
type decalGraph struct {
	warps  []*imaging.Warp
	backAt []func(dCanvas *tensor.Tensor) *tensor.Tensor // each composite's BackwardAt
}

// applyGrayDecals composites the [1,R,R] gray layer (1 = transparent) onto a
// copy of the ground texture at every placement, each inside its decal
// window. Ink is near-black road paint.
func applyGrayDecals(g *scene.Ground, layer *tensor.Tensor, pls []Placement, ink float64) (*tensor.Tensor, *decalGraph, error) {
	dg := &decalGraph{}
	tex := g.Tex.Clone()
	for _, pl := range pls {
		wp, err := decalWarp(g, pl, layer.Dim(1), 1) // outside = white = transparent
		if err != nil {
			return nil, nil, err
		}
		comp := imaging.NewCompositeInk([3]float64{ink, ink, ink * 1.02})
		comp.ForwardAt(tex, wp.Forward(layer), wp.X0, wp.Y0)
		dg.warps = append(dg.warps, wp)
		dg.backAt = append(dg.backAt, comp.BackwardAt)
	}
	return tex, dg, nil
}

// applyRGBDecals composites the colored layer onto a copy of the ground
// texture at every placement, each inside its decal window. The coverage
// mask is the warped footprint of the full square, so the colored
// baseline's patch is an opaque square sticker.
func applyRGBDecals(g *scene.Ground, layer *tensor.Tensor, pls []Placement) (*tensor.Tensor, *decalGraph, error) {
	r := layer.Dim(1)
	ones := tensor.Ones(1, r, r)
	dg := &decalGraph{}
	tex := g.Tex.Clone()
	for _, pl := range pls {
		wp, err := decalWarp(g, pl, r, 0)
		if err != nil {
			return nil, nil, err
		}
		mask := wp.Forward(ones)
		warped := wp.Forward(layer) // last, so the warp's Backward maps to the layer
		comp := imaging.NewCompositeRGB()
		comp.ForwardAt(tex, warped, mask, wp.X0, wp.Y0)
		dg.warps = append(dg.warps, wp)
		dg.backAt = append(dg.backAt, comp.BackwardAt)
	}
	return tex, dg, nil
}

// backward maps d(decaled texture) to d(layer), summing over placements.
// dTex is left as it is.
func (dg *decalGraph) backward(dTex *tensor.Tensor) *tensor.Tensor {
	dTex = dTex.Clone() // BackwardAt rewrites each window in place
	var dLayer *tensor.Tensor
	for i := len(dg.warps) - 1; i >= 0; i-- {
		dp := dg.warps[i].Backward(dg.backAt[i](dTex))
		if dLayer == nil {
			dLayer = dp
		} else {
			dLayer.AddInPlace(dp)
		}
	}
	return dLayer
}

// frameGraph records one training frame's differentiable chain:
// camera warp → sky overwrite → motion blur → EOT → clamp (inside EOT).
type frameGraph struct {
	camWarp *imaging.Warp
	skyMask []bool
	blurLen int
	applied *eot.Applied
}

// renderTrainFrame renders a decaled ground texture through one trajectory
// step with a fresh EOT sample, returning the frame and its backward graph.
func renderTrainFrame(g *scene.Ground, decaled *tensor.Tensor, step scene.TrajectoryStep, applied *eot.Applied) (*tensor.Tensor, *frameGraph, error) {
	tmp := &scene.Ground{Tex: decaled, WidthM: g.WidthM, LengthM: g.LengthM, MPP: g.MPP}
	wp, err := step.Cam.TexWarp(tmp)
	if err != nil {
		return nil, nil, fmt.Errorf("attack: train frame: %w", err)
	}
	img := wp.Forward(decaled)
	skyMask := step.Cam.ApplySky(img)
	if step.BlurLen > 1 {
		img = imaging.BoxBlurVertical(img, step.BlurLen)
	}
	img = applied.Forward(img)
	return img, &frameGraph{camWarp: wp, skyMask: skyMask, blurLen: step.BlurLen, applied: applied}, nil
}

// backward maps d(frame) to d(decaled ground texture).
func (fg *frameGraph) backward(dImg *tensor.Tensor) *tensor.Tensor {
	d := fg.applied.Backward(dImg)
	if fg.blurLen > 1 {
		d = imaging.BoxBlurVertical(d, fg.blurLen) // self-adjoint
	}
	// Sky pixels were overwritten after the warp: their gradient must not
	// reach the texture.
	c, h, w := d.Dim(0), d.Dim(1), d.Dim(2)
	n := h * w
	for i, sky := range fg.skyMask {
		if sky {
			for ch := 0; ch < c; ch++ {
				d.Data()[ch*n+i] = 0
			}
		}
	}
	return fg.camWarp.Backward(d)
}
