package attack

import (
	"math"
	"math/rand"
	"testing"

	"roadtrojan/internal/imaging"
	"roadtrojan/internal/physical"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/shapes"
	"roadtrojan/internal/tensor"
)

// fullRasterWarp is decalWarp without a window: the warp renders the
// whole ground raster.
func fullRasterWarp(t *testing.T, g *scene.Ground, pl Placement, r int, outside float64) *imaging.Warp {
	t.Helper()
	h, err := imaging.QuadToQuad(g.DecalQuad(pl.GX, pl.GY, pl.SizeM, pl.Rot), patchCorners(r))
	if err != nil {
		t.Fatal(err)
	}
	return imaging.NewWarp(h, g.Rows(), g.Cols(), outside)
}

// fullRasterGray is the reference for applyGrayDecals: every placement
// warps onto the whole raster and composites with the unwindowed Forward
// and Backward. It returns the decaled texture and the layer gradient map.
func fullRasterGray(t *testing.T, g *scene.Ground, layer *tensor.Tensor, pls []Placement, ink float64) (*tensor.Tensor, func(*tensor.Tensor) *tensor.Tensor) {
	t.Helper()
	tex := g.Tex
	var warps []*imaging.Warp
	var comps []*imaging.CompositeInk
	for _, pl := range pls {
		wp := fullRasterWarp(t, g, pl, layer.Dim(1), 1)
		comp := imaging.NewCompositeInk([3]float64{ink, ink, ink * 1.02})
		tex = comp.Forward(tex, wp.Forward(layer))
		warps, comps = append(warps, wp), append(comps, comp)
	}
	return tex, func(dTex *tensor.Tensor) *tensor.Tensor {
		var dLayer *tensor.Tensor
		for i := len(comps) - 1; i >= 0; i-- {
			dBg, dGray := comps[i].Backward(dTex)
			dLayer = addGrad(dLayer, warps[i].Backward(dGray))
			dTex = dBg
		}
		return dLayer
	}
}

// fullRasterRGB is fullRasterGray for applyRGBDecals.
func fullRasterRGB(t *testing.T, g *scene.Ground, layer *tensor.Tensor, pls []Placement) (*tensor.Tensor, func(*tensor.Tensor) *tensor.Tensor) {
	t.Helper()
	r := layer.Dim(1)
	tex := g.Tex
	var warps []*imaging.Warp
	var comps []*imaging.CompositeRGB
	for _, pl := range pls {
		wp := fullRasterWarp(t, g, pl, r, 0)
		mask := fullRasterWarp(t, g, pl, r, 0).Forward(tensor.Ones(1, r, r))
		comp := imaging.NewCompositeRGB()
		tex = comp.Forward(tex, wp.Forward(layer), mask)
		warps, comps = append(warps, wp), append(comps, comp)
	}
	return tex, func(dTex *tensor.Tensor) *tensor.Tensor {
		var dLayer *tensor.Tensor
		for i := len(comps) - 1; i >= 0; i-- {
			dBg, dL := comps[i].Backward(dTex)
			dLayer = addGrad(dLayer, warps[i].Backward(dL))
			dTex = dBg
		}
		return dLayer
	}
}

func addGrad(sum, d *tensor.Tensor) *tensor.Tensor {
	if sum == nil {
		return d
	}
	return sum.AddInPlace(d)
}

// sameBits fails unless got and want hold the same float64 bits.
func sameBits(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape(), want.Shape())
	}
	for i, v := range got.Data() {
		if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
			t.Fatalf("%s: element %d = %v, full raster %v", name, i, v, want.Data()[i])
		}
	}
}

// checkMargin fails unless every texel a decal covers lies inside its
// warp's window and off the window's one-texel margin, except where the
// window is clipped by the raster edge.
func checkMargin(t *testing.T, name string, g *scene.Ground, pl Placement, wp *imaging.Warp) {
	t.Helper()
	rows, cols := g.Rows(), g.Cols()
	cover := fullRasterWarp(t, g, pl, 32, 1).Forward(tensor.New(1, 32, 32)) // 1 only where uncovered
	for i, v := range cover.Data() {
		if v == 1 {
			continue
		}
		x, y := i%cols, i/cols
		inX := (x > wp.X0 || x == 0) && (x < wp.X0+wp.OutW-1 || x == cols-1)
		inY := (y > wp.Y0 || y == 0) && (y < wp.Y0+wp.OutH-1 || y == rows-1)
		if !inX || !inY {
			t.Fatalf("%s: covered texel (%d,%d) outside the margin of window %dx%d at (%d,%d)", name, x, y, wp.OutW, wp.OutH, wp.X0, wp.Y0)
		}
	}
}

// TestDecalWindowMatchesFullRaster pins the decal windows: compositing
// inside each placement's window gives the full-raster texture and layer
// gradient bit for bit, for gray and RGB decals, for placements on the
// default ring, clipped by the raster edge, entirely off it and
// overlapping, and through Deploy with and without the print channel.
func TestDecalWindowMatchesFullRaster(t *testing.T) {
	sc := testScene()
	g := sc.Ground
	cfg := DefaultConfig()
	size := cfg.SizeM()
	cases := []struct {
		name string
		pls  []Placement
	}{
		{"ring", Placements(cfg, sc.TargetGX, sc.TargetGY)},
		{"clipped", []Placement{
			{GX: -g.WidthM/2 + 0.1, GY: 0.2, SizeM: size, Rot: 0.4},
			{GX: g.WidthM/2 - 0.05, GY: g.LengthM - 0.1, SizeM: size, Rot: -1.1},
		}},
		{"off raster", []Placement{{GX: g.WidthM, GY: 15, SizeM: size, Rot: 0.2}}},
		{"overlapping", []Placement{
			{GX: 0.3, GY: 14, SizeM: size, Rot: 0.1},
			{GX: 0.45, GY: 14.2, SizeM: size, Rot: 0.9},
		}},
	}
	rng := rand.New(rand.NewSource(21))
	for _, tc := range cases {
		gray := tensor.NewRandU(rng, 0, 1, 1, 32, 32)
		tex, gc, err := applyGrayDecals(g, gray, tc.pls, cfg.Ink)
		if err != nil {
			t.Fatal(err)
		}
		want, wantBackward := fullRasterGray(t, g, gray, tc.pls, cfg.Ink)
		sameBits(t, tc.name+" gray texture", tex, want)
		probe := tensor.NewRandN(rng, 1, tex.Shape()...)
		kept := probe.Clone()
		sameBits(t, tc.name+" gray dLayer", gc.backward(probe), wantBackward(probe))
		sameBits(t, tc.name+" gray dTex after backward", probe, kept)
		for i, pl := range tc.pls {
			checkMargin(t, tc.name, g, pl, gc.warps[i])
		}

		rgb := tensor.NewRandU(rng, 0, 1, 3, 32, 32)
		tex, rc, err := applyRGBDecals(g, rgb, tc.pls)
		if err != nil {
			t.Fatal(err)
		}
		want, wantBackward = fullRasterRGB(t, g, rgb, tc.pls)
		sameBits(t, tc.name+" rgb texture", tex, want)
		sameBits(t, tc.name+" rgb dLayer", rc.backward(probe), wantBackward(probe))
		sameBits(t, tc.name+" rgb dTex after backward", probe, kept)
	}

	gray := &Patch{Gray: tensor.NewRandU(rng, 0, 0.5, 1, 32, 32), Mask: shapes.Mask(shapes.Star, 32, 0.9, 0), Cfg: cfg}
	colored := &Patch{RGB: tensor.NewRandU(rng, 0, 1, 3, 32, 32), Cfg: cfg}
	pls := Placements(cfg, sc.TargetGX, sc.TargetGY)
	for name, ch := range map[string]physical.Channel{"digital": physical.Digital(), "real-world": physical.RealWorld()} {
		for _, p := range []*Patch{gray, colored} {
			got, err := Deploy(sc, p, ch, rand.New(rand.NewSource(23)))
			if err != nil {
				t.Fatal(err)
			}
			layer := deployLayer(p, ch, rand.New(rand.NewSource(23)))
			var want *tensor.Tensor
			if p.IsColored() {
				want, _ = fullRasterRGB(t, g, layer, pls)
			} else {
				want, _ = fullRasterGray(t, g, layer, pls, cfg.Ink)
			}
			sameBits(t, name+" Deploy", got.Tex, want)
		}
	}
}
