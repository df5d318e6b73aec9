package attack

import (
	"fmt"
	"math/rand"

	"roadtrojan/internal/imaging"
	"roadtrojan/internal/physical"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

// Deploy "prints and lays down" a trained patch: it resizes the patch to its
// physical print resolution k, pushes it through the print channel when the
// physical channel is enabled (monochrome patches suffer only luminance
// error; colored baseline patches take the full chroma error), and
// composites the decals onto a clone of the scene's ground texture. The
// returned ground is what evaluation videos render.
func Deploy(sc Scene, p *Patch, ch physical.Channel, rng *rand.Rand) (*scene.Ground, error) {
	pls := Placements(p.Cfg, sc.TargetGX, sc.TargetGY)
	decaledTex, err := deployTex(sc, p, ch, rng, pls)
	if err != nil {
		return nil, err
	}
	g := sc.Ground
	return &scene.Ground{Tex: decaledTex, WidthM: g.WidthM, LengthM: g.LengthM, MPP: g.MPP}, nil
}

func deployTex(sc Scene, p *Patch, ch physical.Channel, rng *rand.Rand, pls []Placement) (*tensor.Tensor, error) {
	k := p.Cfg.K
	if p.IsColored() {
		layer := imaging.ResizeBilinear(p.RGB, k, k)
		if ch.Enabled {
			job := ch.Print.NewJob(rng)
			layer = job.PrintRGB(layer)
		}
		tex, _, err := applyRGBDecals(sc.Ground, sc.Ground.Tex.Clone(), layer, pls)
		return tex, err
	}
	// Monochrome decal: print the k×k silhouette, then restore transparency
	// outside the cut shape (stickers are die-cut; nothing prints there).
	maskK := imaging.ResizeBilinear(p.Mask, k, k)
	layer := imaging.ResizeBilinear(p.MaskedGray(), k, k)
	if ch.Enabled {
		job := ch.Print.NewJob(rng)
		printed := job.PrintGray(layer)
		restored := tensor.New(1, k, k)
		for i := range restored.Data() {
			m := maskK.Data()[i]
			restored.Data()[i] = (1-m)*1 + m*printed.Data()[i]
		}
		layer = restored
	}
	tex, _, err := applyGrayDecals(sc.Ground, sc.Ground.Tex.Clone(), layer, pls, p.Cfg.Ink)
	return tex, err
}

// RenderPrint returns the patch as it would be sent to the printer at k×k —
// used for figures.
func (p *Patch) RenderPrint() *tensor.Tensor {
	k := p.Cfg.K
	if p.IsColored() {
		return imaging.ResizeBilinear(p.RGB, k, k)
	}
	return imaging.ResizeBilinear(p.MaskedGray(), k, k)
}

// VerifyDigital mirrors the paper's protocol step "firstly, we ensure that
// APs attached to the images can successfully misclassify in the digital
// world": it deploys the patch without the print channel, renders stationary
// views from several distances, and returns the fraction of views where the
// detector reports the target class.
func VerifyDigital(det *yolo.Model, cam scene.Camera, sc Scene, p *Patch, rng *rand.Rand) (float64, error) {
	return VerifyChannel(det, cam, sc, p, physical.Digital(), rng)
}

// VerifyChannel is VerifyDigital through an arbitrary channel — with the
// print-and-capture channel enabled it reproduces the paper's second
// protocol step, the physical spot-check of a printed candidate.
func VerifyChannel(det *yolo.Model, cam scene.Camera, sc Scene, p *Patch, ch physical.Channel, rng *rand.Rand) (float64, error) {
	ground, err := Deploy(sc, p, ch, rng)
	if err != nil {
		return 0, err
	}
	det.SetTraining(false)
	batch, boxes, err := verifyViews(cam, sc, ground, ch, rng)
	if err != nil {
		return 0, err
	}
	// Conv, eval-mode batch norm and decode are per-sample, so one batched
	// forward scores every view exactly as a forward of that view alone.
	heads := det.Forward(batch)
	opts := yolo.DefaultDecode()
	hits := 0
	for i, box := range boxes {
		dets := det.DecodeSample(heads, i, opts)
		if d, ok := yolo.MatchTarget(dets, box, 0.2); ok && d.Class == p.Cfg.TargetClass {
			hits++
		}
	}
	return float64(hits) / float64(len(boxes)), nil
}

// verifyViews renders the verification views that see the target, nearest
// first, each drawing its capture noise before the next one renders, and
// stacks them into one [V,3,H,W] batch alongside each view's target box.
func verifyViews(cam scene.Camera, sc Scene, ground *scene.Ground, ch physical.Channel, rng *rand.Rand) (*tensor.Tensor, []scene.Box, error) {
	var imgs []*tensor.Tensor
	var boxes []scene.Box
	for _, dist := range []float64{3, 3.5, 4, 5, 6, 7} {
		c := cam
		c.Y = sc.TargetGY - dist
		box, ok := c.GroundBoxToImage(sc.GX0, sc.GY0, sc.GX1, sc.GY1)
		if !ok {
			continue
		}
		img, err := c.Render(ground)
		if err != nil {
			return nil, nil, err
		}
		if ch.Enabled {
			img = ch.Capture.Apply(rng, img)
		}
		imgs = append(imgs, img.Reshape(1, 3, img.Dim(1), img.Dim(2)))
		boxes = append(boxes, box)
	}
	if len(imgs) == 0 {
		return nil, nil, fmt.Errorf("attack: target not visible from any verification view")
	}
	return tensor.Concat(0, imgs...), boxes, nil
}
