package attack

import (
	"fmt"
	"math"
	"math/rand"

	"roadtrojan/internal/eot"
	"roadtrojan/internal/gan"
	"roadtrojan/internal/imaging"
	"roadtrojan/internal/nn"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/optim"
	"roadtrojan/internal/physical"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/shapes"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

// Patch is a trained decal artifact. Ours is monochrome (Gray + Mask); the
// baseline's is colored (RGB, full-square sticker).
type Patch struct {
	Gray *tensor.Tensor // [1,R,R] generator output, nil for the baseline
	Mask *tensor.Tensor // [1,R,R] silhouette mask, nil for the baseline
	RGB  *tensor.Tensor // [3,R,R] colored baseline patch, nil for ours
	Cfg  Config
}

// IsColored reports whether this is a baseline-style RGB patch.
func (p *Patch) IsColored() bool { return p.RGB != nil }

// MaskedGray returns the print-ready monochrome layer: generator output
// inside the silhouette, white (transparent) outside.
func (p *Patch) MaskedGray() *tensor.Tensor {
	out, _ := imaging.ApplyShapeMask(p.Gray, p.Mask)
	return out
}

// TrainStats traces the optimization.
type TrainStats struct {
	AttackLoss []float64
	GANLossG   []float64
	GANLossD   []float64
	TargetProb []float64 // detector's target-class probability at the victim
	GradNorm   []float64 // L2 of the attack gradient reaching the patch
}

// trajectoryPools groups training frames: dynamic windows (consecutive
// frames of moving approaches) and static frames (stationary shots — what
// classic single-frame patch attacks train on).
type trajectoryPools struct {
	dynamic [][]scene.TrajectoryStep
	static  []scene.TrajectoryStep
}

// buildPools renders the training trajectories for a scene. Dynamic pools
// cover the speed and angle challenges; static pools stationary cameras at
// several distances.
func buildPools(cam scene.Camera, sc Scene, rng *rand.Rand) trajectoryPools {
	var p trajectoryPools
	for _, name := range []string{"slow", "normal", "fast", "angle-15", "angle0", "angle+15"} {
		ch := scene.Challenges(name)[0]
		steps := filterVisible(scene.BuildTrajectory(cam, ch, sc.TargetGX, sc.TargetGY, rng), sc)
		if len(steps) > 0 {
			p.dynamic = append(p.dynamic, steps)
		}
	}
	for _, name := range []string{"fix", "slight"} {
		ch := scene.Challenges(name)[0]
		ch.Frames = 10
		for _, dist := range []float64{3, 4, 5, 6.5, 8} {
			ch.StartDist = dist
			steps := filterVisible(scene.BuildTrajectory(cam, ch, sc.TargetGX, sc.TargetGY, rng), sc)
			p.static = append(p.static, steps...)
		}
	}
	return p
}

// filterVisible drops steps where the target projects out of frame.
func filterVisible(steps []scene.TrajectoryStep, sc Scene) []scene.TrajectoryStep {
	var out []scene.TrajectoryStep
	for _, st := range steps {
		if _, ok := st.Cam.GroundBoxToImage(sc.GX0, sc.GY0, sc.GX1, sc.GY1); ok {
			out = append(out, st)
		}
	}
	return out
}

// sampleWindow picks the training frames for one iteration. Consecutive
// mode returns a window of WindowFrames successive steps from one moving
// trajectory (Sec. III-B); otherwise it draws i.i.d. stationary frames (the
// static-case setting of prior work and the "w/o 3 consecutive frames"
// ablation).
func (p trajectoryPools) sampleWindow(rng *rand.Rand, consecutive bool, w int) []scene.TrajectoryStep {
	if consecutive && len(p.dynamic) > 0 {
		// A stationary camera's video is also consecutive frames; mixing
		// parked windows in keeps the near-stationary views (where the AV
		// dwells longest) represented alongside the approaches.
		if rng.Float64() < 0.35 {
			st := p.static[rng.Intn(len(p.static))]
			out := make([]scene.TrajectoryStep, w)
			for i := range out {
				out[i] = st
			}
			return out
		}
		traj := p.dynamic[rng.Intn(len(p.dynamic))]
		if len(traj) <= w {
			return traj
		}
		start := rng.Intn(len(traj) - w)
		return traj[start : start+w]
	}
	out := make([]scene.TrajectoryStep, w)
	for i := range out {
		out[i] = p.static[rng.Intn(len(p.static))]
	}
	return out
}

// forwardFrames renders the decaled texture through a window with fresh EOT
// samples and runs the detector's attack loss. It returns the loss, the
// texture gradient, and the mean target probability. Each frame's EOT draw
// is journaled on sp (free when tracing is off).
func forwardFrames(det *yolo.Model, g *scene.Ground, decaled *tensor.Tensor, window []scene.TrajectoryStep,
	sampler *eot.Sampler, rng *rand.Rand, sc Scene, targetClass scene.Class,
	sp *obs.Span, it int) (float64, *tensor.Tensor, float64, error) {

	w := len(window)
	imgH, imgW := window[0].Cam.ImgH, window[0].Cam.ImgW
	batch := tensor.New(w, 3, imgH, imgW)
	graphs := make([]*frameGraph, w)
	targets := make([]yolo.AttackTarget, w)
	sz := 3 * imgH * imgW
	for i, st := range window {
		applied := sampler.Sample(rng, imgH, imgW)
		sp.EOT(obs.EOTDraw{
			It: it, Frame: i,
			Resize: applied.Params.Resize, Rotation: applied.Params.Rotation,
			Bright: applied.Params.Bright, Gamma: applied.Params.Gamma, Persp: applied.Params.Persp,
		})
		img, fg, err := renderTrainFrame(g, decaled, st, applied)
		if err != nil {
			return 0, nil, 0, err
		}
		copy(batch.Data()[i*sz:(i+1)*sz], img.Data())
		graphs[i] = fg
		box, ok := st.Cam.GroundBoxToImage(sc.GX0, sc.GY0, sc.GX1, sc.GY1)
		if ok {
			// The EOT geometry moved the scene inside the frame; the attack
			// loss must hit the cells where the target actually landed.
			cx, cy, w, h, valid := applied.MapBox(box.CX, box.CY, box.W, box.H)
			if valid {
				box = scene.Box{CX: cx, CY: cy, W: w, H: h}
			} else {
				ok = false
			}
		}
		if !ok {
			box = scene.Box{CX: -100, CY: -100, W: 1, H: 1} // contributes nothing
		}
		targets[i] = yolo.AttackTarget{Box: box, Class: targetClass}
	}

	det.SetTraining(false)
	heads := det.Forward(batch)
	loss, dHeads := det.AttackLoss(heads, targets, yolo.DefaultAttackLossWeights())
	prob := 0.0
	for i := range targets {
		prob += det.TargetClassProb(heads, targets[i], i)
	}
	prob /= float64(w)

	dBatch := det.InputGrad(dHeads) // the detector is frozen (white-box victim)

	var dTex *tensor.Tensor
	for i := range graphs {
		dImg := tensor.FromSlice(append([]float64(nil), dBatch.Data()[i*sz:(i+1)*sz]...), 3, imgH, imgW)
		dt := graphs[i].backward(dImg)
		if dTex == nil {
			dTex = dt
		} else {
			dTex.AddInPlace(dt)
		}
	}
	tensor.AssertFiniteScalar("attack loss", loss)
	tensor.AssertFinite("texture gradient", dTex)
	return loss, dTex, prob, nil
}

// inkStats summarizes a print-ready layer for observability: mean ink
// coverage and the fraction of pixels more ink than paper. Low values paint
// ink (the composite's transparency convention), so ink = 1 - v. With a
// mask, only silhouette pixels (mask > 0.5) count; a nil mask (the colored
// baseline) averages the whole layer.
func inkStats(layer, mask *tensor.Tensor) (mean, frac float64) {
	ld := layer.Data()
	n := 0
	if mask == nil {
		for _, v := range ld {
			mean += 1 - v
			if v < 0.5 {
				frac++
			}
		}
		n = len(ld)
	} else {
		md := mask.Data()
		for i, m := range md {
			if m > 0.5 {
				mean += 1 - ld[i]
				if ld[i] < 0.5 {
					frac++
				}
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return mean / float64(n), frac / float64(n)
}

// combinedVerify scores a candidate patch the way the paper's protocol
// does: digital verification first, then a printed spot-check; the kept
// artifact must work in both worlds.
func combinedVerify(det *yolo.Model, cam scene.Camera, sc Scene, p *Patch, rng *rand.Rand) float64 {
	dig, err := VerifyDigital(det, cam, sc, p, rng)
	if err != nil {
		return 0
	}
	phy, err := VerifyChannel(det, cam, sc, p, physical.RealWorld(), rng)
	if err != nil {
		return dig / 2
	}
	return (dig + 2*phy) / 3
}

// printExpectation maps patch values to their expected printed appearance
// (the print channel's gamut compression with unit luma gain). Optimizing
// the patch as it will look *after* printing extends EOT's
// expectation-over-transformation philosophy to the print channel; the
// attacker knows their own printer. The returned closure converts dOut to
// dPatch (the map is affine).
func printExpectation(p *tensor.Tensor) (*tensor.Tensor, func(d *tensor.Tensor) *tensor.Tensor) {
	m := physical.DefaultPrintModel()
	span := m.GamutHigh - m.GamutLow
	out := p.Map(func(v float64) float64 { return m.GamutLow + span*v })
	backward := func(d *tensor.Tensor) *tensor.Tensor {
		return d.Map(func(v float64) float64 { return span * v })
	}
	return out, backward
}

// Train runs the paper's attack: the GAN generator is optimized with Eq. 1
// (adversarial realism toward Four Shapes + α-weighted targeted detector
// attack through EOT, ground compositing and the moving camera). It returns
// the final monochrome patch. tr receives the structured run trace (nil
// disables tracing; obs.TextTrace restores the historical log lines).
func Train(det *yolo.Model, cam scene.Camera, sc Scene, cfg Config, tr *obs.Trace) (*Patch, *TrainStats, error) {
	return train(det, cam, sc, cfg, tr, method{name: "ours", init: newGANParam})
}

// TrainDirect is the GAN-free ablation of our attack: the monochrome,
// shape-masked layer is optimized directly with Adam (no realism term).
// It isolates the attack pipeline from the GAN balance and shows what the
// α-weighted term alone can achieve.
func TrainDirect(det *yolo.Model, cam scene.Camera, sc Scene, cfg Config, tr *obs.Trace) (*Patch, *TrainStats, error) {
	return train(det, cam, sc, cfg, tr, method{name: "direct", init: newDirectParam})
}

// TrainBaseline implements [34] (Sava et al.) as the paper describes it:
// a colored patch optimized directly with Adam under a rich EOT set, on
// static frames (single-frame attack), with no GAN shape constraint.
func TrainBaseline(det *yolo.Model, cam scene.Camera, sc Scene, cfg Config, tr *obs.Trace) (*Patch, *TrainStats, error) {
	return train(det, cam, sc, cfg, tr, method{name: "baseline", static: true, init: newRGBParam})
}

// method is one attack: its journal tag, whether it is the single-frame
// baseline [34] (i.i.d. stationary frames under every EOT trick, whatever
// cfg says), and the constructor of its patch parameterization.
type method struct {
	name   string
	static bool
	init   func(rng *rand.Rand, cfg Config, sc Scene, root *obs.Span) patchParam
}

// patchParam is how one attack parameterizes its patch, the only part of
// training that differs between the attacks. Its constructor and begin draw
// from the training RNG between the loop's own draws (pools, windows, EOT);
// that order is part of the same-seed byte contract.
type patchParam interface {
	// begin runs the iteration's prelude and returns the span the iteration
	// journals on and the patch layer in [0,1], before the print channel.
	begin(it int) (*obs.Span, *tensor.Tensor)
	// composite decals the printed layer onto the ground texture; backward
	// maps a texture gradient onto the printed layer.
	composite(printed *tensor.Tensor) (decaled *tensor.Tensor, backward func(*tensor.Tensor) *tensor.Tensor, err error)
	// step backpropagates the layer gradient and updates the parameters,
	// appending its own TrainStats and returning its part of the iter record.
	step(dLayer *tensor.Tensor, stats *TrainStats) obs.IterStats
	ink() (mean, frac float64) // inkStats of the last composited layer
	snapshotDue(it int) bool
	candidate() *Patch
	end() // closes any span begin opened
}

// train is the loop every attack shares: EOT over a frame window, the print
// channel, decal compositing, the frozen detector's attack loss, and the
// verify-and-keep-best protocol.
func train(det *yolo.Model, cam scene.Camera, sc Scene, cfg Config, tr *obs.Trace, m method) (*Patch, *TrainStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pools := buildPools(cam, sc, rng)
	if len(pools.static) == 0 {
		return nil, nil, fmt.Errorf("attack: target never visible from training cameras")
	}
	root := tr.Span("train", obs.S("method", m.name), obs.I("iters", cfg.Iters), obs.I64("seed", cfg.Seed))
	p := m.init(rng, cfg, sc, root)
	defer func() {
		p.end()
		root.End()
	}()
	consecutive, sampler := cfg.Consecutive, eot.NewSampler(cfg.Tricks)
	if m.static {
		consecutive, sampler = false, eot.NewSampler(eot.AllTricks()) // "they utilized many EOT techniques"
	}
	stats := &TrainStats{}

	// Snapshot selection: the attacker prints the best patch seen, per the
	// paper's confirm-digitally-first protocol.
	verifyRng := rand.New(rand.NewSource(cfg.Seed + 777))
	bestPatch := (*Patch)(nil)
	bestScore := -1.0
	snapshot := func(it int) {
		cand := p.candidate()
		score := combinedVerify(det, cam, sc, cand, verifyRng)
		kept := score > bestScore
		if kept {
			bestScore, bestPatch = score, cand
		}
		root.Verify(obs.VerifyStats{It: it, Score: score, Best: bestScore, Kept: kept})
	}

	for it := 0; it < cfg.Iters; it++ {
		sp, layer := p.begin(it)
		window := pools.sampleWindow(rng, consecutive, cfg.WindowFrames)
		printed, printBwd := printExpectation(layer)
		decaled, decalBwd, err := p.composite(printed)
		if err != nil {
			return nil, nil, err
		}
		attackLoss, dTex, prob, err := forwardFrames(det, sc.Ground, decaled, window, sampler, rng, sc, cfg.TargetClass, sp, it)
		if err != nil {
			return nil, nil, err
		}
		rec := p.step(printBwd(decalBwd(dTex)), stats)

		stats.AttackLoss = append(stats.AttackLoss, attackLoss)
		stats.TargetProb = append(stats.TargetProb, prob)
		if cfg.Iters >= 40 && p.snapshotDue(it) {
			snapshot(it)
		}
		if sp.Enabled() {
			// The ink summary only exists for the journal; compute it under
			// the enabled check so a nil trace stays free.
			rec.Method, rec.It, rec.Final = m.name, it, it == cfg.Iters-1
			rec.Attack, rec.Weighted, rec.Total = attackLoss, rec.Alpha*attackLoss, rec.GanG+rec.Alpha*attackLoss
			rec.PTarget, rec.Best = prob, bestScore
			rec.InkMean, rec.InkFrac = p.ink()
			sp.Iter(rec)
		}
	}
	snapshot(cfg.Iters - 1)
	if bestPatch != nil {
		return bestPatch, stats, nil
	}
	return p.candidate(), stats, nil
}

// grayDecal is the monochrome decal path of our attack and its GAN-free
// ablation: the silhouette mask, then gray compositing in the paint ink.
type grayDecal struct {
	cfg    Config
	sc     Scene
	mask   *tensor.Tensor // [1,R,R] silhouette
	masked *tensor.Tensor // last composited layer
}

func newGrayDecal(cfg Config, sc Scene) grayDecal {
	return grayDecal{cfg: cfg, sc: sc, mask: shapes.Mask(cfg.Shape, gan.PatchRes, cfg.ShapeScale(), 0)}
}

func (l *grayDecal) composite(printed *tensor.Tensor) (*tensor.Tensor, func(*tensor.Tensor) *tensor.Tensor, error) {
	masked, maskBwd := imaging.ApplyShapeMask(printed, l.mask)
	decaled, gcomp, err := applyGrayDecals(l.sc.Ground, l.sc.Ground.Tex, masked, Placements(l.cfg, l.sc.TargetGX, l.sc.TargetGY), l.cfg.Ink)
	if err != nil {
		return nil, nil, err
	}
	l.masked = masked
	return decaled, func(dTex *tensor.Tensor) *tensor.Tensor { return maskBwd(gcomp.backward(dTex)) }, nil
}

func (l *grayDecal) ink() (mean, frac float64) { return inkStats(l.masked, l.mask) }

// grayPatch wraps a monochrome layer as a print-ready patch.
func (l *grayDecal) grayPatch(gray *tensor.Tensor) *Patch {
	return &Patch{Gray: gray, Mask: l.mask.Clone(), Cfg: l.cfg}
}

// ganParam is the paper's parameterization: the generator's output at a
// fixed z*, trained with Eq. 1 against a discriminator on Four Shapes.
type ganParam struct {
	grayDecal
	rng                      *rand.Rand
	root, seg                *obs.Span // seg is the current restart segment's span
	g                        *gan.Generator
	d                        *gan.Discriminator
	optG, optD               *optim.Adam
	zStar                    *tensor.Tensor // the z that will be "printed"
	out                      *tensor.Tensor // this iteration's generator output [1,1,R,R]
	segments, segLen, curSeg int
	lr                       float64 // current generator learning rate
	lossD                    float64 // most recent discriminator loss (for the D-step gate)
}

func newGANParam(rng *rand.Rand, cfg Config, sc Scene, root *obs.Span) patchParam {
	p := &ganParam{rng: rng, root: root, lr: cfg.LRG, lossD: 2 * math.Ln2} // D starts at the chance-level BCE
	p.g = gan.NewGenerator(rng)
	p.d = gan.NewDiscriminator(rng)
	p.optG = optim.NewAdam(p.g.Params(), cfg.LRG)
	p.optD = optim.NewAdam(p.d.Params(), cfg.LRD)
	p.grayDecal = newGrayDecal(cfg, sc)
	p.zStar = gan.SampleZ(rng, 1)

	// Random restarts: the targeted flip lives on a narrow manifold, so a
	// single Adam trajectory may never touch it. Split the budget into
	// segments with a fresh generator each; the printed artifact is the best
	// digitally-verified snapshot across segments (the paper's protocol
	// confirms digital success before deploying).
	p.segments = 1
	if cfg.Iters >= 120 {
		p.segments = 3
	}
	p.segLen = cfg.Iters / p.segments
	p.seg = root.Child("segment", obs.I("seg", 0))
	return p
}

func (p *ganParam) begin(it int) (*obs.Span, *tensor.Tensor) {
	segIt := it % p.segLen
	if it > 0 && segIt == 0 && it/p.segLen < p.segments {
		// New segment: fresh generator and optimizer; D persists.
		p.g = gan.NewGenerator(p.rng)
		p.optG = optim.NewAdam(p.g.Params(), p.cfg.LRG)
		p.zStar = gan.SampleZ(p.rng, 1)
		p.curSeg = it / p.segLen
		p.seg.End()
		p.seg = p.root.Child("segment", obs.I("seg", p.curSeg))
	}
	// Step-decay the generator LR for a stable final patch.
	switch {
	case p.segLen >= 10 && segIt == p.segLen*17/20:
		p.lr = p.cfg.LRG * 0.1
		p.optG.SetLR(p.lr)
	case p.segLen >= 10 && segIt == p.segLen*3/5:
		p.lr = p.cfg.LRG * 0.3
		p.optG.SetLR(p.lr)
	case segIt == 0:
		p.lr = p.cfg.LRG
		p.optG.SetLR(p.lr)
	}
	// Discriminator step (real Four Shapes vs generated). Updating D only
	// every other iteration (and not at all once it confidently separates)
	// keeps the realism term from saturating the patch into a solid
	// silhouette, which would zero the attack gradient through the
	// generator's output sigmoid.
	if it%2 == 0 && p.lossD > 0.1 {
		const dBatch = 6
		real := shapes.Samples(p.rng, p.cfg.Shape, gan.PatchRes, dBatch)
		zD := gan.SampleZ(p.rng, dBatch)
		fakes := p.g.Forward(zD) // detached: no G backward from this pass
		nn.ZeroGrads(p.d.Params())
		p.lossD = gan.TracedDiscriminatorStep(p.seg, it, p.d, real, fakes)
		p.optD.Step()
		nn.ZeroGrads(p.d.Params())
	}
	p.out = p.g.Forward(p.zStar)
	return p.seg, p.out.Reshape(1, gan.PatchRes, gan.PatchRes)
}

// step is the generator update of Eq. 1: GAN realism + α · attack.
func (p *ganParam) step(dLayer *tensor.Tensor, stats *TrainStats) obs.IterStats {
	r := gan.PatchRes
	lossG, dFake := gan.GeneratorAdversarialGrad(p.d, p.out)
	nn.ZeroGrads(p.d.Params()) // adversarial grad must not move D
	dPatch := dFake.Reshape(1, r, r).Clone().AddInPlace(dLayer.Scale(p.cfg.Alpha))
	tensor.AssertFinite("patch gradient", dPatch)

	nn.ZeroGrads(p.g.Params())
	p.g.Backward(dPatch.Reshape(1, 1, r, r))
	optim.ClipGradNorm(p.g.Params(), 5)
	p.optG.Step()

	stats.GANLossD = append(stats.GANLossD, p.lossD)
	stats.GANLossG = append(stats.GANLossG, lossG)
	return obs.IterStats{Seg: p.curSeg, Alpha: p.cfg.Alpha, GanG: lossG, GanD: p.lossD, GradNorm: dPatch.L2(), LR: p.lr}
}

func (p *ganParam) snapshotDue(it int) bool { return it%p.segLen >= p.segLen/4 && it%10 == 0 }

func (p *ganParam) candidate() *Patch {
	p.g.SetTraining(false)
	defer p.g.SetTraining(true)
	return p.grayPatch(p.g.Forward(p.zStar).Reshape(1, gan.PatchRes, gan.PatchRes).Clone())
}

func (p *ganParam) end() { p.seg.End() }

// pixelParam is a patch optimized directly in pixel space: Adam on the raw
// values, clamped to [0,1] in the forward pass and after every step. It
// journals on the root span and snapshots every 20 iterations once a
// quarter of the run is done.
type pixelParam struct {
	root  *obs.Span
	iters int
	param *nn.Param
	opt   *optim.Adam
	clamp *imaging.ClampUnit
	layer *tensor.Tensor // this iteration's clamped layer
}

func newPixelParam(root *obs.Span, iters int, name string, lr float64, start *tensor.Tensor) pixelParam {
	param := nn.NewParam(name, start)
	return pixelParam{root: root, iters: iters, param: param, opt: optim.NewAdam([]*nn.Param{param}, lr)}
}

func (p *pixelParam) begin(int) (*obs.Span, *tensor.Tensor) {
	p.clamp = imaging.NewClampUnit()
	p.layer = p.clamp.Forward(p.param.Value)
	return p.root, p.layer
}

func (p *pixelParam) step(dLayer *tensor.Tensor, _ *TrainStats) obs.IterStats {
	p.param.Grad.Zero()
	p.param.Grad.AddInPlace(p.clamp.Backward(dLayer))
	tensor.AssertFinite(p.param.Name+" gradient", p.param.Grad)
	p.opt.Step()
	p.param.Value.Clamp(0, 1)
	return obs.IterStats{Alpha: 1, GradNorm: p.param.Grad.L2(), LR: p.opt.LR()}
}

func (p *pixelParam) snapshotDue(it int) bool { return it >= p.iters/4 && it%20 == 0 }

func (p *pixelParam) end() {}

// directParam is the GAN-free ablation: the monochrome layer itself.
type directParam struct {
	pixelParam
	grayDecal
}

func newDirectParam(rng *rand.Rand, cfg Config, sc Scene, root *obs.Span) patchParam {
	gray := newGrayDecal(cfg, sc)
	start := tensor.NewRandU(rng, 0.05, 0.45, 1, gan.PatchRes, gan.PatchRes)
	return &directParam{newPixelParam(root, cfg.Iters, "direct.patch", 0.05, start), gray}
}

func (p *directParam) step(dLayer *tensor.Tensor, stats *TrainStats) obs.IterStats {
	rec := p.pixelParam.step(dLayer, stats)
	stats.GradNorm = append(stats.GradNorm, rec.GradNorm)
	return rec
}

func (p *directParam) candidate() *Patch { return p.grayPatch(p.param.Value.Clone()) }

// rgbParam is the baseline's colored, full-square sticker.
type rgbParam struct {
	pixelParam
	cfg Config
	sc  Scene
}

func newRGBParam(rng *rand.Rand, cfg Config, sc Scene, root *obs.Span) patchParam {
	start := tensor.NewRandU(rng, 0.25, 0.75, 3, gan.PatchRes, gan.PatchRes)
	return &rgbParam{newPixelParam(root, cfg.Iters, "baseline.patch", 0.03, start), cfg, sc}
}

func (p *rgbParam) composite(printed *tensor.Tensor) (*tensor.Tensor, func(*tensor.Tensor) *tensor.Tensor, error) {
	decaled, rcomp, err := applyRGBDecals(p.sc.Ground, p.sc.Ground.Tex, printed, Placements(p.cfg, p.sc.TargetGX, p.sc.TargetGY))
	if err != nil {
		return nil, nil, err
	}
	return decaled, rcomp.backward, nil
}

// ink summarizes the clamped layer before printing; there is no mask.
func (p *rgbParam) ink() (mean, frac float64) { return inkStats(p.layer, nil) }

func (p *rgbParam) candidate() *Patch { return &Patch{RGB: p.param.Value.Clone(), Cfg: p.cfg} }
