package main

import (
	"fmt"
	"math/rand"
	"time"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/eot"
	"roadtrojan/internal/eval"
	"roadtrojan/internal/gan"
	"roadtrojan/internal/imaging"
	"roadtrojan/internal/nn"
	"roadtrojan/internal/optim"
	"roadtrojan/internal/physical"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/shapes"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

// The replay times single layers from outside, with the same public calls
// attack.Train and the serving path make, at their shapes. It runs in every
// traced run, after the workload's system is torn down, so each layer is
// timed on an otherwise idle process.

// timings collects one duration per repetition per name; the first
// repetition warms caches and arenas and is dropped unless it is the only
// one.
type timings map[string][]float64

func (t timings) add(name string, d time.Duration) { t[name] = append(t[name], ms(d)) }

func (t timings) record(r *run) {
	for name, xs := range t {
		r.set(name, median(timed(xs)))
	}
}

// timed drops the warm-up repetition.
func timed(xs []float64) []float64 {
	if len(xs) > 1 {
		return xs[1:]
	}
	return xs
}

// replay times one attack iteration stage by stage, then each detector
// block and the serving forward.
func replay(r *run) error {
	det := newDetector()
	env := eval.NewEnv(det, 0, 1, r.seed, nil)
	if err := replayIteration(r, det, env.Cam, env.Road()); err != nil {
		return err
	}
	return replayBlocks(r, det)
}

// replayedIterMs is the replayed iteration's total: every stage once, the
// discriminator step weighted by the share of traced iterations that ran it.
func replayedIterMs(v map[string]float64) float64 {
	sum := v["gan.d_step_ms"] * v["attack.d_step_share"]
	for _, n := range []string{"gan.g_fwd_ms", "gan.g_bwd_ms", "imaging.decal_fwd_ms", "imaging.decal_bwd_ms",
		"scene.render_fwd_ms", "scene.render_bwd_ms", "eot.fwd_ms", "eot.bwd_ms",
		"yolo.forward_ms", "yolo.attack_loss_ms", "yolo.backward_ms"} {
		sum += v[n]
	}
	return sum
}

// replayWindow picks W consecutive visible steps from the middle of the
// normal-speed approach: a consecutive-frame window like Train samples.
func replayWindow(cam scene.Camera, sc attack.Scene, w int, rng *rand.Rand) ([]scene.TrajectoryStep, error) {
	var vis []scene.TrajectoryStep
	for _, st := range scene.BuildTrajectory(cam, scene.Challenges("normal")[0], sc.TargetGX, sc.TargetGY, rng) {
		if _, ok := st.Cam.GroundBoxToImage(sc.GX0, sc.GY0, sc.GX1, sc.GY1); ok {
			vis = append(vis, st)
		}
	}
	if len(vis) < w {
		return nil, fmt.Errorf("replay: only %d visible frames, need %d", len(vis), w)
	}
	mid := (len(vis) - w) / 2
	return vis[mid : mid+w], nil
}

// attackTarget is the detector target for one frame: the arrow's box, moved
// by the frame's EOT geometry, or an off-frame box when it left the view.
func attackTarget(st scene.TrajectoryStep, sc attack.Scene, applied *eot.Applied, class scene.Class) yolo.AttackTarget {
	box, ok := st.Cam.GroundBoxToImage(sc.GX0, sc.GY0, sc.GX1, sc.GY1)
	if ok {
		cx, cy, w, h, valid := applied.MapBox(box.CX, box.CY, box.W, box.H)
		box, ok = scene.Box{CX: cx, CY: cy, W: w, H: h}, valid
	}
	if !ok {
		box = scene.Box{CX: -100, CY: -100, W: 1, H: 1}
	}
	return yolo.AttackTarget{Box: box, Class: class}
}

// replayFrame is one frame's backward state.
type replayFrame struct {
	camWarp *imaging.Warp
	sky     []bool
	blur    int
	applied *eot.Applied
}

// replayIteration runs attack.Train's generator step in Train's order at
// Train's shapes (attack.DefaultConfig: a W=3 window, N=4 decals, PaperBest
// EOT, batch-6 discriminator step) and times each stage. Per-frame stages
// report the sum over the window's frames.
func replayIteration(r *run, det *yolo.Model, cam scene.Camera, sc attack.Scene) error {
	cfg := attack.DefaultConfig()
	rng := rand.New(rand.NewSource(r.seed))
	window, err := replayWindow(cam, sc, cfg.WindowFrames, rng)
	if err != nil {
		return err
	}
	g, d := gan.NewGenerator(rng), gan.NewDiscriminator(rng)
	optG, optD := optim.NewAdam(g.Params(), cfg.LRG), optim.NewAdam(d.Params(), cfg.LRD)
	sampler := eot.NewSampler(cfg.Tricks)
	res := gan.PatchRes
	mask := shapes.Mask(cfg.Shape, res, cfg.ShapeScale(), 0)
	zStar := gan.SampleZ(rng, 1)
	pls := attack.Placements(cfg, sc.TargetGX, sc.TargetGY)
	pm := physical.DefaultPrintModel()
	gamut := pm.GamutHigh - pm.GamutLow
	f := float64(res - 1)
	corners := [4]imaging.Point{{X: 0, Y: 0}, {X: f, Y: 0}, {X: f, Y: f}, {X: 0, Y: f}}
	imgH, imgW := window[0].Cam.ImgH, window[0].Cam.ImgW
	sz := 3 * imgH * imgW
	det.SetTraining(false)

	t := timings{}
	for rep := 0; rep <= r.size.reps; rep++ {
		start := time.Now()
		real := shapes.Samples(rng, cfg.Shape, res, 6)
		fakes := g.Forward(gan.SampleZ(rng, 6))
		nn.ZeroGrads(d.Params())
		gan.DiscriminatorStep(d, real, fakes)
		optD.Step()
		nn.ZeroGrads(d.Params())
		t.add("gan.d_step_ms", time.Since(start))

		start = time.Now()
		patch4 := g.Forward(zStar)
		t.add("gan.g_fwd_ms", time.Since(start))

		// Print expectation, silhouette mask, then one warp and ink
		// composite per decal placement.
		start = time.Now()
		printed := patch4.Reshape(1, res, res).Map(func(v float64) float64 { return pm.GamutLow + gamut*v })
		masked, maskBwd := imaging.ApplyShapeMask(printed, mask)
		tex := sc.Ground.Tex
		warps := make([]*imaging.Warp, len(pls))
		comps := make([]*imaging.CompositeInk, len(pls))
		for i, pl := range pls {
			h, err := imaging.QuadToQuad(sc.Ground.DecalQuad(pl.GX, pl.GY, pl.SizeM, pl.Rot), corners)
			if err != nil {
				return err
			}
			warps[i] = imaging.NewWarp(h, sc.Ground.Rows(), sc.Ground.Cols(), 1)
			comps[i] = imaging.NewCompositeInk([3]float64{cfg.Ink, cfg.Ink, cfg.Ink * 1.02})
			tex = comps[i].Forward(tex, warps[i].Forward(masked))
		}
		t.add("imaging.decal_fwd_ms", time.Since(start))

		batch := tensor.New(len(window), 3, imgH, imgW)
		targets := make([]yolo.AttackTarget, len(window))
		frames := make([]replayFrame, len(window))
		var renderFwd, eotFwd time.Duration
		for i, st := range window {
			start = time.Now()
			applied := sampler.Sample(rng, imgH, imgW)
			eotFwd += time.Since(start)

			start = time.Now()
			ground := &scene.Ground{Tex: tex, WidthM: sc.Ground.WidthM, LengthM: sc.Ground.LengthM, MPP: sc.Ground.MPP}
			wp, err := st.Cam.TexWarp(ground)
			if err != nil {
				return err
			}
			img := wp.Forward(tex)
			sky := st.Cam.ApplySky(img)
			if st.BlurLen > 1 {
				img = imaging.BoxBlurVertical(img, st.BlurLen)
			}
			renderFwd += time.Since(start)

			start = time.Now()
			img = applied.Forward(img)
			targets[i] = attackTarget(st, sc, applied, cfg.TargetClass)
			eotFwd += time.Since(start)
			copy(batch.Data()[i*sz:(i+1)*sz], img.Data())
			frames[i] = replayFrame{camWarp: wp, sky: sky, blur: st.BlurLen, applied: applied}
		}
		t.add("scene.render_fwd_ms", renderFwd)
		t.add("eot.fwd_ms", eotFwd)

		start = time.Now()
		heads := det.Forward(batch)
		t.add("yolo.forward_ms", time.Since(start))
		start = time.Now()
		_, dHeads := det.AttackLoss(heads, targets, yolo.DefaultAttackLossWeights())
		for i := range targets {
			det.TargetClassProb(heads, targets[i], i)
		}
		t.add("yolo.attack_loss_ms", time.Since(start))
		start = time.Now()
		dBatch := det.Backward(dHeads)
		nn.ZeroGrads(det.Params())
		t.add("yolo.backward_ms", time.Since(start))

		var renderBwd, eotBwd time.Duration
		var dTex *tensor.Tensor
		n := imgH * imgW
		for i, fr := range frames {
			start = time.Now()
			dImg := tensor.FromSlice(append([]float64(nil), dBatch.Data()[i*sz:(i+1)*sz]...), 3, imgH, imgW)
			dd := fr.applied.Backward(dImg)
			eotBwd += time.Since(start)

			start = time.Now()
			if fr.blur > 1 {
				dd = imaging.BoxBlurVertical(dd, fr.blur)
			}
			for p, isSky := range fr.sky {
				if isSky {
					for c := 0; c < 3; c++ {
						dd.Data()[c*n+p] = 0
					}
				}
			}
			dt := fr.camWarp.Backward(dd)
			if dTex == nil {
				dTex = dt
			} else {
				dTex.AddInPlace(dt)
			}
			renderBwd += time.Since(start)
		}
		t.add("eot.bwd_ms", eotBwd)
		t.add("scene.render_bwd_ms", renderBwd)

		start = time.Now()
		var dLayer *tensor.Tensor
		for i := len(comps) - 1; i >= 0; i-- {
			dBg, dGray := comps[i].Backward(dTex)
			dp := warps[i].Backward(dGray)
			if dLayer == nil {
				dLayer = dp
			} else {
				dLayer.AddInPlace(dp)
			}
			dTex = dBg
		}
		dRaw := maskBwd(dLayer).Map(func(v float64) float64 { return gamut * v }).Scale(cfg.Alpha)
		t.add("imaging.decal_bwd_ms", time.Since(start))

		start = time.Now()
		_, dFake := gan.GeneratorAdversarialGrad(d, patch4)
		nn.ZeroGrads(d.Params())
		dPatch := dFake.Reshape(1, res, res).Clone().AddInPlace(dRaw)
		nn.ZeroGrads(g.Params())
		g.Backward(dPatch.Reshape(1, 1, res, res))
		optim.ClipGradNorm(g.Params(), 5)
		optG.Step()
		t.add("gan.g_bwd_ms", time.Since(start))
	}
	t.record(r)
	return nil
}

// blockSpec is one detector block at the shapes yolo.New builds (width 1).
type blockSpec struct {
	name, param     string // metric name, parameter-name prefix in the detector state
	in, out, k, pad int
	head            bool // a plain biased convolution rather than conv+BN+leaky
}

var blockSpecs = []blockSpec{
	{"b1", "b1", 3, 8, 3, 1, false}, {"b2", "b2", 8, 16, 3, 1, false},
	{"b3", "b3", 16, 32, 3, 1, false}, {"b4", "b4", 32, 64, 3, 1, false},
	{"b5", "b5", 64, 128, 3, 1, false}, {"b6", "b6", 128, 256, 3, 1, false},
	{"neck", "neck", 256, 64, 1, 0, false}, {"h1pre", "h1pre", 64, 128, 3, 1, false},
	{"h1conv", "h1", 128, 30, 1, 0, true}, {"lat", "lat", 64, 32, 1, 0, false},
	{"h2pre", "h2pre", 96, 64, 3, 1, false}, {"h2conv", "h2", 64, 30, 1, 0, true},
}

// block is one built block: the module, its convolution, and the
// activations that reach it in a forward pass.
type block struct {
	spec blockSpec
	mod  nn.Module
	conv *nn.Conv2D
	in   *tensor.Tensor
}

// buildBlocks builds every block with nn.NewConvBNLeaky / nn.NewConv2D,
// copies det's weights and batch-norm statistics into it through its state,
// and runs yolo.Model.Forward's dataflow on a [3,3,64,64] batch to capture
// each block's input.
func buildBlocks(det *yolo.Model) ([]*block, error) {
	state := det.State()
	rng := rand.New(rand.NewSource(1)) // initial weights are overwritten below
	byName := map[string]*block{}
	var out []*block
	for _, s := range blockSpecs {
		b := &block{spec: s}
		if s.head {
			b.conv = nn.NewConv2D(rng, s.param, s.in, s.out, s.k, 1, s.pad, true)
			b.mod = b.conv
		} else {
			cb := nn.NewConvBNLeaky(rng, s.param, s.in, s.out, s.k, 1, s.pad, 0.1)
			for suffix, dst := range map[string]*tensor.Tensor{".rmean": cb.BN.RunningMean, ".rvar": cb.BN.RunningVar} {
				src, ok := state[cb.BN.Gamma.Name+suffix]
				if !ok || src.Len() != dst.Len() {
					return nil, fmt.Errorf("replay: detector state has no %s%s of the right size", cb.BN.Gamma.Name, suffix)
				}
				dst.CopyFrom(src)
			}
			cb.SetTraining(false)
			b.conv, b.mod = cb.Conv, cb
		}
		if err := nn.ApplyState(state, b.mod.Params()); err != nil {
			return nil, fmt.Errorf("replay: block %s: %w", s.name, err)
		}
		byName[s.name] = b
		out = append(out, b)
	}
	fwd := func(name string, x *tensor.Tensor) *tensor.Tensor {
		byName[name].in = x
		return byName[name].mod.Forward(x)
	}
	pool := nn.NewMaxPool2D(2, 2)
	t := pool.Forward(fwd("b1", tensor.NewRandU(rng, 0, 1, 3, 3, 64, 64)))
	t = pool.Forward(fwd("b2", t))
	t = pool.Forward(fwd("b3", t))
	routeA := fwd("b4", t)
	t = nn.NewMaxPool2D(2, 1).Forward(fwd("b5", pool.Forward(routeA)))
	routeB := fwd("neck", fwd("b6", t))
	fwd("h1conv", fwd("h1pre", routeB))
	cat := tensor.Concat(1, nn.NewUpsample2D(2).Forward(fwd("lat", routeB)), routeA)
	fwd("h2conv", fwd("h2pre", cat))
	return out, nil
}

// firstSamples copies the first n samples of an NCHW batch.
func firstSamples(x *tensor.Tensor, n int) *tensor.Tensor {
	per := x.Len() / x.Dim(0)
	return tensor.FromSlice(append([]float64(nil), x.Data()[:n*per]...), n, x.Dim(1), x.Dim(2), x.Dim(3))
}

// replayBlocks times every block forward and backward at N=3 (the attack
// window), the weight-gradient share of its convolution's backward, and its
// fused serving forward at N=1; then the whole detector's fused serving
// forward at N=1 and N=2 and one decode.
func replayBlocks(r *run, det *yolo.Model) error {
	blocks, err := buildBlocks(det)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	t := timings{}
	// Each repetition times the whole detector's forward and then every
	// block's, so the coverage ratio compares times taken moments apart.
	var coverage []float64
	for rep := 0; rep <= r.size.reps; rep++ {
		start := time.Now()
		det.Forward(blocks[0].in)
		whole := ms(time.Since(start))
		sum := 0.0
		for _, b := range blocks {
			start := time.Now()
			b.mod.Forward(b.in)
			d := time.Since(start)
			t.add("yolo."+b.spec.name+".fwd_ms", d)
			sum += ms(d)
		}
		coverage = append(coverage, sum/whole)
	}
	for _, b := range blocks {
		outShape := b.mod.Forward(b.in).Shape()
		dOut := tensor.NewRandN(rng, 0.1, outShape...)
		dW := tensor.New(b.conv.Weight.Value.Shape()...)
		var dB *tensor.Tensor
		if b.conv.Bias != nil {
			dB = tensor.New(b.conv.OutC)
		}
		serving := servingModule(b)
		in1 := firstSamples(b.in, 1)
		for rep := 0; rep <= r.size.reps; rep++ {
			b.mod.Forward(b.in) // the backward reads this forward's activations
			start := time.Now()
			b.mod.Backward(dOut)
			t.add("yolo."+b.spec.name+".bwd_ms", time.Since(start))

			start = time.Now()
			tensor.Conv2DBackward(b.in, b.conv.Weight.Value, dOut, 1, b.spec.pad, dW, dB)
			withW := time.Since(start)
			start = time.Now()
			tensor.Conv2DBackward(b.in, b.conv.Weight.Value, dOut, 1, b.spec.pad, nil, dB)
			t.add("yolo."+b.spec.name+".wgrad_ms", withW-time.Since(start))

			start = time.Now()
			serving.Forward(in1)
			t.add("yolo."+b.spec.name+".serve_fwd_ms", time.Since(start))
		}
	}

	replica := det.Clone()
	replica.SetTraining(false)
	replica.SetFused(true)
	x := tensor.NewRandU(rng, 0, 1, 2, 3, 64, 64)
	x1 := firstSamples(x, 1)
	opts := yolo.DefaultDecode()
	for rep := 0; rep <= r.size.reps; rep++ {
		start := time.Now()
		heads := replica.Forward(x1)
		t.add("yolo.serve_forward_ms", time.Since(start))
		start = time.Now()
		replica.DecodeSample(heads, 0, opts)
		t.add("yolo.decode_ms", time.Since(start))
		start = time.Now()
		replica.Forward(x)
		t.add("yolo.serve_forward_n2_ms", time.Since(start))
	}
	t.record(r)
	r.set("yolo.block_coverage", median(timed(coverage)))
	return nil
}

// servingModule is the block as a serving replica runs it: a fused
// conv+BN+leaky clone in inference mode, or the plain head convolution.
func servingModule(b *block) nn.Module {
	cb, ok := b.mod.(*nn.ConvBNLeaky)
	if !ok {
		return b.conv.Clone()
	}
	c := cb.Clone()
	c.SetTraining(false)
	c.SetFused(true)
	return c
}
