// Package yolo implements the victim object detector: a YOLOv3-tiny-style
// one-stage network (conv/BN/leaky stacks, two detection heads fed by a
// route + upsample + concat, anchor boxes, sigmoid objectness, per-class
// scores), scaled down so it trains from scratch on a CPU at 64×64 input.
// The package also provides decoding + NMS, the training loss, and the
// targeted attack loss the GAN backpropagates through (Eq. 2 of the paper).
package yolo

import (
	"fmt"
	"math/rand"

	"roadtrojan/internal/nn"
	"roadtrojan/internal/tensor"
)

// Anchor is a prior box size in pixels.
type Anchor struct {
	W, H float64
}

// Config describes the detector.
type Config struct {
	InputSize  int // square input resolution
	NumClasses int
	// Width scales channel counts; 1 is the default profile below.
	Width int
	// CoarseAnchors are the 3 priors of the stride-16 head; FineAnchors of
	// the stride-8 head.
	CoarseAnchors [3]Anchor
	FineAnchors   [3]Anchor
}

// DefaultConfig matches the experiment setup: 64×64 input, the five road
// classes, and anchors sized for the synthetic objects (ground markings are
// wide and flat; billboards are taller).
func DefaultConfig() Config {
	return Config{
		InputSize:  64,
		NumClasses: 5,
		Width:      1,
		CoarseAnchors: [3]Anchor{
			{W: 18, H: 7}, {W: 16, H: 16}, {W: 36, H: 18},
		},
		FineAnchors: [3]Anchor{
			{W: 9, H: 3}, {W: 12, H: 7}, {W: 6, H: 12},
		},
	}
}

// Strides of the two detection heads.
const (
	CoarseStride = 16
	FineStride   = 8
	// AnchorsPerHead is fixed at 3, like YOLOv3-tiny.
	AnchorsPerHead = 3
)

// Model is the detector network.
type Model struct {
	Cfg Config

	// Backbone: conv/BN/leaky + maxpool stages (darknet-style).
	b1, b2, b3, b4, b5, b6 *nn.ConvBNLeaky
	p1, p2, p3, p4         *nn.MaxPool2D
	p5                     *nn.MaxPool2D // stride-1 pool, darknet layer 11

	// Coarse head (stride 16).
	neck   *nn.ConvBNLeaky // 1×1 bottleneck, route source
	h1pre  *nn.ConvBNLeaky
	h1conv *nn.Conv2D

	// Fine head (stride 8) via route + upsample + concat.
	lat    *nn.ConvBNLeaky // 1×1 lateral on the neck
	up     *nn.Upsample2D
	h2pre  *nn.ConvBNLeaky
	h2conv *nn.Conv2D

	// Cached shapes for Backward through the concat.
	lastRouteACh int
}

// newConvBlock is darknet's standard unit: conv + BN + leaky(0.1), as the
// fusable nn.ConvBNLeaky module (fusing starts off; see Model.SetFused).
func newConvBlock(rng *rand.Rand, name string, in, out, k, stride, pad int) *nn.ConvBNLeaky {
	return nn.NewConvBNLeaky(rng, name, in, out, k, stride, pad, 0.1)
}

// New builds a randomly initialized detector.
func New(rng *rand.Rand, cfg Config) *Model {
	w := cfg.Width
	if w < 1 {
		w = 1
	}
	ch := func(c int) int { return c * w }
	perAnchor := 5 + cfg.NumClasses
	headCh := AnchorsPerHead * perAnchor

	m := &Model{Cfg: cfg}
	m.b1 = newConvBlock(rng, "b1", 3, ch(8), 3, 1, 1)
	m.p1 = nn.NewMaxPool2D(2, 2)
	m.b2 = newConvBlock(rng, "b2", ch(8), ch(16), 3, 1, 1)
	m.p2 = nn.NewMaxPool2D(2, 2)
	m.b3 = newConvBlock(rng, "b3", ch(16), ch(32), 3, 1, 1)
	m.p3 = nn.NewMaxPool2D(2, 2)
	m.b4 = newConvBlock(rng, "b4", ch(32), ch(64), 3, 1, 1) // route A source (stride 8)
	m.p4 = nn.NewMaxPool2D(2, 2)
	m.b5 = newConvBlock(rng, "b5", ch(64), ch(128), 3, 1, 1)
	m.p5 = nn.NewMaxPool2D(2, 1) // stride-1 pool keeps 4×4
	m.b6 = newConvBlock(rng, "b6", ch(128), ch(256), 3, 1, 1)

	m.neck = newConvBlock(rng, "neck", ch(256), ch(64), 1, 1, 0) // route B source
	m.h1pre = newConvBlock(rng, "h1pre", ch(64), ch(128), 3, 1, 1)
	m.h1conv = nn.NewConv2D(rng, "h1", ch(128), headCh, 1, 1, 0, true)

	m.lat = newConvBlock(rng, "lat", ch(64), ch(32), 1, 1, 0)
	m.up = nn.NewUpsample2D(2)
	m.h2pre = newConvBlock(rng, "h2pre", ch(32)+ch(64), ch(64), 3, 1, 1)
	m.h2conv = nn.NewConv2D(rng, "h2", ch(64), headCh, 1, 1, 0, true)
	m.lastRouteACh = ch(64)
	return m
}

// Clone returns a deep replica of the detector sharing no mutable state
// with m: every layer's parameters, batch-norm running statistics, and mode
// flags are copied into fresh storage, and forward caches start empty.
// Because nn modules cache activations in place during Forward (they are not
// reentrant — see the internal/nn package comment), concurrent inference
// must give each goroutine its own replica; Clone is how the serving worker
// pool builds them.
func (m *Model) Clone() *Model {
	c := &Model{Cfg: m.Cfg, lastRouteACh: m.lastRouteACh}
	c.b1, c.b2, c.b3 = m.b1.Clone(), m.b2.Clone(), m.b3.Clone()
	c.b4, c.b5, c.b6 = m.b4.Clone(), m.b5.Clone(), m.b6.Clone()
	c.p1, c.p2 = m.p1.Clone(), m.p2.Clone()
	c.p3, c.p4, c.p5 = m.p3.Clone(), m.p4.Clone(), m.p5.Clone()
	c.neck, c.h1pre = m.neck.Clone(), m.h1pre.Clone()
	c.h1conv = m.h1conv.Clone()
	c.lat = m.lat.Clone()
	c.up = m.up.Clone()
	c.h2pre = m.h2pre.Clone()
	c.h2conv = m.h2conv.Clone()
	return c
}

// Heads bundles the raw outputs of the two detection heads:
// Coarse [N, 3·(5+C), S/16, S/16] and Fine [N, 3·(5+C), S/8, S/8].
type Heads struct {
	Coarse *tensor.Tensor
	Fine   *tensor.Tensor
}

// Forward runs the network on an NCHW batch in [0,1].
func (m *Model) Forward(x *tensor.Tensor) Heads {
	t := m.p1.Forward(m.b1.Forward(x))
	t = m.p2.Forward(m.b2.Forward(t))
	t = m.p3.Forward(m.b3.Forward(t))
	routeA := m.b4.Forward(t)
	t = m.p4.Forward(routeA)
	t = m.p5.Forward(m.b5.Forward(t))
	t = m.b6.Forward(t)
	routeB := m.neck.Forward(t)

	coarse := m.h1conv.Forward(m.h1pre.Forward(routeB))

	lat := m.up.Forward(m.lat.Forward(routeB))
	cat := tensor.Concat(1, lat, routeA)
	fine := m.h2conv.Forward(m.h2pre.Forward(cat))
	return Heads{Coarse: coarse, Fine: fine}
}

// Backward backpropagates head gradients to the input image, accumulating
// parameter gradients. Either gradient may be nil (treated as zero).
func (m *Model) Backward(d Heads) *tensor.Tensor {
	return m.backward(d, (*nn.Conv2D).Backward, (*nn.ConvBNLeaky).Backward)
}

// InputGrad is Backward for the frozen detector the attack optimizes
// against: it returns the bit-identical input gradient but computes no
// parameter gradient (no weight-gradient im2col and dot, no batch-norm γ/β
// reductions) and leaves every Params() gradient untouched. Inference mode
// only: after SetTraining(true) it panics in the first batch norm.
func (m *Model) InputGrad(d Heads) *tensor.Tensor {
	return m.backward(d, (*nn.Conv2D).InputGrad, (*nn.ConvBNLeaky).InputGrad)
}

// backward is the graph walk Backward and InputGrad share; conv and block
// backpropagate through the head convolutions and the conv blocks.
func (m *Model) backward(d Heads, conv func(*nn.Conv2D, *tensor.Tensor) *tensor.Tensor,
	block func(*nn.ConvBNLeaky, *tensor.Tensor) *tensor.Tensor) *tensor.Tensor {
	var dRouteB, dRouteA *tensor.Tensor

	if d.Fine != nil {
		dCat := block(m.h2pre, conv(m.h2conv, d.Fine))
		latCh := dCat.Dim(1) - m.lastRouteACh
		parts := tensor.SplitDim(dCat, 1, latCh, m.lastRouteACh)
		dRouteB = block(m.lat, m.up.Backward(parts[0]))
		dRouteA = parts[1]
	}
	if d.Coarse != nil {
		dB := block(m.h1pre, conv(m.h1conv, d.Coarse))
		if dRouteB == nil {
			dRouteB = dB
		} else {
			dRouteB.AddInPlace(dB)
		}
	}
	if dRouteB == nil {
		panic("yolo: Backward with no head gradients")
	}
	dt := block(m.neck, dRouteB)
	dt = block(m.b6, dt)
	dt = block(m.b5, m.p5.Backward(dt))
	dt = m.p4.Backward(dt)
	if dRouteA != nil {
		dt.AddInPlace(dRouteA)
	}
	dt = block(m.b4, dt)
	dt = block(m.b3, m.p3.Backward(dt))
	dt = block(m.b2, m.p2.Backward(dt))
	return block(m.b1, m.p1.Backward(dt))
}

// Params returns every learnable parameter.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	for _, cb := range m.blocks() {
		ps = append(ps, cb.Params()...)
	}
	ps = append(ps, m.h1conv.Params()...)
	ps = append(ps, m.h2conv.Params()...)
	return ps
}

func (m *Model) blocks() []*nn.ConvBNLeaky {
	return []*nn.ConvBNLeaky{m.b1, m.b2, m.b3, m.b4, m.b5, m.b6, m.neck, m.h1pre, m.lat, m.h2pre}
}

// SetTraining toggles batch-norm mode.
func (m *Model) SetTraining(training bool) {
	for _, cb := range m.blocks() {
		cb.SetTraining(training)
	}
}

// SetFused toggles the eval-time fused conv+BN+leaky kernels on every conv
// block (the two head convolutions carry their own bias and are unaffected).
// Fusing is inference-only: Backward or InputGrad through a fused Forward
// panics, so training paths leave it off, and so does the attack trainer,
// whose eval-mode Forward feeds the input-only InputGrad. The exact-parity
// kernels keep fused output bit-identical to the unfused chain; serving
// enables this on its worker replicas.
func (m *Model) SetFused(on bool) {
	for _, cb := range m.blocks() {
		cb.SetFused(on)
	}
}

// State captures parameters plus batch-norm running statistics.
func (m *Model) State() nn.State {
	s := nn.CollectState(m.Params())
	for _, cb := range m.blocks() {
		s[cb.BN.Gamma.Name+".rmean"] = cb.BN.RunningMean
		s[cb.BN.Gamma.Name+".rvar"] = cb.BN.RunningVar
	}
	return s
}

// LoadState restores parameters and running statistics.
func (m *Model) LoadState(s nn.State) error {
	if err := nn.ApplyState(s, m.Params()); err != nil {
		return fmt.Errorf("yolo: %w", err)
	}
	for _, cb := range m.blocks() {
		for suffix, dst := range map[string]*tensor.Tensor{".rmean": cb.BN.RunningMean, ".rvar": cb.BN.RunningVar} {
			name := cb.BN.Gamma.Name + suffix
			t, ok := s[name]
			if !ok {
				return fmt.Errorf("yolo: %w: missing buffer %q", nn.ErrBadWeights, name)
			}
			if t.Len() != dst.Len() {
				return fmt.Errorf("yolo: %w: buffer %q size %d, want %d", nn.ErrBadWeights, name, t.Len(), dst.Len())
			}
			dst.CopyFrom(t)
		}
	}
	return nil
}

// HeadAnchors returns the anchors of the given head.
func (m *Model) HeadAnchors(fine bool) [3]Anchor {
	if fine {
		return m.Cfg.FineAnchors
	}
	return m.Cfg.CoarseAnchors
}
