package nn

import (
	"math"
	"math/rand"

	"roadtrojan/internal/tensor"
)

// ConvBNLeaky is the darknet conv block — Conv2D → BatchNorm2D → LeakyReLU —
// as one module, with an eval-time fused fast path. Training-mode behavior is
// exactly the three submodules chained (Forward caches, Backward, batch
// statistics all intact). In inference mode, when fusing is switched on with
// SetFused(true), Forward runs a single tensor kernel pass
// (tensor.Conv2DBNLeaky) instead of three module passes. The kernel keeps the
// batch-norm arithmetic verbatim, so its output is bit-identical to the
// unfused chain — fused and unfused serving replicas stay
// byte-interchangeable.
//
// The fold snapshots the batch-norm affine and running statistics at
// SetTraining(false) / SetFused(true) time; mutate either and the next mode
// switch refolds.
// When tensor.RefKernelsEnabled() is set (benchmark/parity harness), Forward
// always takes the unfused chain so the reference window measures the
// genuinely unfused pipeline.
//
// The fused pass does not populate Backward caches: Backward or InputGrad
// after a fused Forward panics. The attack trainer's eval-mode
// Forward→InputGrad loop keeps fusing off (the default) and is unaffected.
type ConvBNLeaky struct {
	Conv *Conv2D
	BN   *BatchNorm2D
	Act  *LeakyReLU

	fused bool

	// Fold snapshot, rebuilt lazily after any mode switch.
	foldDirty bool
	gamma     []float64
	beta      []float64
	mean      []float64
	invSD     []float64

	// True when the most recent Forward took the fused kernel path (and
	// therefore left no Backward caches behind).
	fusedForward bool
}

var _ Module = (*ConvBNLeaky)(nil)
var _ ModeSetter = (*ConvBNLeaky)(nil)

// NewConvBNLeaky builds a fresh darknet conv block: bias-free He-initialized
// convolution, batch norm over outC channels, leaky rectifier. Fusing starts
// off.
func NewConvBNLeaky(rng *rand.Rand, name string, inC, outC, kernel, stride, pad int, slope float64) *ConvBNLeaky {
	return WrapConvBNLeaky(
		NewConv2D(rng, name, inC, outC, kernel, stride, pad, false),
		NewBatchNorm2D(name+".bn", outC),
		NewLeakyReLU(slope),
	)
}

// WrapConvBNLeaky assembles a block from existing submodules (the path
// yolo.Model uses when loading states built around the unfused layers). The
// convolution must be bias-free: batch norm's β is the block's shift, per
// the darknet conv+BN convention.
func WrapConvBNLeaky(conv *Conv2D, bn *BatchNorm2D, act *LeakyReLU) *ConvBNLeaky {
	if conv.Bias != nil {
		panic("nn: ConvBNLeaky requires a bias-free Conv2D (batch norm supplies the shift)")
	}
	if conv.OutC != bn.C {
		panic("nn: ConvBNLeaky channel mismatch between Conv2D and BatchNorm2D")
	}
	return &ConvBNLeaky{Conv: conv, BN: bn, Act: act, foldDirty: true}
}

// SetFused toggles the eval-time fused kernel path. Enabling it while in
// inference mode folds immediately; in training mode the fold waits for
// SetTraining(false).
func (f *ConvBNLeaky) SetFused(on bool) {
	f.fused = on
	f.foldDirty = true
	if on && !f.BN.Training() {
		f.refold()
	}
}

// SetTraining propagates the mode to the batch norm. Entering inference mode
// with fusing enabled takes the fold snapshot once, here, so serving paths
// pay for it outside the request hot path.
func (f *ConvBNLeaky) SetTraining(training bool) {
	f.BN.SetTraining(training)
	f.foldDirty = true
	if !training && f.fused {
		f.refold()
	}
}

// refold rebuilds the fold snapshot, the per-channel affine the fused kernel
// reads, from the current parameters and running statistics.
func (f *ConvBNLeaky) refold() {
	if !f.foldDirty {
		return
	}
	c := f.BN.C
	if len(f.gamma) != c {
		f.gamma = make([]float64, c)
		f.beta = make([]float64, c)
		f.mean = make([]float64, c)
		f.invSD = make([]float64, c)
	}
	copy(f.gamma, f.BN.Gamma.Value.Data())
	copy(f.beta, f.BN.Beta.Value.Data())
	copy(f.mean, f.BN.RunningMean.Data())
	for ch, v := range f.BN.RunningVar.Data() {
		f.invSD[ch] = 1 / math.Sqrt(v+f.BN.Eps)
	}
	f.foldDirty = false
}

// Forward runs the block. Fused inference takes one kernel pass; every other
// mode chains the submodules (preserving their Backward caches).
func (f *ConvBNLeaky) Forward(x *tensor.Tensor) *tensor.Tensor {
	if f.fused && !f.BN.Training() && !tensor.RefKernelsEnabled() {
		f.refold()
		f.fusedForward = true
		return tensor.Conv2DBNLeaky(x, f.Conv.Weight.Value,
			f.gamma, f.beta, f.mean, f.invSD, f.Conv.Stride, f.Conv.Pad, f.Act.Slope)
	}
	f.fusedForward = false
	return f.Act.Forward(f.BN.Forward(f.Conv.Forward(x)))
}

// Backward chains the submodule gradients. A fused Forward leaves no caches
// behind, so Backward after one panics — run with fusing off (the default)
// to train, as the attack trainer does.
func (f *ConvBNLeaky) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	f.mustUnfused("Backward")
	return f.Conv.Backward(f.BN.Backward(f.Act.Backward(dOut)))
}

// InputGrad is Backward for a frozen block: it returns the bit-identical
// dInput without touching any parameter gradient, skipping the convolution's
// weight gradient and the batch norm's γ/β reductions. Inference mode only
// (BatchNorm2D.InputGrad panics in training mode).
func (f *ConvBNLeaky) InputGrad(dOut *tensor.Tensor) *tensor.Tensor {
	f.mustUnfused("InputGrad")
	return f.Conv.InputGrad(f.BN.InputGrad(f.Act.Backward(dOut)))
}

func (f *ConvBNLeaky) mustUnfused(method string) {
	if f.fusedForward {
		panic("nn: ConvBNLeaky." + method + " after a fused Forward; fused kernels are inference-only (SetFused(false) to train)")
	}
}

// Params returns the convolution weights and the batch-norm affine.
func (f *ConvBNLeaky) Params() []*Param {
	return append(f.Conv.Params(), f.BN.Params()...)
}

// Clone returns a deep copy sharing no state; the fold snapshot is rebuilt
// on the clone's first fused Forward (or mode switch).
func (f *ConvBNLeaky) Clone() *ConvBNLeaky {
	return &ConvBNLeaky{
		Conv: f.Conv.Clone(), BN: f.BN.Clone(), Act: f.Act.Clone(),
		fused: f.fused, foldDirty: true,
	}
}

// CloneModule implements Cloner.
func (f *ConvBNLeaky) CloneModule() Module { return f.Clone() }
