package nn

import (
	"math/rand"

	"roadtrojan/internal/tensor"
)

// ConvBNLeaky is the darknet conv block — Conv2D → BatchNorm2D → LeakyReLU —
// as one module, with an eval-time fused path. Training-mode behavior is
// exactly the three submodules chained (Forward caches, Backward, batch
// statistics all intact). In inference mode, when fusing is switched on with
// SetFused(true), Forward runs the bias-free convolution through
// tensor.Conv2D and then applies the batch-norm affine and the rectifier in
// place, in one pass, instead of three module passes with two intermediate
// tensors. The affine is batch norm's own inference arithmetic, reading γ, β
// and the running statistics live, so the output is bit-identical to the
// unfused chain whatever changed them since the last mode switch — fused
// and unfused serving replicas stay byte-interchangeable. Under
// tensor.SetRefKernels the convolution is the reference kernel, which
// matches the production one bit for bit.
//
// The fused pass does not populate Backward caches: Backward or InputGrad
// after a fused Forward panics. The attack trainer's eval-mode
// Forward→InputGrad loop keeps fusing off (the default) and is unaffected.
type ConvBNLeaky struct {
	Conv *Conv2D
	BN   *BatchNorm2D
	Act  *LeakyReLU

	fused bool

	// True when the most recent Forward took the fused path (and therefore
	// left no Backward caches behind).
	fusedForward bool
}

var _ Module = (*ConvBNLeaky)(nil)
var _ ModeSetter = (*ConvBNLeaky)(nil)

// NewConvBNLeaky builds a fresh darknet conv block: bias-free He-initialized
// convolution (batch norm's β is the block's shift, per the darknet conv+BN
// convention), batch norm over outC channels, leaky rectifier. Fusing starts
// off.
func NewConvBNLeaky(rng *rand.Rand, name string, inC, outC, kernel, stride, pad int, slope float64) *ConvBNLeaky {
	return &ConvBNLeaky{
		Conv: NewConv2D(rng, name, inC, outC, kernel, stride, pad, false),
		BN:   NewBatchNorm2D(name+".bn", outC),
		Act:  NewLeakyReLU(slope),
	}
}

// SetFused toggles the eval-time fused path. It takes effect on the next
// inference-mode Forward.
func (f *ConvBNLeaky) SetFused(on bool) { f.fused = on }

// SetTraining propagates the mode to the batch norm.
func (f *ConvBNLeaky) SetTraining(training bool) { f.BN.SetTraining(training) }

// Forward runs the block. Fused inference is one convolution plus one
// in-place pass; every other mode chains the submodules (preserving their
// Backward caches).
func (f *ConvBNLeaky) Forward(x *tensor.Tensor) *tensor.Tensor {
	if f.fused && !f.BN.Training() {
		f.fusedForward = true
		out := tensor.Conv2D(x, f.Conv.Weight.Value, nil, f.Conv.Stride, f.Conv.Pad)
		f.BN.inferLeaky(out.Data(), out.Data(), out.Dim(0), out.Dim(2)*out.Dim(3), f.Act.Slope)
		return out
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

// Clone returns a deep copy sharing no state; the fused flag carries over.
func (f *ConvBNLeaky) Clone() *ConvBNLeaky {
	return &ConvBNLeaky{
		Conv: f.Conv.Clone(), BN: f.BN.Clone(), Act: f.Act.Clone(),
		fused: f.fused,
	}
}

// CloneModule implements Cloner.
func (f *ConvBNLeaky) CloneModule() Module { return f.Clone() }
