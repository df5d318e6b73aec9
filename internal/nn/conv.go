package nn

import (
	"math"
	"math/rand"

	"roadtrojan/internal/tensor"
)

// Conv2D is a batched 2-D convolution layer over NCHW input.
type Conv2D struct {
	Weight *Param // [OC, C, K, K]
	Bias   *Param // [OC], nil when the layer is followed by BatchNorm

	InC, OutC, Kernel, Stride, Pad int

	lastInput *tensor.Tensor
}

var _ Module = (*Conv2D)(nil)

// NewConv2D creates a convolution with He-normal initialized weights. Pass
// withBias=false for conv+BN stacks (darknet convention).
func NewConv2D(rng *rand.Rand, name string, inC, outC, kernel, stride, pad int, withBias bool) *Conv2D {
	fanIn := float64(inC * kernel * kernel)
	std := math.Sqrt(2 / fanIn)
	c := &Conv2D{
		Weight: NewParam(name+".weight", tensor.NewRandN(rng, std, outC, inC, kernel, kernel)),
		InC:    inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad,
	}
	if withBias {
		c.Bias = NewParam(name+".bias", tensor.New(outC))
	}
	return c
}

// Forward computes the cross-correlation of x with the layer weights.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.lastInput = x
	var b *tensor.Tensor
	if c.Bias != nil {
		b = c.Bias.Value
	}
	return tensor.Conv2D(x, c.Weight.Value, b, c.Stride, c.Pad)
}

// Backward accumulates weight/bias gradients and returns dInput.
func (c *Conv2D) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	var dB *tensor.Tensor
	if c.Bias != nil {
		dB = c.Bias.Grad
	}
	return c.backward(dOut, c.Weight.Grad, dB)
}

// InputGrad returns dInput like Backward but leaves the parameter gradients
// untouched: the frozen-layer path, which skips the weight-gradient im2col
// and dot. dInput is bit-identical to Backward's.
func (c *Conv2D) InputGrad(dOut *tensor.Tensor) *tensor.Tensor {
	return c.backward(dOut, nil, nil)
}

func (c *Conv2D) backward(dOut, dW, dB *tensor.Tensor) *tensor.Tensor {
	mustForwarded(c.lastInput, "Conv2D")
	return tensor.Conv2DBackward(c.lastInput, c.Weight.Value, dOut, c.Stride, c.Pad, dW, dB)
}

// Params returns the layer's parameters.
func (c *Conv2D) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// Clone returns a deep copy with fresh parameters and no forward cache.
func (c *Conv2D) Clone() *Conv2D {
	out := &Conv2D{
		Weight: c.Weight.Clone(),
		InC:    c.InC, OutC: c.OutC, Kernel: c.Kernel, Stride: c.Stride, Pad: c.Pad,
	}
	if c.Bias != nil {
		out.Bias = c.Bias.Clone()
	}
	return out
}

// CloneModule implements Cloner.
func (c *Conv2D) CloneModule() Module { return c.Clone() }

// Linear is a fully connected layer on [N, In] input.
type Linear struct {
	Weight *Param // [In, Out]
	Bias   *Param // [Out]

	In, Out int

	lastInput *tensor.Tensor
}

var _ Module = (*Linear)(nil)

// NewLinear creates a dense layer with He-normal weights and zero bias.
func NewLinear(rng *rand.Rand, name string, in, out int) *Linear {
	std := math.Sqrt(2 / float64(in))
	return &Linear{
		Weight: NewParam(name+".weight", tensor.NewRandN(rng, std, in, out)),
		Bias:   NewParam(name+".bias", tensor.New(out)),
		In:     in, Out: out,
	}
}

// Forward computes x @ W + b.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	x2 := x.Reshape(x.Dim(0), -1)
	l.lastInput = x2
	out := tensor.MatMul(x2, l.Weight.Value)
	n := out.Dim(0)
	bias := l.Bias.Value.Data()
	data := out.Data()
	for r := 0; r < n; r++ {
		row := data[r*l.Out : (r+1)*l.Out]
		for i, bv := range bias {
			row[i] += bv
		}
	}
	return out
}

// Backward accumulates dW = xᵀ dOut, dB = Σ dOut and returns dOut @ Wᵀ.
// The two transposes go through arena scratch instead of fresh tensors, so
// repeated backward passes stop allocating once the buffers reach size.
func (l *Linear) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	mustForwarded(l.lastInput, "Linear")
	ss := tensor.AcquireScratch(1)
	sc := ss[0]
	xT := tensor.Transpose2DInto(sc.Buf(tensor.ScratchA, l.lastInput.Len()), l.lastInput)
	tensor.MatMulAccum(l.Weight.Grad, xT, dOut)
	l.Bias.Grad.AddInPlace(tensor.SumAxis0(dOut))
	wT := tensor.Transpose2DInto(sc.Buf(tensor.ScratchB, l.Weight.Value.Len()), l.Weight.Value)
	out := tensor.MatMul(dOut, wT)
	tensor.ReleaseScratch(ss)
	return out
}

// Params returns the layer's parameters.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Clone returns a deep copy with fresh parameters and no forward cache.
func (l *Linear) Clone() *Linear {
	return &Linear{Weight: l.Weight.Clone(), Bias: l.Bias.Clone(), In: l.In, Out: l.Out}
}

// CloneModule implements Cloner.
func (l *Linear) CloneModule() Module { return l.Clone() }

// Reshape is a parameterless module that reinterprets its input's shape,
// keeping the batch dimension and reshaping the rest to the given dims.
type Reshape struct {
	Dims []int

	lastShape []int
}

var _ Module = (*Reshape)(nil)

// NewReshape returns a module reshaping [N, ...] to [N, dims...].
func NewReshape(dims ...int) *Reshape { return &Reshape{Dims: dims} }

// Forward reshapes to [N, Dims...].
func (r *Reshape) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.lastShape = x.Shape()
	shape := append([]int{x.Dim(0)}, r.Dims...)
	return x.Reshape(shape...)
}

// Backward restores the pre-Forward shape.
func (r *Reshape) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	if r.lastShape == nil {
		panic("nn: Reshape.Backward called before Forward")
	}
	return dOut.Reshape(r.lastShape...)
}

// Params returns nil; Reshape has no parameters.
func (r *Reshape) Params() []*Param { return nil }

// Clone returns a fresh Reshape with the same target dims.
func (r *Reshape) Clone() *Reshape { return NewReshape(append([]int(nil), r.Dims...)...) }

// CloneModule implements Cloner.
func (r *Reshape) CloneModule() Module { return r.Clone() }
