package nn

import (
	"math"

	"roadtrojan/internal/tensor"
)

// LeakyReLU applies x for x > 0 and slope·x otherwise, elementwise; darknet
// uses slope 0.1.
type LeakyReLU struct {
	Slope float64

	lastInput *tensor.Tensor
}

var _ Module = (*LeakyReLU)(nil)

// NewLeakyReLU returns a leaky rectifier with the given negative slope.
func NewLeakyReLU(slope float64) *LeakyReLU { return &LeakyReLU{Slope: slope} }

// Forward applies the rectifier.
func (l *LeakyReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.lastInput = x
	out := tensor.New(x.Shape()...)
	os := out.Data()
	for i, v := range x.Data() {
		os[i] = v * leakScale(v, l.Slope)
	}
	return out
}

// Backward gates the gradient with the rectifier's derivative.
func (l *LeakyReLU) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	mustForwarded(l.lastInput, "LeakyReLU")
	dIn := tensor.New(dOut.Shape()...)
	ds := dOut.Data()
	dis := dIn.Data()
	for i, v := range l.lastInput.Data() {
		dis[i] = ds[i] * leakScale(v, l.Slope)
	}
	return dIn
}

// leakScale is the rectifier's factor at v: 1 when v > 0, slope otherwise.
// Multiplying by it rounds exactly like choosing between u and slope·u (u·1
// is u, and u·slope is slope·u), and the choice compiles to a conditional
// move where a branch on an activation's sign would mispredict about half
// the time.
func leakScale(v, slope float64) float64 {
	k := math.Float64bits(slope)
	if v > 0 {
		k = 0x3ff0000000000000 // math.Float64bits(1)
	}
	return math.Float64frombits(k)
}

// Params returns nil.
func (l *LeakyReLU) Params() []*Param { return nil }

// Clone returns a fresh rectifier with the same slope.
func (l *LeakyReLU) Clone() *LeakyReLU { return NewLeakyReLU(l.Slope) }

// CloneModule implements Cloner.
func (l *LeakyReLU) CloneModule() Module { return l.Clone() }

// Sigmoid applies 1/(1+e^-x) elementwise.
type Sigmoid struct {
	lastOutput *tensor.Tensor
}

var _ Module = (*Sigmoid)(nil)

// NewSigmoid returns a sigmoid activation module.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies the logistic function.
func (s *Sigmoid) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := x.Map(SigmoidScalar)
	s.lastOutput = out
	return out
}

// Backward multiplies by σ(x)(1−σ(x)).
func (s *Sigmoid) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	mustForwarded(s.lastOutput, "Sigmoid")
	dIn := tensor.New(dOut.Shape()...)
	for i, y := range s.lastOutput.Data() {
		dIn.Data()[i] = dOut.Data()[i] * y * (1 - y)
	}
	return dIn
}

// Params returns nil.
func (s *Sigmoid) Params() []*Param { return nil }

// Clone returns a fresh sigmoid module.
func (s *Sigmoid) Clone() *Sigmoid { return NewSigmoid() }

// CloneModule implements Cloner.
func (s *Sigmoid) CloneModule() Module { return s.Clone() }

// SigmoidScalar is the logistic function on a scalar, shared by modules and
// the YOLO decoder.
func SigmoidScalar(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// MaxPool2D is a max-pooling module (kernel/stride per darknet configs).
type MaxPool2D struct {
	Kernel, Stride int

	lastShape []int
	lastArg   []int32
}

var _ Module = (*MaxPool2D)(nil)

// NewMaxPool2D returns a pooling module.
func NewMaxPool2D(kernel, stride int) *MaxPool2D {
	return &MaxPool2D{Kernel: kernel, Stride: stride}
}

// Forward pools the input.
func (m *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	m.lastShape = x.Shape()
	out, arg := tensor.MaxPool2D(x, m.Kernel, m.Stride)
	m.lastArg = arg
	return out
}

// Backward routes gradients to the argmax positions.
func (m *MaxPool2D) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	if m.lastShape == nil {
		panic("nn: MaxPool2D.Backward called before Forward")
	}
	return tensor.MaxPool2DBackward(m.lastShape, dOut, m.lastArg)
}

// Params returns nil.
func (m *MaxPool2D) Params() []*Param { return nil }

// Clone returns a fresh pool with the same kernel and stride.
func (m *MaxPool2D) Clone() *MaxPool2D { return NewMaxPool2D(m.Kernel, m.Stride) }

// CloneModule implements Cloner.
func (m *MaxPool2D) CloneModule() Module { return m.Clone() }

// Upsample2D nearest-neighbour upsamples by an integer factor.
type Upsample2D struct {
	Factor int

	forwarded bool
}

var _ Module = (*Upsample2D)(nil)

// NewUpsample2D returns an upsampling module.
func NewUpsample2D(factor int) *Upsample2D { return &Upsample2D{Factor: factor} }

// Forward upsamples the input.
func (u *Upsample2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	u.forwarded = true
	return tensor.Upsample2D(x, u.Factor)
}

// Backward pools the gradient back down by summation.
func (u *Upsample2D) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	if !u.forwarded {
		panic("nn: Upsample2D.Backward called before Forward")
	}
	return tensor.Upsample2DBackward(dOut, u.Factor)
}

// Params returns nil.
func (u *Upsample2D) Params() []*Param { return nil }

// Clone returns a fresh upsampler with the same factor.
func (u *Upsample2D) Clone() *Upsample2D { return NewUpsample2D(u.Factor) }

// CloneModule implements Cloner.
func (u *Upsample2D) CloneModule() Module { return u.Clone() }
