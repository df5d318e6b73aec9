// Package tensor implements a dense, row-major float64 tensor type and the
// numeric kernels (elementwise algebra, matrix multiplication, convolution
// lowering, pooling, bilinear sampling) that the rest of the project builds
// neural networks and differentiable image transforms from.
//
// Tensors are always contiguous. Image batches use NCHW layout.
package tensor

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Tensor is a dense row-major float64 array with an explicit shape.
// The zero value is an empty scalar-less tensor; use New or FromSlice.
type Tensor struct {
	data  []float64
	shape []int
}

// New returns a zero-filled tensor with the given shape. A call with no
// dimensions returns a scalar (one element, empty shape).
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{data: make([]float64, n), shape: s}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{data: data, shape: s}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Scalar returns a 1-element tensor holding v with shape [1].
func Scalar(v float64) *Tensor { return FromSlice([]float64{v}, 1) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i, d := range t.shape {
		if u.shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies u's data into t. Shapes must hold the same element count.
func (t *Tensor) CopyFrom(u *Tensor) {
	if len(t.data) != len(u.data) {
		panic(fmt.Sprintf("tensor: CopyFrom element count mismatch %v vs %v", t.shape, u.shape))
	}
	copy(t.data, u.data)
}

// Reshape returns a view of t with a new shape holding the same number of
// elements. One dimension may be -1, which is inferred. The returned tensor
// shares t's data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	s := make([]int, len(shape))
	copy(s, shape)
	infer := -1
	n := 1
	for i, d := range s {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension for reshape %v of %v", shape, t.shape))
		}
		s[infer] = len(t.data) / n
		n *= s[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v incompatible with %v", shape, t.shape))
	}
	return &Tensor{data: t.data, shape: s}
}

// index converts multi-indices to a flat offset.
func (t *Tensor) index(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.index(idx...)] }

// Set assigns v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx...)] = v }

// Zero resets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	b.WriteString("Tensor")
	b.WriteString(fmt.Sprint(t.shape))
	if len(t.data) <= 32 {
		b.WriteByte('[')
		for i, v := range t.data {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', 5, 64))
		}
		b.WriteByte(']')
	} else {
		b.WriteString(fmt.Sprintf("{n=%d mean=%.5g min=%.5g max=%.5g}", len(t.data), t.Mean(), t.Min(), t.Max()))
	}
	return b.String()
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Min returns the minimum element (+Inf for empty tensors).
func (t *Tensor) Min() float64 {
	m := math.Inf(1)
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum element (-Inf for empty tensors).
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// L2 returns the Euclidean norm of the tensor viewed as a flat vector.
func (t *Tensor) L2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}
