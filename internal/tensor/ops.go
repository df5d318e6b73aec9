package tensor

import (
	"fmt"
	"math"
)

// Map returns a new tensor whose elements are f applied to t's elements.
func (t *Tensor) Map(f func(float64) float64) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = f(v)
	}
	return out
}

// Scale multiplies every element by a in place and returns t.
func (t *Tensor) Scale(a float64) *Tensor {
	for i := range t.data {
		t.data[i] *= a
	}
	return t
}

// AddScalar adds a to every element in place and returns t.
func (t *Tensor) AddScalar(a float64) *Tensor {
	for i := range t.data {
		t.data[i] += a
	}
	return t
}

// Clamp limits every element to [lo, hi] in place and returns t.
func (t *Tensor) Clamp(lo, hi float64) *Tensor {
	for i, v := range t.data {
		if v < lo {
			t.data[i] = lo
		} else if v > hi {
			t.data[i] = hi
		}
	}
	return t
}

func sameLen(a, b *Tensor, op string) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// AddInPlace adds u elementwise into t and returns t.
func (t *Tensor) AddInPlace(u *Tensor) *Tensor {
	sameLen(t, u, "AddInPlace")
	for i, v := range u.data {
		t.data[i] += v
	}
	return t
}

// Axpy computes t += a*u elementwise and returns t.
func (t *Tensor) Axpy(a float64, u *Tensor) *Tensor {
	sameLen(t, u, "Axpy")
	for i, v := range u.data {
		t.data[i] += a * v
	}
	return t
}

// Add returns t + u elementwise.
func Add(t, u *Tensor) *Tensor {
	sameLen(t, u, "Add")
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] + u.data[i]
	}
	return out
}

// Sub returns t - u elementwise.
func Sub(t, u *Tensor) *Tensor {
	sameLen(t, u, "Sub")
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] - u.data[i]
	}
	return out
}

// Dot returns the inner product of t and u viewed as flat vectors.
func Dot(t, u *Tensor) float64 {
	sameLen(t, u, "Dot")
	s := 0.0
	for i := range t.data {
		s += t.data[i] * u.data[i]
	}
	return s
}

// MaxAbsDiff returns max_i |t_i - u_i|; a convenience for tests.
func MaxAbsDiff(t, u *Tensor) float64 {
	sameLen(t, u, "MaxAbsDiff")
	m := 0.0
	for i := range t.data {
		d := math.Abs(t.data[i] - u.data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// SumAxis0 sums a [rows, cols] tensor over its rows, returning [cols].
func SumAxis0(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: SumAxis0 requires rank-2 input, got %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(cols)
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		for c, v := range row {
			out.data[c] += v
		}
	}
	return out
}

// Transpose2D returns the transpose of a [rows, cols] tensor.
func Transpose2D(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D requires rank-2 input, got %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(cols, rows)
	transposeInto(out.data, t.data, rows, cols)
	return out
}

// Transpose2DInto writes the transpose of the [rows, cols] tensor t into
// dst (length rows*cols, e.g. arena scratch) and returns a [cols, rows]
// tensor wrapping dst. The allocation-free sibling of Transpose2D.
func Transpose2DInto(dst []float64, t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2DInto requires rank-2 input, got %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	transposeInto(dst, t.data, rows, cols)
	return FromSlice(dst, cols, rows)
}

// Concat concatenates tensors along axis 0-based dim. All inputs must agree
// on every other dimension.
func Concat(dim int, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of no tensors")
	}
	rank := ts[0].Rank()
	if dim < 0 || dim >= rank {
		panic(fmt.Sprintf("tensor: Concat dim %d out of range for rank %d", dim, rank))
	}
	outShape := ts[0].Shape()
	for _, t := range ts[1:] {
		if t.Rank() != rank {
			panic("tensor: Concat rank mismatch")
		}
		for i := 0; i < rank; i++ {
			if i == dim {
				continue
			}
			if t.shape[i] != outShape[i] {
				panic(fmt.Sprintf("tensor: Concat shape mismatch %v vs %v on dim %d", t.shape, outShape, i))
			}
		}
		outShape[dim] += t.shape[dim]
	}
	out := New(outShape...)
	// outer = product of dims before `dim`; inner = product after.
	outer, inner := 1, 1
	for i := 0; i < dim; i++ {
		outer *= outShape[i]
	}
	for i := dim + 1; i < rank; i++ {
		inner *= outShape[i]
	}
	outRow := outShape[dim] * inner
	off := 0
	for _, t := range ts {
		tRow := t.shape[dim] * inner
		for o := 0; o < outer; o++ {
			copy(out.data[o*outRow+off:o*outRow+off+tRow], t.data[o*tRow:(o+1)*tRow])
		}
		off += tRow
	}
	return out
}

// SplitDim splits t along dim into pieces of the given sizes, the inverse of
// Concat. The returned tensors are copies.
func SplitDim(t *Tensor, dim int, sizes ...int) []*Tensor {
	rank := t.Rank()
	if dim < 0 || dim >= rank {
		panic(fmt.Sprintf("tensor: SplitDim dim %d out of range for rank %d", dim, rank))
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != t.shape[dim] {
		panic(fmt.Sprintf("tensor: SplitDim sizes %v do not sum to dim %d of %v", sizes, dim, t.shape))
	}
	outer, inner := 1, 1
	for i := 0; i < dim; i++ {
		outer *= t.shape[i]
	}
	for i := dim + 1; i < rank; i++ {
		inner *= t.shape[i]
	}
	tRow := t.shape[dim] * inner
	outs := make([]*Tensor, len(sizes))
	off := 0
	for k, s := range sizes {
		shape := t.Shape()
		shape[dim] = s
		piece := New(shape...)
		pRow := s * inner
		for o := 0; o < outer; o++ {
			copy(piece.data[o*pRow:(o+1)*pRow], t.data[o*tRow+off:o*tRow+off+pRow])
		}
		outs[k] = piece
		off += pRow
	}
	return outs
}
