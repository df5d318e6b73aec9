package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		want  int
	}{
		{name: "scalar", shape: nil, want: 1},
		{name: "vector", shape: []int{5}, want: 5},
		{name: "matrix", shape: []int{3, 4}, want: 12},
		{name: "nchw", shape: []int{2, 3, 4, 5}, want: 120},
		{name: "zero dim", shape: []int{0, 7}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := New(tt.shape...)
			if x.Len() != tt.want {
				t.Fatalf("Len() = %d, want %d", x.Len(), tt.want)
			}
			if x.Rank() != len(tt.shape) {
				t.Fatalf("Rank() = %d, want %d", x.Rank(), len(tt.shape))
			}
		})
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := x.At(0, 0, 0); got != 0 {
		t.Fatalf("untouched element = %v, want 0", got)
	}
	// Row-major: index (1,2,3) in [2,3,4] is 1*12+2*4+3 = 23.
	if x.Data()[23] != 7.5 {
		t.Fatalf("flat layout wrong: %v", x.Data())
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("Reshape must share backing data")
	}
	z := x.Reshape(-1, 2)
	if z.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Dim(0))
	}
}

func TestReshapePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	if got := Add(a, b).Data(); got[3] != 44 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 9 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Dot(a, b); got != 10+40+90+160 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-1, 4, 2, -7}, 4)
	if x.Sum() != -2 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != -0.5 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.Min() != -7 || x.Max() != 4 {
		t.Fatalf("Min/Max = %v/%v", x.Min(), x.Max())
	}
	if math.Abs(x.L2()-math.Sqrt(1+16+4+49)) > 1e-12 {
		t.Fatalf("L2 = %v", x.L2())
	}
}

func TestClampAndApply(t *testing.T) {
	x := FromSlice([]float64{-2, 0.5, 3}, 3)
	x.Clamp(0, 1)
	if x.At(0) != 0 || x.At(1) != 0.5 || x.At(2) != 1 {
		t.Fatalf("Clamp = %v", x.Data())
	}
	y := x.Map(func(v float64) float64 { return v * 2 })
	if y.At(2) != 2 || x.At(2) != 1 {
		t.Fatal("Map must not mutate the receiver")
	}
}

func TestTranspose2D(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := Transpose2D(x)
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("shape = %v", y.Shape())
	}
	if y.At(2, 1) != 6 || y.At(0, 1) != 4 {
		t.Fatalf("values wrong: %v", y.Data())
	}
}

func TestSumAxis0(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	s := SumAxis0(x)
	want := []float64{5, 7, 9}
	for i, v := range want {
		if s.At(i) != v {
			t.Fatalf("SumAxis0 = %v, want %v", s.Data(), want)
		}
	}
}

func TestConcatAndSplitInverse(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6}, 1, 2)
	cat := Concat(0, a, b)
	if cat.Dim(0) != 3 || cat.At(2, 1) != 6 {
		t.Fatalf("Concat dim0 wrong: %v %v", cat.Shape(), cat.Data())
	}
	parts := SplitDim(cat, 0, 2, 1)
	if MaxAbsDiff(parts[0], a) != 0 || MaxAbsDiff(parts[1], b) != 0 {
		t.Fatal("SplitDim is not the inverse of Concat on dim 0")
	}

	c := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	d := FromSlice([]float64{9, 8, 7, 6}, 2, 2)
	cat1 := Concat(1, c, d)
	if cat1.Dim(1) != 4 || cat1.At(0, 2) != 9 || cat1.At(1, 0) != 3 {
		t.Fatalf("Concat dim1 wrong: %v %v", cat1.Shape(), cat1.Data())
	}
	parts1 := SplitDim(cat1, 1, 2, 2)
	if MaxAbsDiff(parts1[0], c) != 0 || MaxAbsDiff(parts1[1], d) != 0 {
		t.Fatal("SplitDim is not the inverse of Concat on dim 1")
	}
}

func TestConcatChannelsNCHW(t *testing.T) {
	a := New(2, 3, 2, 2)
	b := New(2, 1, 2, 2)
	a.Fill(1)
	b.Fill(2)
	cat := Concat(1, a, b)
	if cat.Dim(1) != 4 {
		t.Fatalf("channels = %d", cat.Dim(1))
	}
	if cat.At(1, 3, 0, 0) != 2 || cat.At(1, 2, 1, 1) != 1 {
		t.Fatal("channel concat misplaced data")
	}
}

func TestMatMulAgainstHandComputed(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data()[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewRandN(rng, 1, 37, 53)
	b := NewRandN(rng, 1, 53, 41)
	got := MatMul(a, b)
	want := New(37, 41)
	for i := 0; i < 37; i++ {
		for j := 0; j < 41; j++ {
			s := 0.0
			for k := 0; k < 53; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(s, i, j)
		}
	}
	if d := MaxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("parallel matmul deviates by %v", d)
	}
}

func TestMatMulAccum(t *testing.T) {
	a := FromSlice([]float64{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	dst := Ones(2, 2)
	MatMulAccum(dst, a, b)
	if dst.At(0, 0) != 6 || dst.At(1, 1) != 9 {
		t.Fatalf("MatMulAccum = %v", dst.Data())
	}
}

// --- property-based tests -------------------------------------------------

func randomTensorPair(r *rand.Rand) (*Tensor, *Tensor) {
	n := 1 + r.Intn(32)
	a := NewRandU(r, -10, 10, n)
	b := NewRandU(r, -10, 10, n)
	return a, b
}

func TestPropAddCommutes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomTensorPair(r)
		return MaxAbsDiff(Add(a, b), Add(b, a)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewRandU(r, -5, 5, 1+r.Intn(8), 1+r.Intn(8))
		return MaxAbsDiff(Transpose2D(Transpose2D(m)), m) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		m := NewRandU(r, -5, 5, n, n)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(1, i, i)
		}
		return MaxAbsDiff(MatMul(m, id), m) < 1e-12 && MaxAbsDiff(MatMul(id, m), m) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropConcatSplitRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows1, rows2, cols := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := NewRandU(r, -1, 1, rows1, cols)
		b := NewRandU(r, -1, 1, rows2, cols)
		parts := SplitDim(Concat(0, a, b), 0, rows1, rows2)
		return MaxAbsDiff(parts[0], a) == 0 && MaxAbsDiff(parts[1], b) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFullAndScalar(t *testing.T) {
	f := Full(3.5, 2, 2)
	for _, v := range f.Data() {
		if v != 3.5 {
			t.Fatalf("Full = %v", v)
		}
	}
	s := Scalar(-2)
	if s.Len() != 1 || s.At(0) != -2 {
		t.Fatalf("Scalar = %v", s)
	}
}

func TestCopyFromMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).CopyFrom(New(5))
}

func TestAxpy(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{10, 20}, 2)
	a.Axpy(0.5, b)
	if a.At(0) != 6 || a.At(1) != 12 {
		t.Fatalf("Axpy = %v", a.Data())
	}
}

func TestStringForms(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if s := small.String(); len(s) == 0 || s[0] != 'T' {
		t.Fatalf("String = %q", s)
	}
	big := New(10, 10)
	if s := big.String(); len(s) == 0 {
		t.Fatal("large-tensor String empty")
	}
}

func TestHasNaN(t *testing.T) {
	x := New(3)
	if x.HasNaN() {
		t.Fatal("zeros flagged as NaN")
	}
	x.Set(math.Inf(1), 1)
	if !x.HasNaN() {
		t.Fatal("Inf not flagged")
	}
	x.Set(0, 1)
	x.Set(math.NaN(), 2)
	if !x.HasNaN() {
		t.Fatal("NaN not flagged")
	}
}

func TestSplitDimValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad sizes")
		}
	}()
	SplitDim(New(2, 4), 1, 3, 3)
}

func TestConcatMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched shapes")
		}
	}()
	Concat(0, New(2, 3), New(2, 4))
}
