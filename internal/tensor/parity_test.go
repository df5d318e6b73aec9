package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Parity tests: the blocked matmul kernel and the arena-backed conv paths
// must reproduce the pre-optimization reference kernels BIT FOR BIT — not
// within an epsilon. Floating-point addition is non-associative, so this
// only holds because the optimized kernels accumulate every output element
// in exactly the reference order; these tests pin that invariant across
// randomized shapes including the stride/pad/tail edge cases.

// randData fills a slice with standard normals plus ~10% exact zeros, half
// of them −0, so the kernels' zero-skip path is exercised for both signs.
func randData(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(20) {
		case 0:
		case 1:
			out[i] = math.Copysign(0, -1)
		default:
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

func bitEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		// A NaN matches any NaN: when both operands of an add are NaN, x86
		// keeps the payload of whichever sits in the destination register,
		// and the compiler picks that order per loop.
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("%s: element %d differs at bit level: %v (%#016x) vs %v (%#016x)", name, i, got[i], g, want[i], w)
		}
	}
}

// withTilePaths runs f once on the AVX2 tiles, when this CPU has them, and
// once on the Go tiles alone.
func withTilePaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	have := useAVX2
	defer func() { useAVX2 = have }()
	for _, on := range []bool{true, false} {
		if on && !have {
			t.Log("CPU without AVX2: Go tiles only")
			continue
		}
		useAVX2 = on
		t.Run(fmt.Sprintf("avx2=%v", on), f)
	}
}

// denseData fills a slice with standard normals and no zeros, so every
// 4-row tile of an a operand reaches the AVX2 kernel.
func denseData(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		for out[i] == 0 {
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

// wideData fills a slice with nonzero normals scaled across 2^±300, so
// products and sums round at very different magnitudes, and drops a few
// ±Inf and NaN into it.
func wideData(rng *rand.Rand, n int) []float64 {
	out := denseData(rng, n)
	for i := range out {
		out[i] = math.Ldexp(out[i], rng.Intn(601)-300)
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if n > 0 && rng.Intn(2) == 0 {
			out[rng.Intn(n)] = v
		}
	}
	return out
}

// withNegZeros turns about a quarter of the entries into −0, the value an
// accumulation must keep when every term it would add is skipped.
func withNegZeros(rng *rand.Rand, in []float64) []float64 {
	for i := range in {
		if rng.Intn(4) == 0 {
			in[i] = math.Copysign(0, -1)
		}
	}
	return in
}

func TestMatMulBlockedMatchesRefBitExact(t *testing.T) {
	withTilePaths(t, testMatMulBlockedMatchesRef)
}

func testMatMulBlockedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type shape struct{ m, k, n int }
	shapes := []shape{
		// Tile-boundary and degenerate edges: single rows/cols, exact tile
		// multiples, one-past and one-short of the 4-row tile and the
		// mmKC/mmNC tiles.
		{1, 1, 1}, {1, 1, 5}, {3, 1, 4}, {1, 7, 1},
		{2, mmKC, mmNC}, {2, mmKC + 1, mmNC + 1}, {2, mmKC - 1, mmNC - 1},
		{5, 2 * mmKC, 3}, {4, 3, 2 * mmNC}, {3, mmKC + 7, mmNC + 5},
	}
	for len(shapes) < 60 {
		shapes = append(shapes, shape{1 + rng.Intn(40), 1 + rng.Intn(170), 1 + rng.Intn(90)})
	}
	for _, s := range shapes {
		for _, accum := range []bool{false, true} {
			a := randData(rng, s.m*s.k)
			b := randData(rng, s.m*s.k*s.n)[:s.k*s.n]
			init := randData(rng, s.m*s.n)
			got := append([]float64(nil), init...)
			want := append([]float64(nil), init...)
			matMulRowsBlocked(got, a, b, 0, s.m, s.k, s.n, accum)
			matMulRowsRef(want, a, b, 0, s.m, s.k, s.n, accum)
			bitEqual(t, fmt.Sprintf("matmul %dx%dx%d accum=%v", s.m, s.k, s.n, accum), got, want)
		}
	}
}

func TestMatMulBlockedPartialRows(t *testing.T) {
	withTilePaths(t, testMatMulBlockedPartialRows)
}

func testMatMulBlockedPartialRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, k, n := 13, 37, 29
	a, b := randData(rng, m*k), randData(rng, k*n)
	got, want := make([]float64, m*n), make([]float64, m*n)
	matMulRowsBlocked(got, a, b, 4, 11, k, n, false)
	matMulRowsRef(want, a, b, 4, 11, k, n, false)
	bitEqual(t, "partial rows", got, want)
	for i := 0; i < 4*n; i++ {
		if got[i] != 0 {
			t.Fatal("rows below lo must stay untouched")
		}
	}
}

// detectorShapes are the matmul shapes the 64×64 detector's conv layers
// lower to, forward and input gradient, plus the GAN's products and
// short-row narrow products (BenchmarkMatMulDetectorShapes times the same
// list).
var detectorShapes = []struct{ m, k, n int }{
	{8, 27, 4096},   // b1: 3->8ch, 64x64
	{16, 72, 1024},  // b2
	{32, 144, 256},  // b3
	{64, 288, 64},   // b4
	{128, 576, 16},  // b5
	{256, 1152, 16}, // b6 (dominant)
	{64, 864, 64},   // h2pre
	// Input gradients, W^T @ dOut; b6 and b5 as one of two workers'
	// input-channel shares.
	{27, 8, 4096},  // b1; 27 rows, not a multiple of 4
	{72, 16, 1024}, // b2
	{576, 256, 16}, // b6
	{288, 128, 16}, // b5
	// Head convs: 30 rows, not a multiple of 4.
	{30, 128, 16}, // h1conv
	{30, 64, 64},  // h2conv
	// The GAN's products: from 4 rows on they pack, below 4 the row loop
	// runs them at wide n.
	{8, 144, 1024}, // g.c3 forward
	{8, 9, 256},    // d.c1 forward
	{9, 8, 256},    // d.c1 input gradient
	{1, 72, 1024},  // g.out forward
	{3, 32, 1024},  // g.fc forward at batch 3
	// Narrow outputs with few rows: one below tileRows, one above.
	{1, 1024, 32},
	{5, 400, 16},
}

// TestMatMulTilesMatchRefBitExact drives both paths, with and without the
// AVX2 tiles, on the detector's shapes, on the dispatch boundaries at
// n = 7, 8, 32 and 33 with 3, 4, 11 and 12 rows, and on random shapes
// large enough to take the packed path. The a operand is zero-free (every 4-row tile reaches the
// kernel), sparse (the zero-skip fallback) or wide-exponent with ±Inf and
// NaN spots, and the initial dst holds −0 values.
func TestMatMulTilesMatchRefBitExact(t *testing.T) {
	withTilePaths(t, testMatMulTilesMatchRef)
}

func testMatMulTilesMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	type shape struct{ m, k, n int }
	var shapes []shape
	for _, s := range detectorShapes {
		shapes = append(shapes, shape{s.m, s.k, s.n})
	}
	// k = 600 puts every case of at least tileRows rows and 8 columns
	// over packThreshold, so rows and n alone pick the path.
	for _, n := range []int{7, 8, 32, 33} {
		for _, m := range []int{tileRows - 1, tileRows, 11, 12} {
			shapes = append(shapes, shape{m, 600, n})
		}
	}
	fixed := len(shapes)
	for len(shapes) < fixed+33 {
		s := shape{tileRows + rng.Intn(50), 1 + rng.Intn(300), 8 + rng.Intn(150)}
		if len(shapes)%2 == 0 {
			s.n = 8 + rng.Intn(25)
		}
		if s.m*s.k*s.n >= packThreshold {
			shapes = append(shapes, s)
		}
	}
	fills := []struct {
		name string
		fill func(*rand.Rand, int) []float64
	}{{"dense", denseData}, {"sparse", randData}, {"wide", wideData}}
	for _, s := range shapes {
		for _, f := range fills {
			for _, accum := range []bool{false, true} {
				a := f.fill(rng, s.m*s.k)
				// ±Inf or NaN in b meets the zeros of a sparse a: a term
				// the zero-skip drops would turn the output into NaN.
				b := wideData(rng, s.k*s.n)
				if f.name == "dense" {
					b = denseData(rng, s.k*s.n)
				}
				init := withNegZeros(rng, denseData(rng, s.m*s.n))
				got := append([]float64(nil), init...)
				want := append([]float64(nil), init...)
				matMulRowsBlocked(got, a, b, 0, s.m, s.k, s.n, accum)
				matMulRowsRef(want, a, b, 0, s.m, s.k, s.n, accum)
				bitEqual(t, fmt.Sprintf("matmul %dx%dx%d %s accum=%v", s.m, s.k, s.n, f.name, accum), got, want)
			}
		}
	}
}

// TestTile4x8MatchesRef calls the AVX2 kernel directly on one 8-column
// panel (ldb 8), against the reference kernel on the same 4×kc×8 product.
func TestTile4x8MatchesRef(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU without AVX2")
	}
	rng := rand.New(rand.NewSource(73))
	for _, kc := range []int{1, 2, 3, 7, 64, mmKC} {
		for _, fill := range []func(*rand.Rand, int) []float64{denseData, wideData} {
			a := fill(rng, 4*kc)
			b := fill(rng, kc*8) // row-major [kc,8]: the packed panel layout
			init := withNegZeros(rng, fill(rng, 4*8))
			want := append([]float64(nil), init...)
			matMulRowsRef(want, a, b, 0, 4, kc, 8, true)

			got := append([]float64(nil), init...)
			tile8(got, 8, a, kc, b, 8, kc)
			bitEqual(t, fmt.Sprintf("kc=%d ldb=8", kc), got, want)
		}
	}
}

// convCase is one randomized convolution configuration.
type convCase struct {
	n, c, h, w, oc, kh, kw, stride, pad int
	bias                                bool
}

func (cc convCase) String() string {
	return fmt.Sprintf("n%d c%d %dx%d oc%d k%dx%d s%d p%d bias=%v",
		cc.n, cc.c, cc.h, cc.w, cc.oc, cc.kh, cc.kw, cc.stride, cc.pad, cc.bias)
}

// convCases generates count valid random configurations plus fixed
// stride/pad edge cases (stride > kernel, pad ≥ kernel-1, 1×1, non-square).
func convCases(rng *rand.Rand, count int) []convCase {
	cases := []convCase{
		{2, 3, 8, 8, 4, 3, 3, 1, 1, true},
		{1, 2, 9, 9, 3, 3, 3, 2, 1, false},
		{2, 4, 5, 5, 2, 1, 1, 1, 0, true},
		{1, 1, 7, 7, 1, 5, 5, 1, 0, false},
		{1, 2, 6, 10, 3, 3, 3, 1, 1, true},
		{3, 2, 7, 5, 2, 3, 2, 3, 2, true}, // stride > kw, asymmetric kernel
		{2, 1, 4, 4, 2, 4, 4, 4, 0, false},
		{1, 3, 5, 5, 4, 3, 3, 1, 2, true}, // pad ≥ kernel-1
	}
	for len(cases) < count {
		cc := convCase{
			n: 1 + rng.Intn(5), c: 1 + rng.Intn(4),
			h: 3 + rng.Intn(10), w: 3 + rng.Intn(10),
			oc: 1 + rng.Intn(6), kh: 1 + rng.Intn(4), kw: 1 + rng.Intn(4),
			stride: 1 + rng.Intn(3), pad: rng.Intn(3), bias: rng.Intn(2) == 0,
		}
		if cc.h+2*cc.pad < cc.kh || cc.w+2*cc.pad < cc.kw {
			continue
		}
		cases = append(cases, cc)
	}
	return cases
}

func convInputs(rng *rand.Rand, cc convCase) (in, wt, bias *Tensor) {
	in = FromSlice(randData(rng, cc.n*cc.c*cc.h*cc.w), cc.n, cc.c, cc.h, cc.w)
	wt = FromSlice(randData(rng, cc.oc*cc.c*cc.kh*cc.kw), cc.oc, cc.c, cc.kh, cc.kw)
	if cc.bias {
		bias = FromSlice(randData(rng, cc.oc), cc.oc)
	}
	return in, wt, bias
}

func TestConv2DForwardParityBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, cc := range convCases(rng, 55) {
		in, wt, bias := convInputs(rng, cc)
		got := Conv2D(in, wt, bias, cc.stride, cc.pad)
		want := conv2DRef(in, wt, bias, cc.stride, cc.pad)
		bitEqual(t, "conv forward "+cc.String(), got.Data(), want.Data())
	}
}

// laneOracle accumulates the documented dW/dB reduction into dW and dB with
// the reference kernel: per-lane partial sums from zero over
// min(n, gradLanes) fixed contiguous lanes, in ascending sample order,
// merged in lane order.
func laneOracle(in, wt, dOut *Tensor, stride, pad int, dW, dB *Tensor) {
	n, c, h, w := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oc, od := dOut.shape[1], dOut.shape[2]*dOut.shape[3]
	lanes := min(n, gradLanes)
	for lane := 0; lane < lanes; lane++ {
		lo, hi := chunkRange(n, lanes, lane)
		partW := make([]float64, wt.Len())
		partB := make([]float64, oc)
		for s := lo; s < hi; s++ {
			sampleIn := FromSlice(in.Data()[s*c*h*w:(s+1)*c*h*w], 1, c, h, w)
			sampleD := FromSlice(dOut.Data()[s*oc*od:(s+1)*oc*od], 1, oc, dOut.shape[2], dOut.shape[3])
			conv2DBackwardRef(sampleIn, wt, sampleD, stride, pad,
				FromSlice(partW, wt.Shape()...), FromSlice(partB, oc))
		}
		for i, v := range partW {
			dW.Data()[i] += v
		}
		for i, v := range partB {
			dB.Data()[i] += v
		}
	}
}

// TestConv2DBackwardSequentialParityBitExact pins the backward pass to the
// pre-optimization kernel at one worker: dIn matches it bit for bit, and
// dW/dB match it run lane by lane (laneOracle), including nonzero initial
// gradients. With one sample that is the sequential kernel itself.
func TestConv2DBackwardSequentialParityBitExact(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(5))
	for _, cc := range convCases(rng, 55) {
		in, wt, _ := convInputs(rng, cc)
		oh := ConvOut(cc.h, cc.kh, cc.stride, cc.pad)
		ow := ConvOut(cc.w, cc.kw, cc.stride, cc.pad)
		dOut := FromSlice(randData(rng, cc.n*cc.oc*oh*ow), cc.n, cc.oc, oh, ow)

		// Nonzero initial gradients: backward accumulates, it does not
		// overwrite.
		initW := randData(rng, wt.Len())
		initB := randData(rng, cc.oc)
		dW := FromSlice(append([]float64(nil), initW...), wt.Shape()...)
		dB := FromSlice(append([]float64(nil), initB...), cc.oc)
		dWRef := FromSlice(append([]float64(nil), initW...), wt.Shape()...)
		dBRef := FromSlice(append([]float64(nil), initB...), cc.oc)

		dIn := Conv2DBackward(in, wt, dOut, cc.stride, cc.pad, dW, dB)
		dInRef := conv2DBackwardRef(in, wt, dOut, cc.stride, cc.pad, nil, nil)
		laneOracle(in, wt, dOut, cc.stride, cc.pad, dWRef, dBRef)

		name := "conv backward " + cc.String()
		bitEqual(t, name+" dIn", dIn.Data(), dInRef.Data())
		bitEqual(t, name+" dW", dW.Data(), dWRef.Data())
		bitEqual(t, name+" dB", dB.Data(), dBRef.Data())
	}
}

// TestConv2DBackwardNilGradCombos checks every dWeight/dBias nil
// combination against the reference (the old kernel transposed cols even
// when only dBias was wanted; the new one must still produce identical
// numbers while skipping that work).
func TestConv2DBackwardNilGradCombos(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(17))
	cc := convCase{3, 2, 6, 6, 4, 3, 3, 1, 1, true}
	in, wt, _ := convInputs(rng, cc)
	oh := ConvOut(cc.h, cc.kh, cc.stride, cc.pad)
	dOut := FromSlice(randData(rng, cc.n*cc.oc*oh*oh), cc.n, cc.oc, oh, oh)
	for _, withW := range []bool{true, false} {
		for _, withB := range []bool{true, false} {
			var dW, dB, dWRef, dBRef *Tensor
			if withW {
				dW, dWRef = New(wt.Shape()...), New(wt.Shape()...)
			}
			if withB {
				dB, dBRef = New(cc.oc), New(cc.oc)
			}
			dIn := Conv2DBackward(in, wt, dOut, cc.stride, cc.pad, dW, dB)
			dInRef := conv2DBackwardRef(in, wt, dOut, cc.stride, cc.pad, dWRef, dBRef)
			name := fmt.Sprintf("combo dW=%v dB=%v", withW, withB)
			bitEqual(t, name+" dIn", dIn.Data(), dInRef.Data())
			if withW {
				bitEqual(t, name+" dW", dW.Data(), dWRef.Data())
			}
			if withB {
				bitEqual(t, name+" dB", dB.Data(), dBRef.Data())
			}
		}
	}
}

// TestConv2DBackwardDeterministicParallel proves the lock-free reduction is
// run-to-run deterministic with several workers: fixed chunk boundaries +
// fixed merge order leave no scheduling dependence. The old mutex reduction
// summed in completion order and failed this under load.
func TestConv2DBackwardDeterministicParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(23))
	cc := convCase{n: 11, c: 3, h: 9, w: 9, oc: 5, kh: 3, kw: 3, stride: 1, pad: 1, bias: true}
	in, wt, _ := convInputs(rng, cc)
	oh := ConvOut(cc.h, cc.kh, cc.stride, cc.pad)
	dOut := FromSlice(randData(rng, cc.n*cc.oc*oh*oh), cc.n, cc.oc, oh, oh)

	var firstW, firstB, firstIn []float64
	for run := 0; run < 6; run++ {
		dW, dB := New(wt.Shape()...), New(cc.oc)
		dIn := Conv2DBackward(in, wt, dOut, cc.stride, cc.pad, dW, dB)
		if run == 0 {
			firstW = append([]float64(nil), dW.Data()...)
			firstB = append([]float64(nil), dB.Data()...)
			firstIn = append([]float64(nil), dIn.Data()...)
			continue
		}
		bitEqual(t, fmt.Sprintf("run %d dW", run), dW.Data(), firstW)
		bitEqual(t, fmt.Sprintf("run %d dB", run), dB.Data(), firstB)
		bitEqual(t, fmt.Sprintf("run %d dIn", run), dIn.Data(), firstIn)
	}
}

// TestConv2DBackwardChunkOracle pins the documented summation semantics
// away from the lane count: at GOMAXPROCS 3 the reduction still runs in
// gradLanes lanes, per-lane partial sums over fixed contiguous chunks,
// merged in lane order, each starting from zero.
func TestConv2DBackwardChunkOracle(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(31))
	cc := convCase{n: 7, c: 2, h: 6, w: 6, oc: 3, kh: 3, kw: 3, stride: 1, pad: 1, bias: true}
	in, wt, _ := convInputs(rng, cc)
	oh := ConvOut(cc.h, cc.kh, cc.stride, cc.pad)
	dOut := FromSlice(randData(rng, cc.n*cc.oc*oh*oh), cc.n, cc.oc, oh, oh)

	dW, dB := New(wt.Shape()...), New(cc.oc)
	Conv2DBackward(in, wt, dOut, cc.stride, cc.pad, dW, dB)

	wantW, wantB := New(wt.Shape()...), New(cc.oc)
	laneOracle(in, wt, dOut, cc.stride, cc.pad, wantW, wantB)
	bitEqual(t, "chunk oracle dW", dW.Data(), wantW.Data())
	bitEqual(t, "chunk oracle dB", dB.Data(), wantB.Data())
}

// TestConv2DInputGradChannelSplitBitExact pins the input-gradient-only
// backward to the reference kernel at several worker counts, across the
// input-channel split (uneven channel chunks, c below GOMAXPROCS) and its
// per-sample fallback (too few rows per worker, the first layer's c = 3).
func TestConv2DInputGradChannelSplitBitExact(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(41))
	type shape struct{ c, k int }
	var shapes []shape
	for c := 1; c <= 9; c++ {
		shapes = append(shapes, shape{c, 1}, shape{c, 3})
	}
	// 1×1 kernels split only from tileRows channels per worker on: c = 7
	// and 8 above straddle it at GOMAXPROCS 2, these at 3 and 4.
	shapes = append(shapes, shape{11, 1}, shape{12, 1}, shape{15, 1}, shape{16, 1})
	for _, procs := range []int{2, 3, 4} {
		runtime.GOMAXPROCS(procs)
		split, fallback := 0, 0
		for _, sh := range shapes {
			for n := 1; n <= 7; n++ {
				for _, stride := range []int{1, 2} {
					cc := convCase{n: n, c: sh.c, h: 4 + rng.Intn(5), w: 4 + rng.Intn(5),
						oc: 1 + rng.Intn(6), kh: sh.k, kw: sh.k, stride: stride, pad: sh.k / 2}
					in, wt, _ := convInputs(rng, cc)
					oh := ConvOut(cc.h, cc.kh, cc.stride, cc.pad)
					ow := ConvOut(cc.w, cc.kw, cc.stride, cc.pad)
					dOut := FromSlice(randData(rng, n*cc.oc*oh*ow), n, cc.oc, oh, ow)
					if channelWorkers(cc.c, cc.kh*cc.kw) > 1 {
						split++
					} else {
						fallback++
					}
					got := Conv2DBackward(in, wt, dOut, cc.stride, cc.pad, nil, nil)
					want := conv2DBackwardRef(in, wt, dOut, cc.stride, cc.pad, nil, nil)
					bitEqual(t, fmt.Sprintf("GOMAXPROCS %d input grad %v", procs, cc), got.Data(), want.Data())
				}
			}
		}
		if split == 0 || fallback == 0 {
			t.Fatalf("GOMAXPROCS %d: %d channel-split and %d fallback cases, want both paths covered", procs, split, fallback)
		}
	}
}

// TestConv2DBackwardNumericGradientBatchedParallel extends the numeric
// gradient check through the chunked multi-worker reduction: batch > 1 with
// GOMAXPROCS forced above 1 so the per-slot partial sums and the post-join
// merge are what produce dW/dB.
func TestConv2DBackwardNumericGradientBatchedParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(13))
	in := NewRandN(rng, 1, 5, 2, 6, 6)
	wt := NewRandN(rng, 0.5, 3, 2, 3, 3)
	bias := NewRandN(rng, 0.5, 3)
	stride, pad := 2, 1

	out := Conv2D(in, wt, bias, stride, pad)
	probe := NewRandN(rng, 1, out.Shape()...)
	loss := func() float64 { return Dot(Conv2D(in, wt, bias, stride, pad), probe) }

	dW := New(wt.Shape()...)
	dB := New(3)
	dIn := Conv2DBackward(in, wt, probe, stride, pad, dW, dB)

	const eps = 1e-6
	check := func(name string, params, grad *Tensor) {
		for i := 0; i < params.Len(); i += 1 + params.Len()/23 {
			orig := params.Data()[i]
			params.Data()[i] = orig + eps
			lp := loss()
			params.Data()[i] = orig - eps
			lm := loss()
			params.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			if diff := num - grad.Data()[i]; diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("%s grad[%d]: analytic %v numeric %v", name, i, grad.Data()[i], num)
			}
		}
	}
	check("weight", wt, dW)
	check("bias", bias, dB)
	check("input", in, dIn)
}

// TestSetRefKernelsRoutesEntryPoints exercises the benchmark toggle: under
// SetRefKernels(true) the public entry points must produce the reference
// results (trivially bit-identical by construction), and flipping back
// restores the production kernels.
func TestSetRefKernelsRoutesEntryPoints(t *testing.T) {
	defer SetRefKernels(false)
	rng := rand.New(rand.NewSource(3))
	a := FromSlice(randData(rng, 9*17), 9, 17)
	b := FromSlice(randData(rng, 17*13), 17, 13)
	SetRefKernels(false)
	fast := MatMul(a, b)
	SetRefKernels(true)
	ref := MatMul(a, b)
	bitEqual(t, "MatMul toggle", fast.Data(), ref.Data())
}

// TestConv2DForwardAllocsSteadyState proves the arena removed the per-call
// im2col allocations: after warm-up, a sequential forward allocates only
// the output tensor and a fixed handful of headers — independent of batch
// size (the old path allocated one fresh cols buffer per sample per call).
func TestConv2DForwardAllocsSteadyState(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(8))
	cc := convCase{n: 8, c: 4, h: 16, w: 16, oc: 8, kh: 3, kw: 3, stride: 1, pad: 1, bias: true}
	in, wt, bias := convInputs(rng, cc)
	Conv2D(in, wt, bias, cc.stride, cc.pad) // warm the arena
	allocs := testing.AllocsPerRun(20, func() {
		Conv2D(in, wt, bias, cc.stride, cc.pad)
	})
	if allocs > 8 {
		t.Fatalf("Conv2D forward allocates %.0f objects/op after warm-up; want O(1) (≤8), not O(batch)", allocs)
	}
}

func TestLinearBackwardAllocsSteadyState(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	// Exercised via the tensor-level pieces nn.Linear.Backward now uses.
	rng := rand.New(rand.NewSource(9))
	x := FromSlice(randData(rng, 12*30), 12, 30)
	scratch := AcquireScratch(1)
	defer ReleaseScratch(scratch)
	sc := scratch[0]
	sc.Buf(ScratchA, x.Len())
	allocs := testing.AllocsPerRun(20, func() {
		Transpose2DInto(sc.Buf(ScratchA, x.Len()), x)
	})
	if allocs > 3 {
		t.Fatalf("Transpose2DInto allocates %.0f objects/op; want ≤3 (tensor header only, no data buffer)", allocs)
	}
}

func BenchmarkMatMul128Blocked(b *testing.B) {
	benchMatMul(b, 128, false)
}

func BenchmarkMatMul128Ref(b *testing.B) {
	benchMatMul(b, 128, true)
}

func benchMatMul(b *testing.B, n int, ref bool) {
	rng := rand.New(rand.NewSource(1))
	x := NewRandN(rng, 1, n, n)
	y := NewRandN(rng, 1, n, n)
	SetRefKernels(ref)
	defer SetRefKernels(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkConv2D64Arena(b *testing.B) {
	benchConvForward(b, false)
}

func BenchmarkConv2D64Ref(b *testing.B) {
	benchConvForward(b, true)
}

func benchConvForward(b *testing.B, ref bool) {
	rng := rand.New(rand.NewSource(1))
	in := NewRandN(rng, 1, 1, 16, 64, 64)
	wt := NewRandN(rng, 0.1, 32, 16, 3, 3)
	SetRefKernels(ref)
	defer SetRefKernels(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(in, wt, nil, 1, 1)
	}
}

func BenchmarkConv2DBackwardArena(b *testing.B) {
	benchConvBackward(b, false)
}

func BenchmarkConv2DBackwardRef(b *testing.B) {
	benchConvBackward(b, true)
}

func benchConvBackward(b *testing.B, ref bool) {
	rng := rand.New(rand.NewSource(1))
	in := NewRandN(rng, 1, 2, 16, 32, 32)
	wt := NewRandN(rng, 0.1, 32, 16, 3, 3)
	dOut := NewRandN(rng, 1, 2, 32, 32, 32)
	dW := New(32, 16, 3, 3)
	dB := New(32)
	SetRefKernels(ref)
	defer SetRefKernels(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DBackward(in, wt, dOut, 1, 1, dW, dB)
	}
}
