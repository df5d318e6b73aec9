package tensor

import (
	"runtime"
	"sync"
)

// This file preserves the pre-optimization kernels verbatim. They are the
// reference oracles: the parity tests assert the blocked/arena kernels
// reproduce them bit for bit, and cmd/benchperf measures them in the same
// process to derive machine-independent speedup ratios for
// BENCH_tensor.json. They allocate per call and serialize gradient
// reduction behind a mutex — never use them on a hot path.

// refKernels routes Conv2D/Conv2DBackward/MatMul through the reference
// implementations when true. Benchmark- and test-harness use only.
var refKernels bool

// SetRefKernels switches the conv/matmul entry points between the
// production kernels (false, the default) and the pre-optimization
// reference kernels (true). It is meant for parity tests and
// cmd/benchperf's before/after measurement ONLY: the flag is process-wide
// and unsynchronized, so it must not be flipped while any tensor kernel is
// running on another goroutine.
func SetRefKernels(on bool) { refKernels = on }

// matMulRowsRef computes rows [lo,hi) of dst = a@b with the original
// unblocked ikj ordering: the inner loop streams through contiguous memory
// in both b and dst, re-loading and re-storing dst once per multiply.
func matMulRowsRef(dst, a, b []float64, lo, hi, k, n int, accum bool) {
	for i := lo; i < hi; i++ {
		drow := dst[i*n : (i+1)*n]
		if !accum {
			for j := range drow {
				drow[j] = 0
			}
		}
		arow := a[i*k : (i+1)*k]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// conv2DRef is the original Conv2D: fresh im2col scratch per sample per
// call, feeder-channel work distribution.
func conv2DRef(input, weight, bias *Tensor, stride, pad int) *Tensor {
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	oc, _, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	out := New(n, oc, oh, ow)
	wmat := weight.Reshape(oc, c*kh*kw)
	colLen := c * kh * kw * oh * ow

	parallelForRef(n, func(s int) {
		cols := make([]float64, colLen)
		Im2Col(input.data[s*c*h*w:(s+1)*c*h*w], c, h, w, kh, kw, stride, pad, cols)
		res := out.data[s*oc*oh*ow : (s+1)*oc*oh*ow]
		matMulRowsRef(res, wmat.data, cols, 0, oc, c*kh*kw, oh*ow, false)
		if bias != nil {
			for o := 0; o < oc; o++ {
				b := bias.data[o]
				seg := res[o*oh*ow : (o+1)*oh*ow]
				for i := range seg {
					seg[i] += b
				}
			}
		}
	})
	return out
}

// conv2DBackwardRef is the original Conv2DBackward: per-sample scratch
// allocations, dWeight/dBias accumulation serialized behind one mutex (and
// therefore summed in completion order — deterministic only when a single
// worker runs).
func conv2DBackwardRef(input, weight, dOut *Tensor, stride, pad int, dWeight, dBias *Tensor) *Tensor {
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	oc, _, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	dIn := New(n, c, h, w)
	k := c * kh * kw
	m := oh * ow
	wmatT := Transpose2D(weight.Reshape(oc, k)) // [k, oc]

	var mu sync.Mutex
	parallelForRef(n, func(s int) {
		cols := make([]float64, k*m)
		Im2Col(input.data[s*c*h*w:(s+1)*c*h*w], c, h, w, kh, kw, stride, pad, cols)
		dOutS := dOut.data[s*oc*m : (s+1)*oc*m]

		if dWeight != nil || dBias != nil {
			// dW_s = dOut_s [oc,m] @ cols^T [m,k]
			dws := make([]float64, oc*k)
			colsT := make([]float64, m*k)
			for r := 0; r < k; r++ {
				for cc := 0; cc < m; cc++ {
					colsT[cc*k+r] = cols[r*m+cc]
				}
			}
			matMulRowsRef(dws, dOutS, colsT, 0, oc, m, k, false)
			mu.Lock()
			if dWeight != nil {
				for i, v := range dws {
					dWeight.data[i] += v
				}
			}
			if dBias != nil {
				for o := 0; o < oc; o++ {
					sum := 0.0
					for i := 0; i < m; i++ {
						sum += dOutS[o*m+i]
					}
					dBias.data[o] += sum
				}
			}
			mu.Unlock()
		}

		// dCols = W^T [k,oc] @ dOut_s [oc,m]
		dCols := make([]float64, k*m)
		matMulRowsRef(dCols, wmatT.data, dOutS, 0, k, oc, m, false)
		Col2Im(dCols, c, h, w, kh, kw, stride, pad, dIn.data[s*c*h*w:(s+1)*c*h*w])
	})
	return dIn
}

// parallelForRef is the original feeder-goroutine-plus-channel work queue,
// kept only so the reference kernels reproduce the pre-optimization
// dispatch cost in benchmarks.
func parallelForRef(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, 1)
	go func() {
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	wg.Wait()
}
