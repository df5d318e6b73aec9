package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ConvOut returns the spatial output size of a convolution or pooling with
// the given input size, kernel, stride and symmetric zero padding.
func ConvOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2Col lowers one [C,H,W] image (given as a flat slice) into a column
// matrix of shape [C*KH*KW, OH*OW] so convolution becomes a MatMul. Out must
// have exactly that many elements.
func Im2Col(img []float64, c, h, w, kh, kw, stride, pad int, out []float64) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	cols := oh * ow
	if len(out) != c*kh*kw*cols {
		panic(fmt.Sprintf("tensor: Im2Col out length %d, want %d", len(out), c*kh*kw*cols))
	}
	row := 0
	for ch := 0; ch < c; ch++ {
		chImg := img[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				dst := out[row*cols : (row+1)*cols]
				// Valid ox range for this kx: 0 <= ox*stride+off < w. Hoisting
				// it out of the inner loop turns the body into a straight copy
				// (stride 1) or an unconditional strided gather — no
				// per-element boundary test.
				off := kx - pad
				lo, hi := 0, ow
				if off < 0 {
					lo = (-off + stride - 1) / stride
					if lo > ow {
						lo = ow
					}
				}
				if e := (w - off + stride - 1) / stride; e < hi {
					hi = e
				}
				if hi < lo {
					hi = lo
				}
				i := 0
				for oy := 0; oy < oh; oy++ {
					sy := oy*stride - pad + ky
					if sy < 0 || sy >= h {
						zeroFill(dst[i : i+ow])
						i += ow
						continue
					}
					srow := chImg[sy*w : (sy+1)*w]
					zeroFill(dst[i : i+lo])
					if stride == 1 {
						copy(dst[i+lo:i+hi], srow[lo+off:hi+off])
					} else {
						for ox := lo; ox < hi; ox++ {
							dst[i+ox] = srow[ox*stride+off]
						}
					}
					zeroFill(dst[i+hi : i+ow])
					i += ow
				}
				row++
			}
		}
	}
}

// zeroFill clears s; the compiler lowers this loop to memclr.
func zeroFill(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// Col2Im scatters a column matrix (the gradient of Im2Col's output) back
// into a [C,H,W] image gradient, accumulating where patches overlapped.
func Col2Im(cols []float64, c, h, w, kh, kw, stride, pad int, img []float64) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	n := oh * ow
	if len(img) != c*h*w {
		panic(fmt.Sprintf("tensor: Col2Im img length %d, want %d", len(img), c*h*w))
	}
	row := 0
	for ch := 0; ch < c; ch++ {
		chImg := img[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				src := cols[row*n : (row+1)*n]
				i := 0
				for oy := 0; oy < oh; oy++ {
					sy := oy*stride - pad + ky
					if sy < 0 || sy >= h {
						i += ow
						continue
					}
					srow := chImg[sy*w : (sy+1)*w]
					for ox := 0; ox < ow; ox++ {
						sx := ox*stride - pad + kx
						if sx >= 0 && sx < w {
							srow[sx] += src[i]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// Conv2D computes a batched 2-D cross-correlation. Input is [N,C,H,W],
// weight is [OC,C,KH,KW], bias (optional, may be nil) is [OC]. The result is
// [N,OC,OH,OW]. Samples are processed in parallel; im2col scratch comes
// from the per-worker arena, so steady-state calls allocate only the output
// tensor.
func Conv2D(input, weight, bias *Tensor, stride, pad int) *Tensor {
	if refKernels {
		return conv2DRef(input, weight, bias, stride, pad)
	}
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	oc, kc, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	if kc != c {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch input %v weight %v", input.shape, weight.shape))
	}
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	out := New(n, oc, oh, ow)
	if n == 0 {
		return out
	}
	k := c * kh * kw
	m := oh * ow
	wdata := weight.data // already [oc, k] row-major

	workers := Workers(n)
	ss := AcquireScratch(workers)
	parallelForSlot(n, workers, func(slot, s int) {
		sc := ss[slot]
		cols := sc.Buf(ScratchCols, k*m)
		Im2Col(input.data[s*c*h*w:(s+1)*c*h*w], c, h, w, kh, kw, stride, pad, cols)
		res := out.data[s*oc*m : (s+1)*oc*m]
		matMulRowsBlocked(res, wdata, cols, 0, oc, k, m, false)
		if bias != nil {
			for o := 0; o < oc; o++ {
				b := bias.data[o]
				seg := res[o*m : (o+1)*m]
				for i := range seg {
					seg[i] += b
				}
			}
		}
	})
	ReleaseScratch(ss)
	return out
}

// Conv2DBackward computes the gradients of Conv2D. Given dOut [N,OC,OH,OW]
// it returns dInput [N,C,H,W] and accumulates into dWeight [OC,C,KH,KW] and
// dBias [OC] (either may be nil to skip).
//
// The reduction is lock-free and deterministic on every host: when dW or
// dB is wanted, samples are split into min(n, gradLanes) fixed contiguous
// lanes whatever GOMAXPROCS is, each lane sums its samples' dW/dB terms
// into private arena accumulators in ascending sample order, and the lane
// partials are merged into dWeight/dBias in ascending lane order after the
// join. The floating-point summation tree therefore depends only on n (and
// for n = 1 it matches the sequential pre-optimization kernel bit for
// bit). An input-gradient-only call has nothing to reduce: it splits the
// input channels over the workers (inputGradByChannel) when each gets at
// least tileRows rows of the column gradient, and otherwise spreads its
// samples over Workers(n).
func Conv2DBackward(input, weight, dOut *Tensor, stride, pad int, dWeight, dBias *Tensor) *Tensor {
	if refKernels {
		return conv2DBackwardRef(input, weight, dOut, stride, pad, dWeight, dBias)
	}
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	oc, _, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	dIn := New(n, c, h, w)
	if n == 0 {
		return dIn
	}
	k := c * kh * kw
	m := oh * ow
	needW := dWeight != nil
	needB := dBias != nil

	workers := Workers(n)
	if needW || needB {
		workers = min(n, gradLanes)
	} else if p := channelWorkers(c, kh*kw); p > 1 {
		inputGradByChannel(dIn.data, weight.data, dOut.data, p, n, c, h, w, oc, kh, kw, stride, pad, m)
		return dIn
	}
	ss := AcquireScratch(workers)

	// W^T [k, oc], written once here and read by every worker.
	wT := ss[0].Buf(ScratchWT, k*oc)
	transposeInto(wT, weight.data, oc, k, k)

	// With a single worker the partial-sum indirection is pointless:
	// accumulate straight into the caller's gradients, which reproduces the
	// sequential pre-optimization summation order exactly.
	single := workers == 1
	parallelForChunks(n, workers, func(slot, lo, hi int) {
		sc := ss[slot]
		var dwAcc, dbAcc []float64
		if needW {
			if single {
				dwAcc = dWeight.data
			} else {
				dwAcc = sc.BufZero(ScratchDW, oc*k)
			}
		}
		if needB {
			if single {
				dbAcc = dBias.data
			} else {
				dbAcc = sc.BufZero(ScratchDB, oc)
			}
		}
		for s := lo; s < hi; s++ {
			dOutS := dOut.data[s*oc*m : (s+1)*oc*m]
			if needW {
				// dW_s = dOut_s [oc,m] @ cols^T [m,k]; im2col is only
				// needed for the weight gradient. The NT dot kernel reads
				// cols row-major directly — no materialized transpose.
				cols := sc.Buf(ScratchCols, k*m)
				Im2Col(input.data[s*c*h*w:(s+1)*c*h*w], c, h, w, kh, kw, stride, pad, cols)
				dws := sc.Buf(ScratchDWS, oc*k)
				dotRowsNT(dws, dOutS, cols, oc, k, m)
				for i, v := range dws {
					dwAcc[i] += v
				}
			}
			if needB {
				for o := 0; o < oc; o++ {
					sum := 0.0
					row := dOutS[o*m : (o+1)*m]
					for _, v := range row {
						sum += v
					}
					dbAcc[o] += sum
				}
			}
			// dCols = W^T [k,oc] @ dOut_s [oc,m]
			dCols := sc.Buf(ScratchDCols, k*m)
			matMulRowsBlocked(dCols, wT, dOutS, 0, k, oc, m, false)
			Col2Im(dCols, c, h, w, kh, kw, stride, pad, dIn.data[s*c*h*w:(s+1)*c*h*w])
		}
	})

	// Fixed-order merge: ascending lane, each lane's partial covering an
	// ascending contiguous sample range.
	if !single {
		for slot := 0; slot < workers; slot++ {
			if lo, hi := chunkRange(n, workers, slot); lo >= hi {
				continue
			}
			sc := ss[slot]
			if needW {
				for i, v := range sc.Buf(ScratchDW, oc*k) {
					dWeight.data[i] += v
				}
			}
			if needB {
				for o, v := range sc.Buf(ScratchDB, oc) {
					dBias.data[o] += v
				}
			}
		}
	}
	ReleaseScratch(ss)
	return dIn
}

// channelWorkers is the worker count of the input-channel split for c
// input channels of kk kernel taps each: GOMAXPROCS when every worker's
// share of channels, at least c/GOMAXPROCS of them, gives it tileRows
// column-gradient rows, and 1 (no split) otherwise. Below that row count
// a worker's matmul has no full row group for the packed kernel.
func channelWorkers(c, kk int) int {
	p := runtime.GOMAXPROCS(0)
	if p > 1 && c/p*kk >= tileRows {
		return p
	}
	return 1
}

// inputGradByChannel writes dIn for an input-gradient-only Conv2DBackward
// over workers slots: slot i owns input channels [i·c/workers,
// (i+1)·c/workers). It transposes only those channels' weight columns, then
// walks the samples in ascending order, computing the matching rows of
// dCols = W^T @ dOut_s and scattering them into its own channels of dIn.
// No two slots write one element, and every element receives the terms of
// the per-sample path in the same order, so the bytes do not depend on the
// worker count.
func inputGradByChannel(dIn, wdata, dOut []float64, workers, n, c, h, w, oc, kh, kw, stride, pad, m int) {
	kk := kh * kw
	ss := AcquireScratch(workers)
	parallelForSlot(workers, workers, func(slot, i int) {
		c0, c1 := i*c/workers, (i+1)*c/workers
		rows := (c1 - c0) * kk
		sc := ss[slot]
		wT := sc.Buf(ScratchWT, rows*oc)
		transposeInto(wT, wdata[c0*kk:], oc, rows, c*kk)
		dCols := sc.Buf(ScratchDCols, rows*m)
		for s := 0; s < n; s++ {
			matMulRowsBlocked(dCols, wT, dOut[s*oc*m:(s+1)*oc*m], 0, rows, oc, m, false)
			Col2Im(dCols, c1-c0, h, w, kh, kw, stride, pad, dIn[(s*c+c0)*h*w:(s*c+c1)*h*w])
		}
	})
	ReleaseScratch(ss)
}

// transposeInto writes the [cols, rows] transpose of the row-major
// [rows, cols] matrix src into dst, where src's rows start ld elements
// apart (ld = cols for a whole matrix; larger for a column block of a
// wider one). The walk is tiled so that both the sequential reads and the
// strided writes of a tile stay within cache — a straight row scan writes
// rows*8 bytes apart and misses on every store once rows exceeds a few
// hundred.
func transposeInto(dst, src []float64, rows, cols, ld int) {
	if len(dst) != rows*cols {
		panic(fmt.Sprintf("tensor: transposeInto dst length %d, want %d", len(dst), rows*cols))
	}
	const tile = 32
	for r0 := 0; r0 < rows; r0 += tile {
		r1 := r0 + tile
		if r1 > rows {
			r1 = rows
		}
		for c0 := 0; c0 < cols; c0 += tile {
			c1 := c0 + tile
			if c1 > cols {
				c1 = cols
			}
			for r := r0; r < r1; r++ {
				srow := src[r*ld+c0 : r*ld+c1]
				for i, v := range srow {
					dst[(c0+i)*rows+r] = v
				}
			}
		}
	}
}

// gradLanes is the fixed lane count of Conv2DBackward's weight and bias
// reduction. It does not follow GOMAXPROCS, so trained weights and patches
// come out bit-identical on every host; it caps that reduction's
// parallelism at two.
const gradLanes = 2

// Workers returns the worker count the parallel loops in this package use
// for n items: GOMAXPROCS capped at n, at least 1. Callers acquiring
// per-worker arena scratch size it with this.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chunkRange returns the half-open sample range of the given worker slot
// under the fixed contiguous partition parallelForChunks uses. Depends only
// on (n, workers, slot), never on scheduling.
func chunkRange(n, workers, slot int) (lo, hi int) {
	chunk := (n + workers - 1) / workers
	lo = slot * chunk
	hi = lo + chunk
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	return lo, hi
}

// parallelFor runs f(i) for i in [0,n) across GOMAXPROCS goroutines. Work
// is handed out through a single atomic counter: one fetch-add per item
// instead of the channel send/recv pair the old feeder-goroutine queue paid
// (which dominated dispatch for small batches).
func parallelFor(n int, f func(i int)) {
	parallelForSlot(n, Workers(n), func(_, i int) { f(i) })
}

func parallelForSlot(n, workers int, f func(slot, i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(slot int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(slot, i)
			}
		}(w)
	}
	wg.Wait()
}

// parallelForChunks partitions [0,n) into one fixed contiguous chunk per
// worker slot (chunkRange) and runs f(slot, lo, hi) concurrently. Unlike
// the counter-based loop, the item→slot assignment is static, which makes
// per-slot reductions merged in slot order deterministic for a fixed
// worker count.
func parallelForChunks(n, workers int, f func(slot, lo, hi int)) {
	if workers <= 1 {
		f(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := chunkRange(n, workers, w)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(slot, lo, hi int) {
			defer wg.Done()
			f(slot, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// ParallelFor exposes the worker-pool loop for other packages that iterate
// over batch samples.
func ParallelFor(n int, f func(i int)) { parallelFor(n, f) }
