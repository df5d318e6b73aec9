package tensor

import "fmt"

// parallelThreshold is the minimum amount of scalar work before MatMul fans
// out across goroutines; below it the scheduling overhead dominates.
const parallelThreshold = 1 << 15

// Cache-blocking parameters of the packed kernel. One [mmKC, mmNC] tile
// of b (64 KiB), packed into 8-column panels, stays resident while every
// dst row in the row range consumes it, so b is streamed from cache rather
// than memory.
const (
	mmKC = 128 // k-tile: rows of b per panel
	mmNC = 64  // n-tile: columns of b per tile, a multiple of the 8-column panel
)

// MatMul returns a @ b for a [m,k] tensor and a [k,n] tensor, computing the
// [m,n] product with the cache-blocked kernel (row-parallel above the work
// threshold).
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 inputs, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v @ %v", a.shape, b.shape))
	}
	out := New(m, n)
	matMulInto(out.data, a.data, b.data, m, k, n, false)
	return out
}

// MatMulAccum computes dst += a @ b where dst is an existing [m,n] tensor.
func MatMulAccum(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAccum shape mismatch %v += %v @ %v", dst.shape, a.shape, b.shape))
	}
	matMulInto(dst.data, a.data, b.data, m, k, n, true)
}

func matMulInto(dst, a, b []float64, m, k, n int, accum bool) {
	workers := Workers(m)
	if workers == 1 || m*k*n < parallelThreshold {
		// Called directly: the closure below escapes to the workers'
		// goroutines, so building it would cost the serial call an
		// allocation.
		matMulRows(dst, a, b, 0, m, k, n, accum)
		return
	}
	parallelForChunks(m, workers, func(_, lo, hi int) {
		matMulRows(dst, a, b, lo, hi, k, n, accum)
	})
}

// matMulRows computes rows [lo,hi) of dst = a@b (or dst += a@b when accum),
// dispatching to the reference kernel when SetRefKernels selected it.
func matMulRows(dst, a, b []float64, lo, hi, k, n int, accum bool) {
	if refKernels {
		matMulRowsRef(dst, a, b, lo, hi, k, n, accum)
		return
	}
	matMulRowsBlocked(dst, a, b, lo, hi, k, n, accum)
}

// packThreshold is the minimum m*k*n work before matMulRowsBlocked packs b
// tiles into micro-panels; below it the packing pass costs more than the
// strided loads it removes.
const packThreshold = 1 << 14

// tileRows is the row height of the 4×8 register tile (tile4x8AVX2): the
// packed kernel walks its row range in groups of tileRows rows, and a
// shorter range has no group to amortize the relayout over.
const tileRows = 4

// matMulRowsBlocked is the production kernel. A row range of at least
// tileRows rows with n ≥ 8 and at least packThreshold work runs the packed
// kernel; everything else runs one row at a time, streaming whole b rows
// in ascending p. For every output element the contributions arrive in
// strictly ascending k order with the same zero-skip rule as the reference
// kernel, so the result is bit-identical to matMulRowsRef (the parity tests
// enforce this across random shapes).
func matMulRowsBlocked(dst, a, b []float64, lo, hi, k, n int, accum bool) {
	if !accum {
		for i := lo; i < hi; i++ {
			drow := dst[i*n : (i+1)*n]
			for j := range drow {
				drow[j] = 0
			}
		}
	}
	if hi-lo >= tileRows && n >= 8 && (hi-lo)*k*n >= packThreshold {
		matMulRowsPacked(dst, a, b, lo, hi, k, n)
		return
	}
	for i := lo; i < hi; i++ {
		drow := dst[i*n : i*n+n]
		for p, av := range a[i*k : (i+1)*k] {
			if av != 0 {
				streamAxpy(drow, b[p*n:p*n+n], av)
			}
		}
	}
}

// matMulRowsPacked is the packed path of matMulRowsBlocked. Each
// [kc, ≤mmNC] tile of b is repacked once into 8-column micro-panels laid
// out sequentially in p — the inner register loop then reads a panel
// linearly instead of striding n doubles through b, which is what starves
// the prefetcher on conv-sized products (n = OH*OW in the thousands), and
// for narrow outputs a is walked once per panel, sequentially. With AVX2,
// each group of tileRows rows runs its panels in tile4x8AVX2 unless one of
// its a rows holds ±0 in the k-tile; everything else runs in packedRow. The
// packing is a pure relayout: per output element the accumulation order
// over p and the av==0 skip are exactly those of the reference kernel, so
// bit-parity is preserved. dst rows must already hold their initial values
// (zeroed or accumulating).
func matMulRowsPacked(dst, a, b []float64, lo, hi, k, n int) {
	// One tile of packed micro-panels. Stack-allocated: goroutine-private by
	// construction, no arena traffic, and the one-time zeroing is below the
	// packThreshold noise floor.
	var pack [mmKC * mmNC]float64
	for p0 := 0; p0 < k; p0 += mmKC {
		p1 := min(p0+mmKC, k)
		kc := p1 - p0
		for j0 := 0; j0 < n; j0 += mmNC {
			j1 := min(j0+mmNC, n)
			j8 := j0 + (j1-j0)&^7
			// Pack: micro-panel jg holds columns [j0+jg, j0+jg+8) for all p
			// in the tile, contiguous in p. Columns past j8 stay unpacked
			// and are handled by the scalar tails. Eight assignments, not
			// copy: a runtime memmove call per 64 bytes cost twice as much.
			for p := 0; p < kc; p++ {
				brow := b[(p0+p)*n+j0 : (p0+p)*n+j8]
				o := p * 8
				for jg := 0; jg+8 <= len(brow); jg += 8 {
					d, s := pack[o:o+8:o+8], brow[jg:jg+8:jg+8]
					d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
					o += kc * 8
				}
			}
			i := lo
			if useAVX2 {
				for ; i+tileRows <= hi; i += tileRows {
					jFrom := j0
					if !rowsHaveZero(a[i*k+p0:], k, kc) {
						for ; jFrom < j8; jFrom += 8 {
							tile8(dst[i*n+jFrom:], n, a[i*k+p0:], k, pack[(jFrom-j0)*kc:], 8, kc)
						}
					}
					for r := i; r < i+tileRows; r++ {
						packedRow(dst, a, b, pack[:], r, k, n, p0, p1, j0, j1, jFrom)
					}
				}
			}
			for ; i < hi; i++ {
				packedRow(dst, a, b, pack[:], i, k, n, p0, p1, j0, j1, j0)
			}
		}
	}
}

// packedRow computes row i of one matMulRowsPacked tile from column jFrom
// to j1: an eight-accumulator register block per packed panel, then one
// column at a time past the panels.
func packedRow(dst, a, b, pack []float64, i, k, n, p0, p1, j0, j1, jFrom int) {
	kc := p1 - p0
	j8 := j0 + (j1-j0)&^7
	arow := a[i*k+p0 : i*k+p1]
	drow := dst[i*n : (i+1)*n]
	jj := jFrom
	for ; jj+8 <= j8; jj += 8 {
		acc0, acc1, acc2, acc3 := drow[jj], drow[jj+1], drow[jj+2], drow[jj+3]
		acc4, acc5, acc6, acc7 := drow[jj+4], drow[jj+5], drow[jj+6], drow[jj+7]
		panel := pack[(jj-j0)*kc : (jj-j0)*kc+kc*8]
		for _, av := range arow {
			if av != 0 {
				bp := panel[:8]
				acc0 += av * bp[0]
				acc1 += av * bp[1]
				acc2 += av * bp[2]
				acc3 += av * bp[3]
				acc4 += av * bp[4]
				acc5 += av * bp[5]
				acc6 += av * bp[6]
				acc7 += av * bp[7]
			}
			panel = panel[8:]
		}
		drow[jj], drow[jj+1], drow[jj+2], drow[jj+3] = acc0, acc1, acc2, acc3
		drow[jj+4], drow[jj+5], drow[jj+6], drow[jj+7] = acc4, acc5, acc6, acc7
	}
	for ; jj < j1; jj++ {
		acc := drow[jj]
		off := p0*n + jj
		for _, av := range arow {
			if av != 0 {
				acc += av * b[off]
			}
			off += n
		}
		drow[jj] = acc
	}
}

// rowsHaveZero reports whether one of the tileRows a rows starting at a[0]
// (lda apart) holds ±0 in its first kc entries. tile4x8AVX2 has no
// per-term zero skip, so such a row group runs in packedRow instead.
// NaN is not zero: the reference kernel multiplies it in, and so does the
// AVX2 tile.
func rowsHaveZero(a []float64, lda, kc int) bool {
	for r := 0; r < tileRows; r++ {
		for _, v := range a[r*lda : r*lda+kc] {
			if v == 0 {
				return true
			}
		}
	}
	return false
}

// tile8 runs tile4x8AVX2 on dst[4,8] += a[4,kc] @ b[kc,8], where row p of
// b is b[p*ldb:][:8] and dst and a rows are ldd and lda doubles apart,
// after checking that the last element each operand reaches lies inside
// its slice.
func tile8(dst []float64, ldd int, a []float64, lda int, b []float64, ldb, kc int) {
	_ = dst[3*ldd+7]
	_ = a[3*lda+kc-1]
	_ = b[(kc-1)*ldb+7]
	tile4x8AVX2(&dst[0], ldd, &a[0], lda, &b[0], ldb, kc)
}

// dotRowsNT computes dst[ma,nb] = a[ma,p] @ b[nb,p]^T without materializing
// the transpose: element (i,j) is the dot product of row i of a and row j of
// b, so both operands stream sequentially. This is the weight-gradient shape
// (dW = dOut @ cols^T) where the second operand is only available row-major;
// a transpose-then-matmul detour would cost an extra full pass over cols.
// Per output element the q order is ascending and a zero a coefficient skips
// its contribution, exactly as the reference kernel computes the same
// product from the materialized transpose — bit-parity is preserved.
func dotRowsNT(dst, a, b []float64, ma, nb, p int) {
	i := 0
	for ; i+2 <= ma; i += 2 {
		a0 := a[i*p : (i+1)*p]
		a1 := a[(i+1)*p : (i+2)*p]
		d0 := dst[i*nb : (i+1)*nb]
		d1 := dst[(i+1)*nb : (i+2)*nb]
		j := 0
		for ; j+4 <= nb; j += 4 {
			b0 := b[j*p : j*p+p]
			b1 := b[(j+1)*p : (j+1)*p+p]
			b2 := b[(j+2)*p : (j+2)*p+p]
			b3 := b[(j+3)*p : (j+3)*p+p]
			var acc00, acc01, acc02, acc03 float64
			var acc10, acc11, acc12, acc13 float64
			for q, av0 := range a0 {
				bv0, bv1, bv2, bv3 := b0[q], b1[q], b2[q], b3[q]
				if av0 != 0 {
					acc00 += av0 * bv0
					acc01 += av0 * bv1
					acc02 += av0 * bv2
					acc03 += av0 * bv3
				}
				if av1 := a1[q]; av1 != 0 {
					acc10 += av1 * bv0
					acc11 += av1 * bv1
					acc12 += av1 * bv2
					acc13 += av1 * bv3
				}
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = acc00, acc01, acc02, acc03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = acc10, acc11, acc12, acc13
		}
		for ; j < nb; j++ {
			brow := b[j*p : j*p+p]
			var s0, s1 float64
			for q, av0 := range a0 {
				bv := brow[q]
				if av0 != 0 {
					s0 += av0 * bv
				}
				if av1 := a1[q]; av1 != 0 {
					s1 += av1 * bv
				}
			}
			d0[j], d1[j] = s0, s1
		}
	}
	if i < ma {
		arow := a[i*p : (i+1)*p]
		drow := dst[i*nb : (i+1)*nb]
		for j := 0; j < nb; j++ {
			brow := b[j*p : j*p+p]
			var s float64
			for q, av := range arow {
				if av != 0 {
					s += av * brow[q]
				}
			}
			drow[j] = s
		}
	}
}

// streamAxpy computes d += av * brow over one row.
func streamAxpy(d, brow []float64, av float64) {
	d = d[:len(brow)]
	for j, bv := range brow {
		d[j] += av * bv
	}
}
