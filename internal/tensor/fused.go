package tensor

import "fmt"

// Eval-time fused convolution kernel. A darknet conv block is
// conv → batch-norm → leaky ReLU; run as three modules that is three full
// tensors and five memory passes per block. At inference the batch-norm is
// an affine transform with frozen statistics, so the whole block collapses
// into one convolution pass plus one in-place elementwise pass — no
// intermediate tensors at all. The kernel keeps the batch-norm arithmetic
// verbatim, so fused and unfused serving replicas stay byte-interchangeable.
// It is scratch-arena backed like Conv2D: steady-state calls allocate only
// the output tensor.

// Conv2DBNLeaky computes leaky(γ·((conv(x,W)−μ)·invSD)+β) in one pass.
// Input is [N,C,H,W], weight [OC,C,KH,KW]; gamma, beta, mean and invSD are
// per-output-channel slices of length OC (invSD = 1/sqrt(var+eps), computed
// by the caller exactly as the batch-norm layer computes it). The arithmetic
// per element is identical to the unfused conv→BN(eval)→leaky chain, so the
// result is bit-identical to it. The conv is the same arena-backed im2col +
// blocked matmul as Conv2D; the affine and rectifier run over each sample's
// [OC, OH·OW] result while it is still cache-hot.
func Conv2DBNLeaky(input, weight *Tensor, gamma, beta, mean, invSD []float64, stride, pad int, slope float64) *Tensor {
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	oc, kc, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	if kc != c {
		panic(fmt.Sprintf("tensor: fused conv channel mismatch input %v weight %v", input.shape, weight.shape))
	}
	if len(gamma) != oc || len(beta) != oc || len(mean) != oc || len(invSD) != oc {
		panic(fmt.Sprintf("tensor: Conv2DBNLeaky affine length %d/%d/%d/%d, want %d",
			len(gamma), len(beta), len(mean), len(invSD), oc))
	}
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	out := New(n, oc, oh, ow)
	if n == 0 {
		return out
	}
	k := c * kh * kw
	m := oh * ow
	wdata := weight.data

	workers := Workers(n)
	ss := AcquireScratch(workers)
	parallelForSlot(n, workers, func(slot, s int) {
		sc := ss[slot]
		cols := sc.Buf(ScratchCols, k*m)
		Im2Col(input.data[s*c*h*w:(s+1)*c*h*w], c, h, w, kh, kw, stride, pad, cols)
		res := out.data[s*oc*m : (s+1)*oc*m]
		matMulRowsBlocked(res, wdata, cols, 0, oc, k, m, false)
		for o := 0; o < oc; o++ {
			g, bt, mn, isd := gamma[o], beta[o], mean[o], invSD[o]
			seg := res[o*m : (o+1)*m]
			for i, v := range seg {
				y := g*((v-mn)*isd) + bt
				if y > 0 {
					seg[i] = y
				} else {
					seg[i] = slope * y
				}
			}
		}
	})
	ReleaseScratch(ss)
	return out
}
