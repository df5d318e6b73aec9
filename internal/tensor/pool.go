package tensor

import "fmt"

// MaxPool2D performs batched max pooling on a [N,C,H,W] tensor with a square
// kernel and the given stride (YOLOv3-tiny uses both 2/2 and 2/1 pools).
// It returns the pooled tensor and the flat argmax indices (into each
// sample-channel plane) needed by the backward pass.
func MaxPool2D(input *Tensor, kernel, stride int) (*Tensor, []int32) {
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	// Darknet-style "same" behaviour for stride 1: pad right/bottom so the
	// output keeps the input size (the window loop below skips taps past the
	// edge). For stride==kernel the usual floor division.
	var oh, ow int
	if stride == 1 {
		oh, ow = h, w
	} else {
		oh = ConvOut(h, kernel, stride, 0)
		ow = ConvOut(w, kernel, stride, 0)
	}
	out := New(n, c, oh, ow)
	arg := make([]int32, n*c*oh*ow)
	parallelFor(n*c, func(p int) {
		plane := input.data[p*h*w : (p+1)*h*w]
		oplane := out.data[p*oh*ow : (p+1)*oh*ow]
		aplane := arg[p*oh*ow : (p+1)*oh*ow]
		i := 0
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := -1
				bestV := 0.0
				for ky := 0; ky < kernel; ky++ {
					sy := oy*stride + ky
					if sy >= h {
						continue
					}
					for kx := 0; kx < kernel; kx++ {
						sx := ox*stride + kx
						if sx >= w {
							continue
						}
						v := plane[sy*w+sx]
						if best < 0 || v > bestV {
							best, bestV = sy*w+sx, v
						}
					}
				}
				oplane[i] = bestV
				aplane[i] = int32(best)
				i++
			}
		}
	})
	return out, arg
}

// MaxPool2DBackward routes dOut back to the argmax positions recorded by
// MaxPool2D, returning dInput with the input's shape.
func MaxPool2DBackward(inputShape []int, dOut *Tensor, arg []int32) *Tensor {
	n, c, h, w := inputShape[0], inputShape[1], inputShape[2], inputShape[3]
	oh, ow := dOut.shape[2], dOut.shape[3]
	if len(arg) != n*c*oh*ow {
		panic(fmt.Sprintf("tensor: MaxPool2DBackward arg length %d, want %d", len(arg), n*c*oh*ow))
	}
	dIn := New(n, c, h, w)
	for p := 0; p < n*c; p++ {
		dplane := dIn.data[p*h*w : (p+1)*h*w]
		gplane := dOut.data[p*oh*ow : (p+1)*oh*ow]
		aplane := arg[p*oh*ow : (p+1)*oh*ow]
		for i, g := range gplane {
			if aplane[i] >= 0 {
				dplane[aplane[i]] += g
			}
		}
	}
	return dIn
}

// Upsample2D nearest-neighbour upsamples a [N,C,H,W] tensor by factor s.
func Upsample2D(input *Tensor, s int) *Tensor {
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	out := New(n, c, h*s, w*s)
	ow := w * s
	for p := 0; p < n*c; p++ {
		plane := input.data[p*h*w : (p+1)*h*w]
		oplane := out.data[p*h*s*ow : (p+1)*h*s*ow]
		for y := 0; y < h*s; y++ {
			sy := y / s
			srow := plane[sy*w : (sy+1)*w]
			orow := oplane[y*ow : (y+1)*ow]
			for x := 0; x < ow; x++ {
				orow[x] = srow[x/s]
			}
		}
	}
	return out
}

// Upsample2DBackward sums gradients of Upsample2D back into the low-res grid.
func Upsample2DBackward(dOut *Tensor, s int) *Tensor {
	n, c, oh, ow := dOut.shape[0], dOut.shape[1], dOut.shape[2], dOut.shape[3]
	h, w := oh/s, ow/s
	dIn := New(n, c, h, w)
	for p := 0; p < n*c; p++ {
		dplane := dIn.data[p*h*w : (p+1)*h*w]
		gplane := dOut.data[p*oh*ow : (p+1)*oh*ow]
		for y := 0; y < oh; y++ {
			sy := y / s
			grow := gplane[y*ow : (y+1)*ow]
			drow := dplane[sy*w : (sy+1)*w]
			for x := 0; x < ow; x++ {
				drow[x/s] += grow[x]
			}
		}
	}
	return dIn
}
