package sharedforward

// The fused-kernel shape: an eval-time conv+BN+activation kernel acquires
// arena scratch once, then fans sample work out across goroutines. The im2col
// buffer belongs to exactly one worker slot — capturing a pre-picked scratch
// in every closure is the same race as sharing a module, just through the
// arena instead of the activation cache.

// FusedConv mimics the skeleton of an arena-backed conv kernel with a fused
// batch-norm epilogue, the shape of tensor.Conv2D: fold once, then one
// scratch buffer per worker slot for the im2col lowering.
type FusedConv struct {
	folded bool
	ar     Arena
}

// FusedSharedScratch picks the scratch before spawning the per-sample
// goroutines: every sample's im2col lowering hammers one buffer.
func (f *FusedConv) FusedSharedScratch(samples int, done chan []float64) {
	ss := f.ar.Acquire(4)
	im2col := ss[0]
	for n := 0; n < samples; n++ {
		go func() {
			done <- im2col.BufZero(0, 256) // want "sharedforward"
		}()
	}
}

// FusedPerSlot indexes the acquired scratch by the goroutine's own slot —
// the parallel-for-slot discipline the real fused kernels use, compliant.
func (f *FusedConv) FusedPerSlot(samples int, done chan []float64) {
	ss := f.ar.Acquire(samples)
	for n := 0; n < samples; n++ {
		go func(slot int) {
			done <- ss[slot].BufZero(0, 256)
		}(n)
	}
}

// FusedEpilogue applies the folded-BN epilogue on a scratch captured from an
// enclosing pick: still shared, still a finding — the epilogue writing in
// place does not make the buffer private.
func (f *FusedConv) FusedEpilogue(samples int, done chan []float64) {
	ss := f.ar.Acquire(4)
	sc := ss[1]
	for n := 0; n < samples; n++ {
		go func() {
			seg := sc.Buf(1, 64) // want "sharedforward"
			for i := range seg {
				if seg[i] < 0 {
					seg[i] *= 0.1
				}
			}
			done <- seg
		}()
	}
}

// FusedSequential folds and lowers without goroutines: compliant.
func (f *FusedConv) FusedSequential() []float64 {
	f.folded = true
	ss := f.ar.Acquire(1)
	return ss[0].Buf(0, 256)
}
