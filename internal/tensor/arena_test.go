package tensor

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestScratchBufGrowOnly(t *testing.T) {
	var sc Scratch
	b1 := sc.Buf(ScratchCols, 64)
	if len(b1) != 64 {
		t.Fatalf("Buf length %d, want 64", len(b1))
	}
	b1[0], b1[63] = 1, 2
	// A smaller request must reuse the same backing array.
	b2 := sc.Buf(ScratchCols, 16)
	if len(b2) != 16 || &b2[0] != &b1[0] {
		t.Fatal("smaller Buf request must return a prefix of the existing buffer")
	}
	// A larger request grows; previous handle stays valid but detached.
	b3 := sc.Buf(ScratchCols, 128)
	if len(b3) != 128 {
		t.Fatalf("Buf length %d, want 128", len(b3))
	}
	// Distinct IDs never alias.
	b4 := sc.Buf(ScratchDW, 128)
	b4[0] = 42
	b3[0] = 7
	if b4[0] != 42 {
		t.Fatal("buffers for distinct scratch IDs must not alias")
	}
}

func TestScratchBufZero(t *testing.T) {
	var sc Scratch
	b := sc.Buf(ScratchDW, 32)
	for i := range b {
		b[i] = float64(i + 1)
	}
	z := sc.BufZero(ScratchDW, 32)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("BufZero left element %d = %v", i, v)
		}
	}
}

func TestArenaAcquireReleaseRecycles(t *testing.T) {
	var ar Arena
	ss := ar.Acquire(3)
	if len(ss) != 3 {
		t.Fatalf("Acquire(3) returned %d scratches", len(ss))
	}
	// Warm one buffer so recycling is observable through pointer identity.
	p := &ss[0].Buf(ScratchCols, 100)[0]
	ar.Release(ss)
	ss2 := ar.Acquire(3)
	found := false
	for _, sc := range ss2 {
		if len(sc.bufs[ScratchCols]) >= 100 && &sc.bufs[ScratchCols][0] == p {
			found = true
		}
	}
	if !found {
		t.Fatal("released scratch (and its warmed buffer) was not recycled by the next Acquire")
	}
	ar.Release(ss2)
}

// TestArenaConcurrentHammer drives Acquire/Buf/Release from many goroutines
// at once; under -race this proves two holders never share a Scratch.
func TestArenaConcurrentHammer(t *testing.T) {
	var ar Arena
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 200; iter++ {
				ss := ar.Acquire(1 + rng.Intn(4))
				for _, sc := range ss {
					b := sc.Buf(rng.Intn(numScratchBufs), 16+rng.Intn(256))
					mark := float64(g*1000 + iter)
					for i := range b {
						b[i] = mark
					}
					for i := range b {
						if b[i] != mark {
							t.Errorf("goroutine %d iter %d: scratch shared with another holder", g, iter)
							return
						}
					}
				}
				ar.Release(ss)
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentConvReplicas mimics the serve worker pool: several replicas
// run full forward+backward passes through the shared default arena at the
// same time. Every replica gets identical inputs, so every replica must get
// bit-identical outputs — any cross-replica scratch aliasing corrupts them
// (and -race flags it directly).
func TestConcurrentConvReplicas(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prevProcs)
	rng := rand.New(rand.NewSource(77))
	in := NewRandN(rng, 1, 6, 3, 12, 12)
	wt := NewRandN(rng, 0.1, 8, 3, 3, 3)
	bias := NewRandN(rng, 0.1, 8)
	oh := ConvOut(12, 3, 1, 1)
	dOut := NewRandN(rng, 1, 6, 8, oh, oh)

	wantOut := Conv2D(in, wt, bias, 1, 1)
	wantDW := New(wt.Shape()...)
	wantDB := New(8)
	wantDIn := Conv2DBackward(in, wt, dOut, 1, 1, wantDW, wantDB)

	const replicas = 8
	var wg sync.WaitGroup
	errs := make(chan string, replicas)
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				out := Conv2D(in, wt, bias, 1, 1)
				dW := New(wt.Shape()...)
				dB := New(8)
				dIn := Conv2DBackward(in, wt, dOut, 1, 1, dW, dB)
				if MaxAbsDiff(out, wantOut) != 0 || MaxAbsDiff(dIn, wantDIn) != 0 ||
					MaxAbsDiff(dW, wantDW) != 0 || MaxAbsDiff(dB, wantDB) != 0 {
					errs <- "replica result differs — scratch aliasing across concurrent Conv2D calls"
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func TestParallelForSlotCoversAllOnce(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prevProcs)
	const n = 1000
	var mu sync.Mutex
	seen := make([]int, n)
	slotBusy := make([]int32, Workers(n))
	parallelForSlot(n, Workers(n), func(slot, i int) {
		mu.Lock()
		seen[i]++
		slotBusy[slot]++
		mu.Unlock()
	})
	total := 0
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
		total++
	}
	if total != n {
		t.Fatalf("visited %d of %d", total, n)
	}
}

func TestParallelForZeroAndOne(t *testing.T) {
	calls := 0
	ParallelFor(0, func(int) { calls++ })
	if calls != 0 {
		t.Fatal("ParallelFor(0) must not invoke f")
	}
	ParallelFor(1, func(i int) {
		if i != 0 {
			t.Fatalf("got index %d", i)
		}
		calls++
	})
	if calls != 1 {
		t.Fatal("ParallelFor(1) must invoke f exactly once")
	}
}

func TestChunkRangePartition(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for workers := 1; workers <= 9; workers++ {
			covered := 0
			prevHi := 0
			for slot := 0; slot < workers; slot++ {
				lo, hi := chunkRange(n, workers, slot)
				if lo > hi {
					t.Fatalf("n=%d w=%d slot=%d: lo %d > hi %d", n, workers, slot, lo, hi)
				}
				if lo != prevHi && lo < n {
					t.Fatalf("n=%d w=%d slot=%d: gap before lo=%d", n, workers, slot, lo)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("n=%d w=%d: chunks cover %d items", n, workers, covered)
			}
		}
	}
}
