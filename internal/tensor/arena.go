package tensor

import "sync"

// Scratch buffer ids. Each id names one grow-only buffer inside a Scratch;
// a kernel grabs the ids it needs so two buffers live in one scratch
// without aliasing (the conv backward uses four at once).
const (
	// ScratchCols holds the im2col lowering of one sample.
	ScratchCols = iota
	// ScratchDW is the per-worker dWeight accumulator.
	ScratchDW
	// ScratchDWS is the per-sample dWeight term before accumulation.
	ScratchDWS
	// ScratchDB is the per-worker dBias accumulator.
	ScratchDB
	// ScratchDCols holds the column gradient scattered by Col2Im.
	ScratchDCols
	// ScratchWT holds a transposed weight matrix shared read-only by all
	// workers of one dispatch, or one worker's own column block of it.
	ScratchWT
	// ScratchA and ScratchB are general-purpose slots for callers outside
	// this package (nn.Linear reuses them for transpose scratch).
	ScratchA
	ScratchB

	numScratchBufs
)

// Scratch is one worker's set of grow-only float64 buffers. A Scratch is
// NOT safe for concurrent use: exactly one goroutine may call Buf/BufZero
// between Acquire and Release. Buffers only ever grow, so steady-state
// reuse performs zero allocations.
type Scratch struct {
	bufs [numScratchBufs][]float64
}

// Buf returns the id'th buffer resized to n elements. The contents are
// UNDEFINED (whatever a previous user left); call BufZero for cleared
// memory. The returned slice is valid until the next Buf call with the
// same id or the scratch's release.
func (s *Scratch) Buf(id, n int) []float64 {
	if cap(s.bufs[id]) < n {
		s.bufs[id] = make([]float64, n)
	}
	s.bufs[id] = s.bufs[id][:n]
	return s.bufs[id]
}

// BufZero returns the id'th buffer resized to n elements and zeroed.
func (s *Scratch) BufZero(id, n int) []float64 {
	b := s.Buf(id, n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// Arena is a pool of Scratches shared by every dispatch in the process.
// Within one parallel dispatch the acquired slice is keyed by worker slot
// (ss[slot] belongs exclusively to that worker); across dispatches —
// including concurrent ones from different serve replicas — scratches are
// recycled through a free list, so the hot loop stops allocating after the
// first few iterations grow the buffers to their steady-state sizes.
type Arena struct {
	mu   sync.Mutex
	free []*Scratch
}

// Acquire returns n scratches for exclusive use, one per worker slot.
// Release them with Release when the dispatch has joined.
func (a *Arena) Acquire(n int) []*Scratch {
	out := make([]*Scratch, n)
	a.mu.Lock()
	avail := len(a.free)
	take := n
	if take > avail {
		take = avail
	}
	copy(out, a.free[avail-take:])
	a.free = a.free[:avail-take]
	a.mu.Unlock()
	for i := take; i < n; i++ {
		out[i] = &Scratch{}
	}
	return out
}

// Release returns acquired scratches to the arena. The caller must not
// touch them (or slices obtained from them) afterwards.
func (a *Arena) Release(ss []*Scratch) {
	a.mu.Lock()
	a.free = append(a.free, ss...)
	a.mu.Unlock()
}

// defaultArena backs the package-level conv/matmul kernels and the
// AcquireScratch/ReleaseScratch helpers other packages build on.
var defaultArena Arena

// AcquireScratch takes n per-worker scratches from the process-wide arena.
// Use Workers to size n for a batch dispatch, or pass 1 for a sequential
// caller; pair every call with ReleaseScratch.
func AcquireScratch(n int) []*Scratch { return defaultArena.Acquire(n) }

// ReleaseScratch returns scratches taken with AcquireScratch.
func ReleaseScratch(ss []*Scratch) { defaultArena.Release(ss) }
