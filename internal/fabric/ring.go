package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring with virtual nodes. Keys (patch digests)
// map to node IDs. A node's absence moves only the keys in the arcs it
// owns: a caller that skips a node in Sequence routes every key exactly
// as a ring built without it would, which is what preserves cache
// affinity while nodes come and go. Build it with Add before sharing it;
// Sequence and Len only read, so they are then safe for concurrent use.
type Ring struct {
	replicas int
	hashes   []uint64          // sorted virtual-node positions
	owner    map[uint64]string // position -> node id
	nodes    map[string]bool
}

// DefaultReplicas is the virtual-node count per physical node; 64 keeps
// the key distribution within a few percent of uniform for small fleets.
const DefaultReplicas = 64

// NewRing returns an empty ring; replicas ≤ 0 means DefaultReplicas.
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, owner: map[uint64]string{}, nodes: map[string]bool{}}
}

// ringHash positions a string on the ring: the first 8 bytes of its
// SHA-256, so placement is stable across processes and runs.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.LittleEndian.Uint64(sum[:8])
}

// Add inserts a node (idempotent).
func (r *Ring) Add(id string) {
	if r.nodes[id] {
		return
	}
	r.nodes[id] = true
	for i := 0; i < r.replicas; i++ {
		h := ringHash(id + "#" + strconv.Itoa(i))
		// A full 64-bit collision across vnode labels is ~impossible; skip
		// rather than silently stealing another node's position.
		if _, taken := r.owner[h]; taken {
			continue
		}
		r.owner[h] = id
		r.hashes = append(r.hashes, h)
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
}

// check verifies the ring's structure: positions strictly ascending, one
// owner per position, every owner a member, and every member owning at
// least one position. Tests run it after every Add.
//
//rtlint:ignore deadcode invariant checker: tests run it after every step; the hot path has no hook
func (r *Ring) check() error {
	if len(r.hashes) != len(r.owner) {
		return fmt.Errorf("fabric: ring has %d positions, %d owners", len(r.hashes), len(r.owner))
	}
	owned := make(map[string]int, len(r.nodes))
	for i, h := range r.hashes {
		if i > 0 && r.hashes[i-1] >= h {
			return fmt.Errorf("fabric: ring positions not strictly ascending at %d", i)
		}
		id, ok := r.owner[h]
		if !ok {
			return fmt.Errorf("fabric: ring position %#x has no owner", h)
		}
		if !r.nodes[id] {
			return fmt.Errorf("fabric: ring position %#x owned by non-member %q", h, id)
		}
		owned[id]++
	}
	for id := range r.nodes {
		if owned[id] == 0 {
			return fmt.Errorf("fabric: ring member %q owns no position", id)
		}
	}
	return nil
}

// Len reports the number of physical nodes.
func (r *Ring) Len() int {
	return len(r.nodes)
}

// Sequence returns up to n distinct nodes in ring order starting at key's
// position — the primary owner first, then the failover preference order.
// Every caller with the same key and fleet sees the same sequence, so
// retries land deterministically.
func (r *Ring) Sequence(key string, n int) []string {
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := ringHash(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		id := r.owner[r.hashes[(start+i)%len(r.hashes)]]
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
