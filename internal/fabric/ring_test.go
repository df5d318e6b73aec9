package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("digest-%04d", i)
	}
	return keys
}

// lookup is key's primary owner, or "" on an empty ring.
func lookup(r *Ring, key string) string {
	if seq := r.Sequence(key, 1); len(seq) > 0 {
		return seq[0]
	}
	return ""
}

func TestRingLookupOrderIndependent(t *testing.T) {
	a := NewRing(0)
	for _, id := range []string{"n1", "n2", "n3"} {
		a.Add(id)
	}
	b := NewRing(0)
	for _, id := range []string{"n3", "n1", "n2"} {
		b.Add(id)
	}
	for _, k := range ringKeys(500) {
		if got, want := lookup(a, k), lookup(b, k); got != want {
			t.Fatalf("lookup(%q) depends on insertion order: %q vs %q", k, got, want)
		}
	}
}

func TestRingSequenceDistinctAndStable(t *testing.T) {
	r := NewRing(0)
	nodes := []string{"n1", "n2", "n3", "n4"}
	for _, id := range nodes {
		r.Add(id)
	}
	for _, k := range ringKeys(100) {
		seq := r.Sequence(k, len(nodes))
		if len(seq) != len(nodes) {
			t.Fatalf("sequence(%q) has %d entries, want %d", k, len(seq), len(nodes))
		}
		seen := map[string]bool{}
		for _, id := range seq {
			if seen[id] {
				t.Fatalf("sequence(%q) repeats %q: %v", k, id, seq)
			}
			seen[id] = true
		}
		again := r.Sequence(k, len(nodes))
		for i := range seq {
			if seq[i] != again[i] {
				t.Fatalf("sequence(%q) not deterministic: %v vs %v", k, seq, again)
			}
		}
	}
}

// routeSkipping is key's owner when the skipped nodes cannot take it, as
// dispatch sees it: the first node in key's sequence not in skip, or "".
func routeSkipping(r *Ring, key string, skip map[string]bool) string {
	for _, id := range r.Sequence(key, r.Len()) {
		if !skip[id] {
			return id
		}
	}
	return ""
}

// TestRingRebalanceBounded is the consistent-hashing contract: a node's
// absence moves only the keys that node owned. The gateway skips an absent
// node in Sequence instead of taking it off the ring, so skipping n2 must
// route every key exactly as a ring built without n2 does, and the ring
// itself is unchanged for when n2 is back.
func TestRingRebalanceBounded(t *testing.T) {
	full, without := NewRing(0), NewRing(0)
	for _, id := range []string{"n1", "n2", "n3"} {
		full.Add(id)
		if id != "n2" {
			without.Add(id)
		}
	}
	skip := map[string]bool{"n2": true}
	perNode := map[string]int{}
	moved := 0
	for _, k := range ringKeys(2000) {
		before, after := lookup(full, k), routeSkipping(full, k, skip)
		perNode[before]++
		if want := lookup(without, k); after != want {
			t.Fatalf("key %q routes to %q skipping n2, a ring without n2 says %q", k, after, want)
		}
		if before != "n2" && after != before {
			t.Fatalf("key %q moved from surviving node %q to %q on unrelated absence", k, before, after)
		}
		if after != before {
			moved++
		}
	}
	for _, id := range []string{"n1", "n2", "n3"} {
		if perNode[id] == 0 {
			t.Fatalf("node %s owns no keys; distribution broken: %v", id, perNode)
		}
	}
	if moved != perNode["n2"] {
		t.Fatalf("moved %d keys, want exactly n2's %d", moved, perNode["n2"])
	}
}

func TestRingEdgeCases(t *testing.T) {
	r := NewRing(4)
	if seq := r.Sequence("anything", 3); seq != nil {
		t.Fatalf("empty ring sequence = %v, want nil", seq)
	}
	r.Add("solo")
	r.Add("solo") // idempotent
	if r.Len() != 1 {
		t.Fatalf("len after duplicate add = %d", r.Len())
	}
	if seq := r.Sequence("k", 10); len(seq) != 1 || seq[0] != "solo" {
		t.Fatalf("sequence on 1-node ring = %v", seq)
	}
	if got := routeSkipping(r, "k", map[string]bool{"solo": true}); got != "" {
		t.Fatalf("1-node ring skipping its node routes to %q, want none", got)
	}
}

// TestRingModel drives the ring with seeded random adds, repeats
// included, rebuilding it from empty every 40 steps, next to a model that
// places every member's virtual nodes itself. After every Add the ring
// must pass check() and list the model's members; then a random set of
// members is skipped, and each probe key must route to the owner of the
// first position at or after its hash on a model ring of the rest.
func TestRingModel(t *testing.T) {
	const replicas = 8
	rng := rand.New(rand.NewSource(41))
	var r *Ring
	var members map[string]bool
	keys := ringKeys(32)
	for step := 0; step < 400; step++ {
		if step%40 == 0 {
			r, members = NewRing(replicas), map[string]bool{}
		}
		id := "n" + strconv.Itoa(rng.Intn(6))
		r.Add(id)
		members[id] = true
		if err := r.check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !reflect.DeepEqual(r.nodes, members) {
			t.Fatalf("step %d: nodes %v, model %v", step, r.nodes, members)
		}

		skip := map[string]bool{}
		owner := map[uint64]string{}
		var pos []uint64
		for n := 0; n < 6; n++ {
			m := "n" + strconv.Itoa(n)
			if !members[m] {
				continue
			}
			if rng.Intn(2) == 0 {
				skip[m] = true
				continue
			}
			for i := 0; i < replicas; i++ {
				h := ringHash(m + "#" + strconv.Itoa(i))
				owner[h] = m
				pos = append(pos, h)
			}
		}
		sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
		for _, k := range keys {
			want := ""
			if len(pos) > 0 {
				h := ringHash(k)
				i := sort.Search(len(pos), func(i int) bool { return pos[i] >= h })
				want = owner[pos[i%len(pos)]]
			}
			if got := routeSkipping(r, k, skip); got != want {
				t.Fatalf("step %d: key %q skipping %v routes to %q, model %q", step, k, skip, got, want)
			}
		}
	}
}
