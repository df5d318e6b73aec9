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

// TestRingRebalanceBounded is the consistent-hashing contract: removing a
// node moves only the keys that node owned, and re-adding it restores the
// original assignment exactly (cache affinity survives a node bounce).
func TestRingRebalanceBounded(t *testing.T) {
	r := NewRing(0)
	for _, id := range []string{"n1", "n2", "n3"} {
		r.Add(id)
	}
	keys := ringKeys(2000)
	before := map[string]string{}
	perNode := map[string]int{}
	for _, k := range keys {
		before[k] = lookup(r, k)
		perNode[before[k]]++
	}
	for _, id := range []string{"n1", "n2", "n3"} {
		if perNode[id] == 0 {
			t.Fatalf("node %s owns no keys out of %d; distribution broken: %v", id, len(keys), perNode)
		}
	}

	r.Remove("n2")
	moved := 0
	for _, k := range keys {
		after := lookup(r, k)
		if after == "n2" {
			t.Fatalf("key %q still maps to removed node", k)
		}
		if before[k] != "n2" && after != before[k] {
			t.Fatalf("key %q moved from surviving node %q to %q on unrelated removal", k, before[k], after)
		}
		if before[k] == "n2" {
			moved++
		}
	}
	if moved != perNode["n2"] {
		t.Fatalf("moved %d keys, want exactly n2's %d", moved, perNode["n2"])
	}

	r.Add("n2")
	for _, k := range keys {
		if got := lookup(r, k); got != before[k] {
			t.Fatalf("key %q maps to %q after rejoin, originally %q", k, got, before[k])
		}
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
	r.Remove("ghost") // idempotent no-op
	r.Remove("solo")
	r.Remove("solo")
	if r.Len() != 0 {
		t.Fatalf("len after removal = %d", r.Len())
	}
}

// TestRingModel drives the ring with seeded random adds and removes,
// repeats included, next to a model that places every member's virtual
// nodes itself. After every step the ring must pass check(), list the
// model's members, and route each probe key to the owner of the first
// model position at or after the key's hash.
func TestRingModel(t *testing.T) {
	const replicas = 8
	rng := rand.New(rand.NewSource(41))
	r := NewRing(replicas)
	members := map[string]bool{}
	keys := ringKeys(32)
	for step := 0; step < 400; step++ {
		id := "n" + strconv.Itoa(rng.Intn(6))
		if rng.Intn(2) == 0 {
			r.Add(id)
			members[id] = true
		} else {
			r.Remove(id)
			delete(members, id)
		}
		if err := r.check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}

		owner := map[uint64]string{}
		var pos []uint64
		for m := range members {
			for i := 0; i < replicas; i++ {
				h := ringHash(m + "#" + strconv.Itoa(i))
				owner[h] = m
				pos = append(pos, h)
			}
		}
		sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
		if !reflect.DeepEqual(r.nodes, members) {
			t.Fatalf("step %d: nodes %v, model %v", step, r.nodes, members)
		}
		for _, k := range keys {
			want := ""
			if len(pos) > 0 {
				h := ringHash(k)
				i := sort.Search(len(pos), func(i int) bool { return pos[i] >= h })
				want = owner[pos[i%len(pos)]]
			}
			if got := lookup(r, k); got != want {
				t.Fatalf("step %d: lookup(%q) = %q, model %q", step, k, got, want)
			}
		}
	}
}
