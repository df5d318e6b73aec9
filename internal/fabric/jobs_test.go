package fabric

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestJobTableModel drives the async job table with seeded addJob calls
// and status changes next to a slice model of its eviction rule: a full
// table evicts its oldest terminal job, and a table full of incomplete
// jobs refuses a new one. After every step the table must pass
// checkJobs() and list the model's ids and statuses in order.
func TestJobTableModel(t *testing.T) {
	const size = 5
	g := newTestGateway(t, newFakeClock(), nil, func(cfg *GatewayConfig) { cfg.JobTableSize = size })
	rng := rand.New(rand.NewSource(44))
	type entry struct{ id, status string }
	var model []entry
	terminal := func(s string) bool { return s == "done" || s == "failed" }
	statuses := []string{"running", "done", "failed"}
	refused, evicted := 0, 0
	for step := 0; step < 3000; step++ {
		if len(model) == 0 || rng.Intn(3) == 0 {
			id := fmt.Sprintf("j%06d", step)
			wantOK := true
			if len(model) >= size {
				wantOK = false
				for i, e := range model {
					if terminal(e.status) {
						model = append(model[:i], model[i+1:]...)
						wantOK = true
						evicted++
						break
					}
				}
			}
			if ok := g.addJob(&asyncJob{id: id, status: "pending"}); ok != wantOK {
				t.Fatalf("step %d: addJob = %v, model %v", step, ok, wantOK)
			}
			if wantOK {
				model = append(model, entry{id, "pending"})
			} else {
				refused++
			}
		} else {
			i := rng.Intn(len(model))
			status := statuses[rng.Intn(len(statuses))]
			if rng.Intn(4) == 0 {
				status = "pending" // a replayed job starts over
			}
			g.getJob(model[i].id).set(status, nil, "")
			model[i].status = status
		}
		if err := g.checkJobs(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got, want := jobTableView(g), fmt.Sprint(model); got != want {
			t.Fatalf("step %d: table %s, model %s", step, got, want)
		}
	}
	if refused < 10 || evicted < 100 {
		t.Fatalf("%d refusals, %d evictions: the run is too short to exercise the table", refused, evicted)
	}
}

// jobTableView renders the table in the model's format.
func jobTableView(g *Gateway) string {
	g.jobsMu.Lock()
	defer g.jobsMu.Unlock()
	type entry struct{ id, status string }
	view := make([]entry, len(g.jobOrder))
	for i, id := range g.jobOrder {
		status, _, _ := g.jobTable[id].view()
		view[i] = entry{id, status}
	}
	return fmt.Sprint(view)
}

// TestCheckJobsCatchesCorruption: each invariant checkJobs guards fails on
// a table broken that one way.
func TestCheckJobsCatchesCorruption(t *testing.T) {
	for name, corrupt := range map[string]func(g *Gateway){
		"order lacks id":  func(g *Gateway) { g.jobOrder = g.jobOrder[1:] },
		"duplicate id":    func(g *Gateway) { g.jobOrder[1] = g.jobOrder[0] },
		"table lacks id":  func(g *Gateway) { g.jobTable["x"] = g.jobTable["a"]; delete(g.jobTable, "a") },
		"key mismatch":    func(g *Gateway) { g.jobTable["a"].id = "b" },
		"unknown status":  func(g *Gateway) { g.jobTable["b"].status = "lost" },
		"over table size": func(g *Gateway) { g.cfg.JobTableSize = 1 },
	} {
		g := newTestGateway(t, newFakeClock(), nil, func(cfg *GatewayConfig) { cfg.JobTableSize = 4 })
		for _, id := range []string{"a", "b"} {
			g.addJob(&asyncJob{id: id, status: "pending"})
		}
		if err := g.checkJobs(); err != nil {
			t.Fatalf("%s: intact table: %v", name, err)
		}
		corrupt(g)
		if err := g.checkJobs(); err == nil {
			t.Errorf("%s: checkJobs passed a corrupt table", name)
		}
	}
}
