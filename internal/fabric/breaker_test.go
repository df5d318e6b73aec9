package fabric

import (
	"math/rand"
	"testing"
	"time"

	"roadtrojan/internal/telemetry"
)

// TestBreakerModel drives a breaker on the fake clock with seeded clock
// advances and ready, success and failure calls, next to a model of its
// state machine. Like the backend's dial loop, it reports an outcome only
// while the breaker is not open. After every step the breaker must pass
// check(), match the model's state and ready() answer, and have counted
// as many opens as the model made transitions into open.
func TestBreakerModel(t *testing.T) {
	const threshold, cooldown = 3, 5 * time.Second
	clock := newFakeClock()
	opens := telemetry.NewRegistry().Counter("opens_total", "breaker opens", nil)
	br := newBreaker(threshold, cooldown, clock, opens)
	rng := rand.New(rand.NewSource(43))

	state, failures, wantOpens := breakerClosed, 0, int64(0)
	var openedAt time.Time
	visited := map[int]bool{}
	for step := 0; step < 2000; step++ {
		op := rng.Intn(4)
		if op >= 2 && state == breakerOpen {
			op = 1 // no attempt, so no outcome, without asking ready() first
		}
		switch op {
		case 0:
			clock.advance(time.Duration(rng.Intn(3000)) * time.Millisecond)
		case 1:
			ok, wait := br.ready()
			wantOK, wantWait := true, time.Duration(0)
			if state == breakerOpen {
				if remaining := cooldown - clock.Now().Sub(openedAt); remaining > 0 {
					wantOK, wantWait = false, remaining
				} else {
					state = breakerHalfOpen
				}
			}
			if ok != wantOK || wait != wantWait {
				t.Fatalf("step %d: ready() = %v, %v; model %v, %v", step, ok, wait, wantOK, wantWait)
			}
		case 2:
			br.success()
			state, failures = breakerClosed, 0
		case 3:
			br.failure()
			if failures++; state == breakerHalfOpen || failures >= threshold {
				state, failures, openedAt = breakerOpen, 0, clock.Now()
				wantOpens++
			}
		}
		if err := br.check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got := int(br.stateValue()); got != state {
			t.Fatalf("step %d: state %d, model %d", step, got, state)
		}
		if got := opens.Value(); got != wantOpens {
			t.Fatalf("step %d: %d opens counted, model %d", step, got, wantOpens)
		}
		visited[state] = true
	}
	if len(visited) != 3 || wantOpens < 10 {
		t.Fatalf("model visited states %v with %d opens; the run is too short to exercise the breaker", visited, wantOpens)
	}
}
