package fabric

import (
	"fmt"
	"sync"
	"time"

	"roadtrojan/internal/serve"
	"roadtrojan/internal/telemetry"
)

// Breaker states, exported through the fabric_gateway_breaker_state gauge.
const (
	breakerClosed   = 0 // normal operation
	breakerOpen     = 1 // too many consecutive failures; dialing suppressed
	breakerHalfOpen = 2 // cooldown elapsed; one probe connection in flight
)

// breaker is a per-backend circuit breaker guarding the gateway's dial and
// handshake path. It replaces blind redial: after Threshold consecutive
// transport failures (dial refused, first Health frame never arrived,
// connection death) the breaker opens and the backend stops burning dial
// attempts on a peer that is clearly down. Once Cooldown elapses — measured
// on the injected serve.Clock so chaos tests can fast-forward it — a
// single half-open probe is allowed; a completed handshake closes the
// breaker again, any failure snaps it back open for a fresh cooldown.
type breaker struct {
	threshold int
	cooldown  time.Duration
	clock     serve.Clock
	opens     *telemetry.Counter

	mu       sync.Mutex
	state    int
	failures int
	openedAt time.Time
}

func newBreaker(threshold int, cooldown time.Duration, clock serve.Clock, opens *telemetry.Counter) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, clock: clock, opens: opens}
}

// ready reports whether a connection attempt is allowed now, transitioning
// an open breaker to half-open once the cooldown has elapsed. When the
// breaker is still open it returns how long to wait before asking again.
func (br *breaker) ready() (bool, time.Duration) {
	br.mu.Lock()
	defer br.mu.Unlock()
	if br.state != breakerOpen {
		return true, 0
	}
	remaining := br.cooldown - br.clock.Now().Sub(br.openedAt)
	if remaining <= 0 {
		br.state = breakerHalfOpen
		return true, 0
	}
	return false, remaining
}

// success records a completed handshake (the node's first Health frame
// arrived): the probe (or a regular attempt) proved the peer healthy, so
// the breaker closes fully.
func (br *breaker) success() {
	br.mu.Lock()
	br.state = breakerClosed
	br.failures = 0
	br.mu.Unlock()
}

// failure records one transport failure. A half-open probe failing, or the
// consecutive-failure count reaching the threshold, opens the breaker and
// restarts the cooldown.
func (br *breaker) failure() {
	br.mu.Lock()
	br.failures++
	if br.state == breakerHalfOpen || br.failures >= br.threshold {
		if br.state != breakerOpen {
			br.opens.Inc()
		}
		br.state = breakerOpen
		br.failures = 0
		br.openedAt = br.clock.Now()
	}
	br.mu.Unlock()
}

// stateValue returns the current state for the telemetry gauge.
func (br *breaker) stateValue() float64 {
	br.mu.Lock()
	defer br.mu.Unlock()
	return float64(br.state)
}

// check verifies the breaker's state machine: the state is one of the
// three constants, a closed breaker holds fewer failures than the
// threshold, and an open one holds none and knows when it opened. Tests
// run it after every call.
//
//rtlint:ignore deadcode invariant checker: tests run it after every step; the hot path has no hook
func (br *breaker) check() error {
	br.mu.Lock()
	defer br.mu.Unlock()
	switch br.state {
	case breakerClosed:
		if br.failures >= br.threshold {
			return fmt.Errorf("fabric: closed breaker holds %d failures, threshold %d", br.failures, br.threshold)
		}
	case breakerOpen:
		if br.failures != 0 {
			return fmt.Errorf("fabric: open breaker holds %d failures", br.failures)
		}
		if br.openedAt.IsZero() {
			return fmt.Errorf("fabric: open breaker has no opening time")
		}
	case breakerHalfOpen:
	default:
		return fmt.Errorf("fabric: breaker in unknown state %d", br.state)
	}
	return nil
}
