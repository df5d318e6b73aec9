package serve

import "time"

// Clock abstracts time for the serving tier: the micro-batching
// coalescer's deadline flush, stage and edge-request latency, and the
// fabric gateway's heartbeat staleness, backoff and breaker cooldown, so
// all of them are testable with injected time. Production uses WallClock;
// the coalescer hammer tests inject a fake whose After channel fires on
// demand.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// WallClock returns the real-time clock.
func WallClock() Clock { return wallClock{} }
