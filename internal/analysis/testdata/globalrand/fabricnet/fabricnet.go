// Package fabric exercises the globalrand allowlist for the distributed
// eval tier: heartbeat staleness, dial backoff, and request latency are
// inherently wall-clock concerns, confined behind serve.Clock so the
// evaluation math underneath stays deterministic.
package fabric

import "time"

// LastSeenStale reads the wall clock to judge a heartbeat; fine here.
func LastSeenStale(lastSeen time.Time, timeout time.Duration) bool {
	return time.Since(lastSeen) > timeout
}

// DialBackoff waits out a reconnect delay on the real clock; also fine.
func DialBackoff(d time.Duration) time.Time {
	return <-time.After(d)
}
