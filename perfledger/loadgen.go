package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// openSenders is how many goroutines send an open-loop schedule: the
// reference host's core count, and enough for the two-camera rig's pairs.
const openSenders = 2

// keepBodies is how many leading responses a window keeps for the output
// checks.
const keepBodies = 8

// sample is one request as the client saw it.
type sample struct {
	idx     int           // index of the request in its window
	latency time.Duration // from the due time (open loop) or the send (closed loop)
	late    time.Duration // send time minus due time; 0 in a closed loop
	status  int
	body    []byte // kept for idx < keepBodies only
	err     error
}

func (s sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// newClient returns an HTTP client with at most conns connections, one per
// sender, so requests never queue inside the client.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// post sends one JSON body and returns the status and the full response.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// openLoop sends request i at start+due[i] from openSenders senders, whatever
// happened to earlier requests, and times each from its due time, so a
// stall also counts against the requests queued behind it. It returns the
// samples in completion order and the window's wall time (at least the
// schedule's span).
func openLoop(c *http.Client, url string, due []time.Duration, body func(i int) []byte) ([]sample, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	out := make([]sample, 0, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < openSenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				status, data, err := post(c, url, body(i))
				s := sample{idx: i, latency: time.Since(at), late: sent.Sub(at), status: status, err: err}
				if i < keepBodies {
					s.body = data
				}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if len(due) > 0 && elapsed < due[len(due)-1] {
		elapsed = due[len(due)-1]
	}
	return out, elapsed
}

// closedLoop runs clients that each send their next request as soon as the
// previous one returns, until d has elapsed. Request i uses body(i); n
// bounds the prepared bodies, and running out is an error because reusing a
// body would turn a cold request into a cache hit.
func closedLoop(c *http.Client, url string, clients, n int, body func(i int) []byte, d time.Duration) ([]sample, time.Duration, error) {
	var next atomic.Int64
	var exhausted atomic.Bool
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if i >= n {
					exhausted.Store(true)
					return
				}
				sent := time.Now()
				status, data, err := post(c, url, body(i))
				s := sample{idx: i, latency: time.Since(sent), status: status, err: err}
				if i < keepBodies {
					s.body = data
				}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if exhausted.Load() {
		return out, elapsed, fmt.Errorf("closed loop used all %d prepared request bodies before the window ended", n)
	}
	return out, elapsed, nil
}

// loadStats summarizes a window's samples.
type loadStats struct {
	ok      int
	latMs   []float64 // successful requests, ascending
	lateMs  []float64 // every request, ascending
	elapsed time.Duration
}

// summarize counts the window's requests into r (failures by cause) and
// returns the latency and lateness distributions.
func summarize(r *run, samples []sample, elapsed time.Duration) loadStats {
	st := loadStats{elapsed: elapsed}
	var lat, late []float64
	for _, s := range samples {
		r.attempted++
		late = append(late, ms(s.late))
		if !s.ok() {
			r.fail("request %d: status %d, error %v", s.idx, s.status, s.err)
			continue
		}
		st.ok++
		lat = append(lat, ms(s.latency))
	}
	st.latMs, st.lateMs = sorted(lat), sorted(late)
	return st
}

// throughput is successful requests per second of window.
func (st loadStats) throughput() float64 { return ratio(float64(st.ok), st.elapsed.Seconds()) }

// goodput is requests that succeeded within limit, per second of window.
func (st loadStats) goodput(limit time.Duration) float64 {
	n := 0
	for _, l := range st.latMs {
		if l <= ms(limit) {
			n++
		}
	}
	return ratio(float64(n), st.elapsed.Seconds())
}

// setClient records the client-side per-layer numbers of an untraced
// window. A tail the sample cannot support reads 0.
func (st loadStats) setClient(r *run, goodputLimit time.Duration, openLoop bool) {
	p90, _ := tailQuantile(st.latMs, 0.90)
	p99, _ := tailQuantile(st.latMs, 0.99)
	r.set("client.latency_p50_ms", quantile(st.latMs, 0.5))
	r.set("client.latency_p90_ms", p90)
	r.set("client.latency_p99_ms", p99)
	r.set("client.samples", float64(len(st.latMs)))
	if goodputLimit > 0 {
		r.set("client.goodput_per_s", st.goodput(goodputLimit))
	}
	if openLoop {
		late, ok := tailQuantile(st.lateMs, 0.99)
		if !ok {
			late = quantile(st.lateMs, 1)
		}
		r.set("loadgen.late_ms_p99", late)
		if late > 10 {
			r.logf("warning: load generator ran %.1f ms late at p99; the open-loop schedule did not hold", late)
		}
	}
}
