package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roadtrojan/internal/eval"
	"roadtrojan/internal/metrics"
)

// stepClock is the injected coalescer clock: After hands out channels that
// fire only when the test calls fire(), so deadline flushes happen on demand
// (mirroring the fabric test clock).
type stepClock struct {
	mu    sync.Mutex
	chans []chan time.Time
}

func (c *stepClock) Now() time.Time { return time.Unix(0, 0) }

func (c *stepClock) After(time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	c.chans = append(c.chans, ch)
	return ch
}

// fire releases every pending After channel.
func (c *stepClock) fire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range c.chans {
		select {
		case ch <- time.Unix(0, 1):
		default:
		}
	}
	c.chans = nil
}

// batchExecutor builds an executor around a stub job that counts executions,
// so tests can assert how many evaluations actually ran versus being deduped
// or served from cache.
func batchExecutor(t *testing.T, cfg Config, ran *atomic.Int64) *Executor {
	t.Helper()
	if cfg.Job == nil {
		cfg.Job = func(j eval.Job) (eval.Detail, error) {
			if ran != nil {
				ran.Add(1)
			}
			return eval.Detail{Score: metrics.Score{PWC: float64(j.Cond.Seed)}}, nil
		}
	}
	e := NewExecutor(testDetector(t), cfg, nil)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = e.Close(ctx)
	})
	return e
}

// batchEvalReq builds a valid evaluate request whose cache key is determined
// by seed, so tests control grouping without touching patch payloads.
func batchEvalReq(seed int64) EvalRequest {
	return EvalRequest{Scene: "road", Challenge: "fix", Mode: "digital", Runs: 1, Seed: seed, Target: 2}
}

// TestCacheHitSkipsPatchDecode bounds what an Evaluate cache hit allocates.
// A hit answers from the key alone (7 allocations); decoding the patch
// again (base64 plus attack.DecodePatch) adds 47 and fails the bound.
func TestCacheHitSkipsPatchDecode(t *testing.T) {
	var ran atomic.Int64
	e := batchExecutor(t, Config{Workers: 1}, &ran)
	req := batchEvalReq(1)
	req.Patch, req.Target = encodePatchB64(t, testPatch(t)), 0
	ctx := context.Background()
	if _, err := e.Evaluate(ctx, req); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		var resp EvalResponse
		if resp, err = e.Evaluate(ctx, req); err == nil && !resp.Cached {
			err = errors.New("repeat was not a cache hit")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Fatalf("job ran %d times, want 1", ran.Load())
	}
	const bound = 16
	if allocs > bound {
		t.Errorf("cache hit allocates %.0f times, want at most %d: the patch decode is back on the hit path", allocs, bound)
	}
	t.Logf("cache hit: %.0f allocations", allocs)
}

// evaluateConcurrently fires one goroutine per request and collects responses
// in request order.
func evaluateConcurrently(t *testing.T, e *Executor, reqs []EvalRequest) []EvalResponse {
	t.Helper()
	resps := make([]EvalResponse, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req EvalRequest) {
			defer wg.Done()
			resps[i], errs[i] = e.Evaluate(context.Background(), req)
		}(i, req)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	return resps
}

// timers reports how many deadline timers the coalescers have started.
func (c *stepClock) timers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.chans)
}

// TestBatchSizeFlush: four concurrent unique requests flush on size alone,
// without the deadline clock ever firing — as one batch at BatchSize 4, and
// one flush per request, with no deadline timer at all, at BatchSize 0 and 1.
func TestBatchSizeFlush(t *testing.T) {
	for _, tc := range []struct{ size, flushes, timers int }{{0, 4, 0}, {1, 4, 0}, {4, 1, 1}} {
		t.Run("size="+strconv.Itoa(tc.size), func(t *testing.T) {
			var ran atomic.Int64
			clk := &stepClock{}
			e := batchExecutor(t, Config{Workers: 1, QueueSize: 16, BatchSize: tc.size, Clock: clk}, &ran)

			reqs := make([]EvalRequest, 4)
			for i := range reqs {
				reqs[i] = batchEvalReq(int64(100 + i))
			}
			resps := evaluateConcurrently(t, e, reqs)
			for i, r := range resps {
				if r.PWC != float64(reqs[i].Seed) {
					t.Errorf("request %d: PWC %v, want %v (stub echoes seed)", i, r.PWC, reqs[i].Seed)
				}
				if r.Cached {
					t.Errorf("request %d unexpectedly cached", i)
				}
			}
			if got := ran.Load(); got != 4 {
				t.Errorf("stub ran %d times, want 4 (all keys unique)", got)
			}
			if got := e.flushCounter(flushSize).Value(); got != int64(tc.flushes) {
				t.Errorf("size flushes = %d, want %d", got, tc.flushes)
			}
			if got := e.flushCounter(flushDeadline).Value(); got != 0 {
				t.Errorf("deadline flushes = %d, want 0 (clock never fired)", got)
			}
			if got := clk.timers(); got != tc.timers {
				t.Errorf("deadline timers started = %d, want %d", got, tc.timers)
			}
		})
	}
}

// TestBatchDeadlineFlush: a partial batch sits parked until the injected
// clock fires the deadline, then flushes with reason "deadline".
func TestBatchDeadlineFlush(t *testing.T) {
	var ran atomic.Int64
	clk := &stepClock{}
	e := batchExecutor(t, Config{Workers: 1, QueueSize: 16, BatchSize: 8, Clock: clk}, &ran)

	done := make(chan struct{})
	go func() {
		defer close(done)
		evaluateConcurrently(t, e, []EvalRequest{batchEvalReq(1), batchEvalReq(2)})
	}()
	// The two requests are under the size threshold, so only the injected
	// deadline can flush them. Fire until they answer: the second request can
	// land just after a fire and start its own batch, needing one more.
	deadline := time.After(10 * time.Second)
	for {
		clk.fire()
		select {
		case <-done:
			if got := ran.Load(); got != 2 {
				t.Errorf("stub ran %d times, want 2", got)
			}
			if got := e.flushCounter(flushSize).Value(); got != 0 {
				t.Errorf("size flushes = %d, want 0 (batch never filled)", got)
			}
			if got := e.flushCounter(flushDeadline).Value(); got < 1 {
				t.Errorf("deadline flushes = %d, want >= 1", got)
			}
			return
		case <-time.After(2 * time.Millisecond):
		case <-deadline:
			t.Fatal("deadline flush never released the parked requests")
		}
	}
}

// TestBatchDedupeCollapsesDuplicateDigests: a full batch holding only two
// unique cache keys runs exactly two jobs; the other six requests ride along
// and every waiter still gets its answer.
func TestBatchDedupeCollapsesDuplicateDigests(t *testing.T) {
	var ran atomic.Int64
	clk := &stepClock{}
	e := batchExecutor(t, Config{Workers: 2, QueueSize: 16, BatchSize: 8, Clock: clk}, &ran)

	reqs := make([]EvalRequest, 8)
	for i := range reqs {
		reqs[i] = batchEvalReq(int64(1 + i%2))
	}
	resps := evaluateConcurrently(t, e, reqs)
	for i, r := range resps {
		if r.PWC != float64(reqs[i].Seed) {
			t.Errorf("request %d: PWC %v, want %v", i, r.PWC, reqs[i].Seed)
		}
	}
	if got := ran.Load(); got != 2 {
		t.Errorf("stub ran %d times, want 2 (6 duplicates collapsed)", got)
	}
	if got := e.batchDedup.Value(); got != 6 {
		t.Errorf("serve_batch_dedup_total = %d, want 6", got)
	}
	if got := e.cacheMisses.Value(); got != 2 {
		t.Errorf("cache misses = %d, want 2 (one per unique key)", got)
	}
}

// TestCachedDigestShortCircuitsCoalescer is the hit-ratio test: once a
// digest's result is cached, batched requests for it answer at the front
// door without re-entering the coalescer or occupying a batch slot.
func TestCachedDigestShortCircuitsCoalescer(t *testing.T) {
	var ran atomic.Int64
	clk := &stepClock{}
	e := batchExecutor(t, Config{Workers: 1, QueueSize: 16, BatchSize: 2, Clock: clk}, &ran)

	// Prime: two concurrent requests for the same key fill one batch (size
	// flush), run once, and fill the cache once.
	evaluateConcurrently(t, e, []EvalRequest{batchEvalReq(7), batchEvalReq(7)})
	if got := ran.Load(); got != 1 {
		t.Fatalf("priming ran %d jobs, want 1", got)
	}
	flushesBefore := e.flushCounter(flushSize).Value()

	// Four more requests for the cached key: all short-circuit. Odd count on
	// purpose — if they re-entered the BatchSize=2 coalescer, one would park
	// until the (never-firing) deadline and this test would hang.
	resps := evaluateConcurrently(t, e, []EvalRequest{
		batchEvalReq(7), batchEvalReq(7), batchEvalReq(7), batchEvalReq(7), batchEvalReq(7),
	})
	for i, r := range resps {
		if !r.Cached {
			t.Errorf("request %d: Cached=false, want true", i)
		}
		if r.PWC != 7 {
			t.Errorf("request %d: PWC %v, want 7", i, r.PWC)
		}
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("stub ran %d times, want still 1", got)
	}
	if got := e.flushCounter(flushSize).Value(); got != flushesBefore {
		t.Errorf("size flushes grew %d -> %d; cached requests must not re-enter the coalescer", flushesBefore, got)
	}
	hits, misses := e.cacheHits.Value(), e.cacheMisses.Value()
	if hits != 5 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 5/1", hits, misses)
	}

	// The scrape-time gauges agree with the counters.
	rec := httptest.NewRecorder()
	e.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "serve_cache_hit_ratio 0.833") {
		t.Errorf("metrics missing serve_cache_hit_ratio ~5/6:\n%s", grepMetric(body, "serve_cache_hit_ratio"))
	}
	if !strings.Contains(body, "serve_cache_bytes 128") {
		t.Errorf("metrics missing serve_cache_bytes for one zero-run detail:\n%s", grepMetric(body, "serve_cache_bytes"))
	}
}

// grepMetric pulls the lines for one metric out of an exposition body.
func grepMetric(body, name string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestDrainFlushRunsParkedRequests: Close while a partial batch is parked
// still answers those waiters — the drain flush dispatches before the job
// queue shuts.
func TestDrainFlushRunsParkedRequests(t *testing.T) {
	var ran atomic.Int64
	clk := &stepClock{}
	e := batchExecutor(t, Config{Workers: 1, QueueSize: 16, BatchSize: 8, Clock: clk}, &ran)

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Evaluate(context.Background(), batchEvalReq(int64(50+i)))
		}(i)
	}
	// Give the parks time to land in the run loop's pending batch; the batch
	// stays under size 8 and the injected clock never fires, so only the
	// drain flush can release them.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("parked request %d failed: %v", i, err)
		}
	}
	if got := ran.Load(); got != 3 {
		t.Errorf("stub ran %d times, want 3 (drain flush ran the parked batch)", got)
	}
	if got := e.flushCounter(flushDrain).Value(); got != 1 {
		t.Errorf("drain flushes = %d, want 1", got)
	}
	if _, err := e.Evaluate(context.Background(), batchEvalReq(99)); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-close evaluate error = %v, want ErrShuttingDown", err)
	}
}

// waitUntil polls cond until it holds. The deadline only bounds a hang; no
// outcome depends on how long the wait takes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupContextFollowsWaiters pins the group-context rule without timing:
// a deduped group where one of two waiters cancels still runs once and
// answers the other, a group whose waiters all cancel is skipped at dequeue,
// and a group the full queue refuses counts one rejection per waiter. Only
// size flushes happen (the injected clock never fires), and the single
// worker stays pinned until every group is queued and every cancel is in.
func TestGroupContextFollowsWaiters(t *testing.T) {
	var ran atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	e := batchExecutor(t, Config{Workers: 1, QueueSize: 2, BatchSize: 2, Clock: &stepClock{},
		Job: func(j eval.Job) (eval.Detail, error) {
			if ran.Add(1) == 1 {
				started <- struct{}{}
				<-release
			}
			return eval.Detail{Score: metrics.Score{PWC: float64(j.Cond.Seed)}}, nil
		}}, nil)
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()

	bg := context.Background()
	evaluate := func(ctx context.Context, seed int64) <-chan reply {
		ch := make(chan reply, 1)
		go func() {
			resp, err := e.Evaluate(ctx, batchEvalReq(seed))
			ch <- reply{v: resp, err: err}
		}()
		return ch
	}
	wantCanceled := func(name string, ch <-chan reply) {
		t.Helper()
		if r := <-ch; !errors.Is(r.err, context.Canceled) {
			t.Fatalf("%s: error %v, want context.Canceled", name, r.err)
		}
	}

	// Pin the worker with a group of two seed-1 requests.
	pinned := []<-chan reply{evaluate(bg, 1), evaluate(bg, 1)}
	<-started

	// Seed 2: a deduped group; waiter a cancels, waiter b keeps waiting.
	ctxA, cancelA := context.WithCancel(bg)
	defer cancelA()
	a, b := evaluate(ctxA, 2), evaluate(bg, 2)
	waitUntil(t, "the seed-2 group to queue", func() bool { return e.QueueDepth() == 1 })
	cancelA()
	wantCanceled("seed-2 waiter a", a)

	// Seed 3: both waiters cancel.
	ctxC, cancelC := context.WithCancel(bg)
	defer cancelC()
	ctxD, cancelD := context.WithCancel(bg)
	defer cancelD()
	c, d := evaluate(ctxC, 3), evaluate(ctxD, 3)
	waitUntil(t, "the seed-3 group to queue", func() bool { return e.QueueDepth() == 2 })
	cancelC()
	cancelD()
	wantCanceled("seed-3 waiter c", c)
	wantCanceled("seed-3 waiter d", d)

	// Seed 4: the queue is full, so the whole group is refused.
	rejectedBefore := e.rejected.Value()
	for _, ch := range []<-chan reply{evaluate(bg, 4), evaluate(bg, 4)} {
		if r := <-ch; !errors.Is(r.err, ErrQueueFull) {
			t.Fatalf("seed-4 waiter: error %v, want ErrQueueFull", r.err)
		}
	}
	if got := e.rejected.Value() - rejectedBefore; got != 2 {
		t.Errorf("serve_rejected_total grew by %d for a refused group of two, want 2", got)
	}

	releaseAll()
	for _, ch := range pinned {
		if r := <-ch; r.err != nil {
			t.Fatalf("pinned request: %v", r.err)
		}
	}
	if r := <-b; r.err != nil || r.v.(EvalResponse).PWC != 2 {
		t.Fatalf("seed-2 waiter b: error %v, response %+v; want PWC 2", r.err, r.v)
	}
	// Close waits for the worker to empty the queue, so the seed-3 task has
	// been dequeued (and skipped) before the count is read.
	if err := e.Close(bg); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 2 {
		t.Errorf("stub ran %d times, want 2 (seed 1 and seed 2; the all-cancelled seed-3 group must be skipped)", got)
	}
}

// TestCoalescerHammer drives the batched path hard under the race detector:
// caching disabled so every request runs the full park → flush → dispatch →
// fan-out cycle, wall-clock deadline so size and deadline flushes interleave.
func TestCoalescerHammer(t *testing.T) {
	var ran atomic.Int64
	e := batchExecutor(t, Config{
		Workers: 2, QueueSize: 64, CacheSize: -1,
		BatchSize: 3, BatchDeadline: 200 * time.Microsecond,
	}, &ran)

	const clients, rounds = 8, 25
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < rounds; i++ {
				seed := int64(1 + rng.Intn(5))
				r, err := e.Evaluate(context.Background(), batchEvalReq(seed))
				if err != nil || r.PWC != float64(seed) {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d hammer requests failed or answered wrong", n)
	}
	total := clients * rounds
	if got := ran.Load() + e.batchDedup.Value(); got != int64(total) {
		t.Errorf("ran(%d) + deduped(%d) = %d, want %d: every request runs or collapses",
			ran.Load(), e.batchDedup.Value(), got, total)
	}
	flushes := e.flushCounter(flushSize).Value() + e.flushCounter(flushDeadline).Value()
	if flushes == 0 {
		t.Error("no flushes recorded")
	}
}

// TestCoalescerModel drives the coalescer's step with seeded random
// arrivals, deadline fires and a final close, next to a model of the
// policy. After every step the coalescer must pass check(); over the run,
// each item flushes exactly once and in arrival order, each flush carries
// the reason the model expects, and the deadline timer is armed only at a
// batch's first item.
func TestCoalescerModel(t *testing.T) {
	type flushed struct {
		items  []int
		reason string
	}
	for _, size := range []int{1, 2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(53 + size)))
		clk := &stepClock{}
		var got []flushed
		c := &coalescer[int]{size: size, wait: time.Millisecond, clock: clk,
			flush: func(batch []int, reason string) {
				got = append(got, flushed{append([]int(nil), batch...), reason})
			}}
		var want []flushed
		var pending []int
		arms, next := 0, 0
		for step := 0; step < 500; step++ {
			if c.timer != nil && rng.Intn(3) == 0 {
				c.step(flushDeadline, 0)
				want = append(want, flushed{pending, flushDeadline})
				pending = nil
			} else {
				c.step("", next)
				pending = append(pending, next)
				next++
				if len(pending) == size {
					want = append(want, flushed{pending, flushSize})
					pending = nil
				} else if len(pending) == 1 {
					arms++
				}
			}
			if err := c.check(); err != nil {
				t.Fatalf("size %d step %d: %v", size, step, err)
			}
			if len(clk.chans) != arms {
				t.Fatalf("size %d step %d: timer armed %d times, want %d (once per batch's first item)", size, step, len(clk.chans), arms)
			}
		}
		c.step(flushDrain, 0)
		if len(pending) > 0 {
			want = append(want, flushed{pending, flushDrain})
		}
		if err := c.check(); err != nil {
			t.Fatalf("size %d after close: %v", size, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("size %d: flushes %v, model %v", size, got, want)
		}
		var order []int
		for _, f := range got {
			order = append(order, f.items...)
		}
		for i, it := range order {
			if it != i {
				t.Fatalf("size %d: item %d flushed at position %d; every item flushes once, in arrival order", size, it, i)
			}
		}
		if len(order) != next {
			t.Fatalf("size %d: %d items flushed, %d arrived", size, len(order), next)
		}
	}
}

// TestDetectBatchedMatchesSingle: concurrent detect requests through the
// coalescer's stacked batched forward answer identically to the one-at-a-time
// path.
func TestDetectBatchedMatchesSingle(t *testing.T) {
	det := testDetector(t)
	single := NewExecutor(det, Config{Workers: 1, QueueSize: 8}, nil)
	batched := NewExecutor(det, Config{
		Workers: 1, QueueSize: 16, BatchSize: 4, BatchDeadline: time.Millisecond,
	}, nil)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = single.Close(ctx)
		_ = batched.Close(ctx)
	})

	const h, w = 32, 32
	rng := rand.New(rand.NewSource(21))
	reqs := make([]DetectRequest, 4)
	for i := range reqs {
		img := make([]float64, 3*h*w)
		for j := range img {
			img[j] = rng.Float64()
		}
		reqs[i] = DetectRequest{Image: img, Height: h, Width: w}
	}

	want := make([]DetectResponse, len(reqs))
	for i, req := range reqs {
		r, err := single.Detect(context.Background(), req)
		if err != nil {
			t.Fatalf("single detect %d: %v", i, err)
		}
		want[i] = r
	}

	got := make([]DetectResponse, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req DetectRequest) {
			defer wg.Done()
			got[i], errs[i] = batched.Detect(context.Background(), req)
		}(i, req)
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("batched detect %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("batched detect %d differs from single-request path", i)
		}
	}
}

// TestBatchedServerMatchesSingleRequestBytes: with batching enabled, a lone
// HTTP request gets byte-identical JSON to a pre-batching server — the
// fused + batched serving path changes throughput, never answers.
func TestBatchedServerMatchesSingleRequestBytes(t *testing.T) {
	det := testDetector(t)
	_, plainTS := startServer(t, det, Config{Workers: 1, QueueSize: 8})
	_, batchTS := startServer(t, det, Config{
		Workers: 1, QueueSize: 8, BatchSize: 4, BatchDeadline: time.Millisecond,
	})

	req := EvalRequest{
		Patch: encodePatchB64(t, testPatch(t)),
		Scene: "road", Challenge: "fix", Mode: "digital", Runs: 1, Seed: 303,
	}
	plainResp, plainBody := postJSON(t, plainTS.URL+"/v1/evaluate", req)
	batchResp, batchBody := postJSON(t, batchTS.URL+"/v1/evaluate", req)
	if plainResp.StatusCode != 200 || batchResp.StatusCode != 200 {
		t.Fatalf("status %d / %d, want 200", plainResp.StatusCode, batchResp.StatusCode)
	}
	if string(plainBody) != string(batchBody) {
		t.Errorf("batched server answered different bytes for single-request traffic:\nplain: %s\nbatch: %s",
			plainBody, batchBody)
	}

	scenes := serialScenes()
	want := serialEvaluate(t, det, scenes, req)
	var got EvalResponse
	if err := json.Unmarshal(batchBody, &got); err != nil {
		t.Fatal(err)
	}
	got.Cached = false
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batched response diverges from serial evaluation:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestLRUCacheByteBudget covers the byte-accounted LRU: eviction on the byte
// budget, size refresh on overwrite, and the oversized-entry guard.
func TestLRUCacheByteBudget(t *testing.T) {
	c := newLRUCache(10, 100)
	c.put("a", 1, 40)
	c.put("b", 2, 40)
	if got := c.bytes(); got != 80 {
		t.Fatalf("bytes = %d, want 80", got)
	}
	c.put("c", 3, 40) // 120 > 100: evict "a"
	if _, ok := c.get("a"); ok {
		t.Error("oldest entry survived a byte-budget eviction")
	}
	if got := c.bytes(); got != 80 {
		t.Errorf("bytes after eviction = %d, want 80", got)
	}
	if got := c.len(); got != 2 {
		t.Errorf("len = %d, want 2", got)
	}

	c.put("b", 22, 10) // refresh shrinks accounting
	if got := c.bytes(); got != 50 {
		t.Errorf("bytes after refresh = %d, want 50", got)
	}
	if v, ok := c.get("b"); !ok || v.(int) != 22 {
		t.Errorf("refresh lost the new value: %v %v", v, ok)
	}

	c.put("huge", 4, 200) // bigger than the whole budget: never cached
	if _, ok := c.get("huge"); ok {
		t.Error("oversized entry was cached")
	}
	if got := c.len(); got != 2 {
		t.Errorf("oversized put disturbed the cache: len = %d, want 2", got)
	}

	// Negative byte budget means entries-only accounting (the legacy knob).
	old := newLRUCache(2, -1)
	old.put("x", 1, 1<<40)
	old.put("y", 2, 1<<40)
	if _, ok := old.get("x"); !ok {
		t.Error("entries-only cache evicted within capacity")
	}
	// The get above touched "x", so "y" is now least recently used.
	old.put("z", 3, 1)
	if got := old.len(); got != 2 {
		t.Errorf("entries-only cache holds %d entries, want 2", got)
	}
	if _, ok := old.get("y"); ok {
		t.Error("entries-only cache kept its LRU entry past maxEntries")
	}
}

// TestDetailBytesScalesWithRuns: the size estimator grows with payload so the
// byte budget actually tracks memory.
func TestDetailBytesScalesWithRuns(t *testing.T) {
	small := eval.Detail{Runs: [][]metrics.FrameResult{make([]metrics.FrameResult, 2)}}
	big := eval.Detail{Runs: [][]metrics.FrameResult{
		make([]metrics.FrameResult, 30), make([]metrics.FrameResult, 30), make([]metrics.FrameResult, 30),
	}}
	if detailBytes(small) <= detailBytes(eval.Detail{}) {
		t.Error("detailBytes ignores runs")
	}
	if detailBytes(big) <= detailBytes(small) {
		t.Error("detailBytes does not scale with frames")
	}
}

// TestLRUCacheModel drives the cache with seeded random gets and puts,
// oversized, negative-size and refreshing puts included, next to a plain
// slice model of the same policy. After every operation the cache must pass
// check() and agree with the model on the result, the entry count and the
// byte total.
func TestLRUCacheModel(t *testing.T) {
	type entry struct {
		key  string
		val  int
		size int64
	}
	sizes := []int64{-7, 0, 5, 20, 45, 90, 150}
	for _, budget := range []struct {
		entries int
		bytes   int64
	}{{4, 100}, {3, -1}, {6, 0}, {0, 100}, {8, 60}} {
		rng := rand.New(rand.NewSource(int64(31 + budget.entries)))
		c := newLRUCache(budget.entries, budget.bytes)
		var model []entry // most recently used first
		find := func(key string) int {
			for i, e := range model {
				if e.key == key {
					return i
				}
			}
			return -1
		}
		modelBytes := func() int64 {
			var n int64
			for _, e := range model {
				n += e.size
			}
			return n
		}
		toFront := func(i int) {
			e := model[i]
			model = append(model[:i], model[i+1:]...)
			model = append([]entry{e}, model...)
		}
		for op := 0; op < 2000; op++ {
			key := strconv.Itoa(rng.Intn(10))
			if rng.Intn(2) == 0 {
				v, ok := c.get(key)
				i := find(key)
				if ok != (i >= 0) || (ok && v.(int) != model[i].val) {
					t.Fatalf("budget %+v op %d: get(%s) = %v, %v; model has index %d", budget, op, key, v, ok, i)
				}
				if i >= 0 {
					toFront(i)
				}
			} else {
				val, size := op, sizes[rng.Intn(len(sizes))]
				c.put(key, val, size)
				size = max(size, 0)
				if budget.entries > 0 && (budget.bytes <= 0 || size <= budget.bytes) {
					if i := find(key); i >= 0 {
						model[i].val, model[i].size = val, size
						toFront(i)
					} else {
						model = append([]entry{{key, val, size}}, model...)
					}
					for len(model) > budget.entries || (budget.bytes > 0 && modelBytes() > budget.bytes) {
						model = model[:len(model)-1]
					}
				}
			}
			if err := c.check(); err != nil {
				t.Fatalf("budget %+v op %d: %v", budget, op, err)
			}
			if c.len() != len(model) || c.bytes() != modelBytes() {
				t.Fatalf("budget %+v op %d: cache holds %d entries / %d bytes, model %d / %d",
					budget, op, c.len(), c.bytes(), len(model), modelBytes())
			}
		}
	}
}
