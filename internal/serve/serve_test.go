package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/eval"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/shapes"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

// testDetector builds a deterministic (untrained) victim — evaluation only
// needs a fixed function, not an accurate one.
func testDetector(t *testing.T) *yolo.Model {
	t.Helper()
	m := yolo.New(rand.New(rand.NewSource(11)), yolo.DefaultConfig())
	m.SetTraining(false)
	return m
}

// testPatch crafts an untrained monochrome patch with the base config.
func testPatch(t testing.TB) *attack.Patch {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	gray := tensor.New(1, 32, 32)
	for i := range gray.Data() {
		gray.Data()[i] = rng.Float64()
	}
	cfg := attack.DefaultConfig()
	return &attack.Patch{Gray: gray, Mask: shapes.Mask(cfg.Shape, 32, cfg.ShapeScale(), 0), Cfg: cfg}
}

func encodePatchB64(t testing.TB, p *attack.Patch) string {
	t.Helper()
	raw, err := attack.EncodePatch(p)
	if err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(raw)
}

func startServer(t *testing.T, det *yolo.Model, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(det, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// serialScenes rebuilds the exact locations the server evaluates on.
func serialScenes() map[string]attack.Scene {
	return map[string]attack.Scene{"road": eval.RoadScene(), "sim": eval.SimScene()}
}

// serialEvaluate runs the same job the server would, on a private replica.
func serialEvaluate(t *testing.T, det *yolo.Model, scenes map[string]attack.Scene,
	req EvalRequest) EvalResponse {
	t.Helper()
	p, target, err := req.normalize()
	if err != nil {
		t.Fatalf("normalize serial request: %v", err)
	}
	cond := eval.DefaultCondition()
	if req.Mode == "digital" {
		cond = eval.Digital()
	}
	cond.Runs = req.Runs
	cond.Seed = req.Seed
	replica := det.Clone()
	replica.SetTraining(false)
	d, err := eval.RunJob(eval.Job{
		Det: replica, Cam: scene.DefaultCamera(), Scene: scenes[req.Scene],
		Patch: p, Target: target, Ch: scene.Challenges(req.Challenge)[0], Cond: cond,
	})
	if err != nil {
		t.Fatalf("serial evaluate: %v", err)
	}
	return detailToResponse(d)
}

// requestsTotal sums serve_requests_total for one endpoint across status
// codes, also returning the per-code breakdown.
func requestsTotal(t *testing.T, metricsURL, endpoint string) (int, map[string]int) {
	t.Helper()
	resp, err := http.Get(metricsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`serve_requests_total\{code="(\d+)",endpoint="` + endpoint + `"\} (\d+)`)
	total := 0
	byCode := map[string]int{}
	for _, m := range re.FindAllStringSubmatch(buf.String(), -1) {
		n, _ := strconv.Atoi(m[2])
		total += n
		byCode[m[1]] += n
	}
	return total, byCode
}

// TestConcurrentEvaluateMatchesSerial is the tentpole acceptance test: the
// server answers ≥8 concurrent /v1/evaluate requests with results
// bit-identical to serial evaluation, and /metrics accounts for every one.
func TestConcurrentEvaluateMatchesSerial(t *testing.T) {
	det := testDetector(t)
	_, ts := startServer(t, det, Config{Workers: 4, QueueSize: 32})

	patchB64 := encodePatchB64(t, testPatch(t))
	reqs := make([]EvalRequest, 8)
	for i := range reqs {
		reqs[i] = EvalRequest{
			Scene: "road", Challenge: "fix", Mode: "digital",
			Runs: 1, Seed: int64(100 + i),
		}
		if i%2 == 0 {
			reqs[i].Patch = patchB64
		} else {
			reqs[i].Target = int(scene.Car)
		}
		if i == 7 {
			reqs[i].Scene = "sim"
		}
	}

	// Serial references first, on private replicas of the same detector.
	scenes := serialScenes()
	want := make([]EvalResponse, len(reqs))
	for i, r := range reqs {
		want[i] = serialEvaluate(t, det, scenes, r)
	}

	got := make([]EvalResponse, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/evaluate", reqs[i])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			if err := json.Unmarshal(body, &got[i]); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i := range reqs {
		got[i].Cached = false
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("request %d: concurrent result differs from serial:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	total, byCode := requestsTotal(t, ts.URL+"/metrics", "evaluate")
	if total != len(reqs) {
		t.Errorf("serve_requests_total{endpoint=evaluate} = %d (%v), want %d", total, byCode, len(reqs))
	}
	if byCode["200"] != len(reqs) {
		t.Errorf("code=200 count = %d, want %d", byCode["200"], len(reqs))
	}
}

// TestEvaluateCacheHit proves the LRU short-circuits a repeated request and
// returns the identical payload.
func TestEvaluateCacheHit(t *testing.T) {
	det := testDetector(t)
	s, ts := startServer(t, det, Config{Workers: 2})

	req := EvalRequest{Scene: "road", Challenge: "fix", Mode: "digital",
		Runs: 1, Seed: 42, Target: int(scene.Car)}

	_, body1 := postJSON(t, ts.URL+"/v1/evaluate", req)
	resp2, body2 := postJSON(t, ts.URL+"/v1/evaluate", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d: %s", resp2.StatusCode, body2)
	}
	var first, second EvalResponse
	if err := json.Unmarshal(body1, &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first response claims cached")
	}
	if !second.Cached {
		t.Error("second response not served from cache")
	}
	second.Cached = false
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached result differs:\n got %+v\nwant %+v", second, first)
	}
	if s.exec.cacheHits.Value() != 1 || s.exec.cacheMisses.Value() != 1 {
		t.Errorf("cache hit/miss = %d/%d, want 1/1", s.exec.cacheHits.Value(), s.exec.cacheMisses.Value())
	}
}

// TestQueueOverflowReturns429 fills the one-worker, one-slot queue with a
// blocked job and checks the spillover gets backpressure, not latency.
func TestQueueOverflowReturns429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	det := testDetector(t)
	_, ts := startServer(t, det, Config{
		Workers: 1, QueueSize: 1,
		Job: func(j eval.Job) (eval.Detail, error) {
			started <- struct{}{}
			<-release
			return eval.Detail{}, nil
		},
	})

	// First request occupies the worker.
	var wg sync.WaitGroup
	fire := func(seed int64, codes chan<- int) {
		defer wg.Done()
		resp, _ := postJSON(t, ts.URL+"/v1/evaluate", EvalRequest{
			Scene: "road", Challenge: "fix", Runs: 1, Seed: seed, Target: int(scene.Car)})
		codes <- resp.StatusCode
	}
	codes := make(chan int, 8)
	wg.Add(1)
	go fire(1, codes)
	<-started // worker is now busy

	// Seven more: one fits the queue slot, the other six must bounce with
	// 429 immediately (the two accepted requests are parked on release, so
	// the first six codes can only be rejections).
	for i := int64(2); i <= 8; i++ {
		wg.Add(1)
		go fire(i, codes)
	}
	counts := map[int]int{}
	for i := 0; i < 6; i++ {
		counts[<-codes]++
	}
	if counts[http.StatusTooManyRequests] != 6 {
		t.Errorf("status counts %v, want 6 rejections with 429", counts)
	}
	close(release)
	wg.Wait()
	counts[<-codes]++
	counts[<-codes]++
	if counts[http.StatusOK] != 2 {
		t.Errorf("status counts %v, want exactly 2 × 200 (worker + queued slot)", counts)
	}
}

// TestDetectEndpoint round-trips one rendered frame and compares against a
// direct forward pass on a replica.
func TestDetectEndpoint(t *testing.T) {
	det := testDetector(t)
	_, ts := startServer(t, det, Config{Workers: 2})

	frame := roadFrame(t)
	resp, body := postJSON(t, ts.URL+"/v1/detect", frameRequest(frame))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got DetectResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}

	replica := det.Clone()
	replica.SetTraining(false)
	batch := frame.Reshape(1, 3, frame.Dim(1), frame.Dim(2))
	want := toWireDetections(replica.DecodeSample(replica.Forward(batch), 0, yolo.DefaultDecode()))
	if len(want) == 0 {
		t.Log("untrained detector produced no detections; endpoint equality still checked")
	}
	if !reflect.DeepEqual(got.Detections, want) && !(len(got.Detections) == 0 && len(want) == 0) {
		t.Errorf("detections differ:\n got %+v\nwant %+v", got.Detections, want)
	}
}

// TestDetectTraceReadsRequestUnderSpan: a traced /v1/detect journals the
// body read and decode as a read_request child of the request span, ended
// before the detect_batched span begins.
func TestDetectTraceReadsRequestUnderSpan(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	tr := obs.New(j, obs.NewLogicalClock())
	tr.SetProcess("n0")
	s := New(testDetector(t), Config{Workers: 1, Trace: tr})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	raw, err := json.Marshal(frameRequest(roadFrame(t)))
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(raw)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.MergeTrace([]obs.ProcessJournal{{Proc: "n0", Records: recs}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Roots) != 1 || m.Roots[0].Name != "request" {
		t.Fatalf("want one request root, got %d roots", len(m.Roots))
	}
	var read, batched *obs.MergedSpan
	for _, c := range m.Roots[0].Children {
		switch c.Name {
		case "read_request":
			read = c
		case "detect_batched":
			batched = c
		}
	}
	if read == nil || batched == nil {
		t.Fatalf("request span lacks read_request or detect_batched:\n%s", buf.Bytes())
	}
	if read.Dur < 0 || read.End >= batched.Start {
		t.Errorf("read_request [%d,%d] (dur %d) does not end before detect_batched starts at %d",
			read.Start, read.End, read.Dur, batched.Start)
	}
}

// TestBadRequests exercises the validation surface.
func TestBadRequests(t *testing.T) {
	det := testDetector(t)
	_, ts := startServer(t, det, Config{Workers: 1})

	cases := []struct {
		name string
		req  EvalRequest
	}{
		{"unknown challenge", EvalRequest{Scene: "road", Challenge: "warp9", Target: int(scene.Car)}},
		{"unknown scene", EvalRequest{Scene: "moon", Challenge: "fix", Target: int(scene.Car)}},
		{"missing target without patch", EvalRequest{Scene: "road", Challenge: "fix"}},
		{"bad base64 patch", EvalRequest{Scene: "road", Challenge: "fix", Patch: "!!!"}},
		{"runs out of range", EvalRequest{Scene: "road", Challenge: "fix", Runs: 999, Target: int(scene.Car)}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, body)
		}
	}

	resp, _ := postJSON(t, ts.URL+"/v1/detect", DetectRequest{Image: []float64{1, 2}, Height: 4, Width: 4})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short image: status %d, want 400", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET evaluate: status %d, want 405", getResp.StatusCode)
	}
}

// paddedBody returns a JSON evaluate body of exactly n bytes.
func paddedBody(n int) []byte {
	return []byte(`{"patch":"` + strings.Repeat("A", n-len(`{"patch":""}`)) + `"}`)
}

// TestRequestBodyLimits: a body over its route's limit is a 413 too_large,
// whether its length is declared up front or found only while reading
// (length -1, as for a chunked upload); a body exactly at the limit is read
// and judged on its content. The detect limit is ~96 MiB, so only its
// declared-length refusal is exercised.
func TestRequestBodyLimits(t *testing.T) {
	s := New(testDetector(t), Config{Workers: 1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	h := s.Handler()
	cases := []struct {
		name, path string
		body       []byte
		length     int64
		want       int
	}{
		{"evaluate declared", "/v1/evaluate", paddedBody(MaxEvalBody + 1), MaxEvalBody + 1, http.StatusRequestEntityTooLarge},
		{"evaluate streamed", "/v1/evaluate", paddedBody(MaxEvalBody + 1), -1, http.StatusRequestEntityTooLarge},
		{"evaluate at limit", "/v1/evaluate", paddedBody(MaxEvalBody), -1, http.StatusBadRequest},
		{"detect declared", "/v1/detect", []byte(`{}`), maxDetectBody + 1, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body))
		r.ContentLength = tc.length
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		var e ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, w.Code, w.Body.Bytes(), tc.want)
		}
		if tc.want == http.StatusRequestEntityTooLarge && e.Code != CodeTooLarge {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, CodeTooLarge)
		}
	}
}

// TestDetectDeclaredLengthAllocatesOnArrival: a detect request declaring a
// body just under the ~96 MiB limit but sending two bytes allocates for
// what arrives, not for what was declared.
func TestDetectDeclaredLengthAllocatesOnArrival(t *testing.T) {
	s := New(testDetector(t), Config{Workers: 1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	h := s.Handler()
	r := httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(`{}`))
	r.ContentLength = maxDetectBody
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, r)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", w.Code, w.Body.Bytes())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*MaxEvalBody {
		t.Errorf("a 2-byte body declared at %d bytes allocated %d bytes", maxDetectBody, got)
	}
}

// TestDetectRejectsOversizedFrame: a frame whose declared size would wrap
// 3*Height*Width to the image length must be a 400, not a worker panic,
// both through Executor.Detect and through /v1/detect.
func TestDetectRejectsOversizedFrame(t *testing.T) {
	s, ts := startServer(t, testDetector(t), Config{Workers: 1})
	for _, req := range []DetectRequest{
		{Height: 1 << 32, Width: 1 << 32},
		{Height: 1 << 31, Width: 1 << 33},
		{Image: make([]float64, 3*(maxFrameSide+1)), Height: 1, Width: maxFrameSide + 1},
	} {
		_, err := s.Executor().Detect(context.Background(), req)
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("Detect %dx%d: err %v, want ErrBadRequest", req.Height, req.Width, err)
		}
		resp, body := postJSON(t, ts.URL+"/v1/detect", req)
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest {
			t.Errorf("/v1/detect %dx%d: status %d (%s), want 400 %s", req.Height, req.Width, resp.StatusCode, body, CodeBadRequest)
		}
	}
	var metrics strings.Builder
	if err := s.Metrics().WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), "\nserve_job_panics_total 0\n") {
		t.Errorf("serve_job_panics_total moved:\n%s", metrics.String())
	}
}

// TestJobPanicBecomes500 proves panic recovery keeps the worker alive.
func TestJobPanicBecomes500(t *testing.T) {
	det := testDetector(t)
	calls := 0
	var mu sync.Mutex
	_, ts := startServer(t, det, Config{
		Workers: 1,
		Job: func(j eval.Job) (eval.Detail, error) {
			mu.Lock()
			calls++
			first := calls == 1
			mu.Unlock()
			if first {
				panic("boom")
			}
			return eval.Detail{}, nil
		},
	})
	req := EvalRequest{Scene: "road", Challenge: "fix", Runs: 1, Seed: 1, Target: int(scene.Car)}
	resp, body := postJSON(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking job: status %d (%s), want 500", resp.StatusCode, body)
	}
	// The same worker must survive and serve the next request.
	req.Seed = 2
	resp, body = postJSON(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after panic: status %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestHealthz checks the liveness endpoint shape.
func TestHealthz(t *testing.T) {
	det := testDetector(t)
	_, ts := startServer(t, det, Config{Workers: 3, QueueSize: 5})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Errorf("status = %v", h["status"])
	}
	if h["workers"] != float64(3) || h["queue_capacity"] != float64(5) {
		t.Errorf("healthz = %v", h)
	}
}

// TestShutdownDrains proves graceful drain: in-flight jobs finish, new
// submissions are refused with 503.
func TestShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	det := testDetector(t)
	s := New(det, Config{
		Workers: 1, QueueSize: 4,
		Job: func(j eval.Job) (eval.Detail, error) {
			started <- struct{}{}
			<-release
			return eval.Detail{}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var inflightCode int
	var inflightBody []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", EvalRequest{
			Scene: "road", Challenge: "fix", Runs: 1, Seed: 9, Target: int(scene.Car)})
		inflightCode, inflightBody = resp.StatusCode, body
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Let the drain flag settle, then release the worker.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if inflightCode != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d (%s), want 200", inflightCode, inflightBody)
	}

	resp, _ := postJSON(t, ts.URL+"/v1/evaluate", EvalRequest{
		Scene: "road", Challenge: "fix", Runs: 1, Seed: 10, Target: int(scene.Car)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown request: status %d, want 503", resp.StatusCode)
	}
}

// TestPatchWireRoundTrip sanity-checks the reuse of the attack (de)serializer
// as the wire format.
func TestPatchWireRoundTrip(t *testing.T) {
	p := testPatch(t)
	raw, err := attack.EncodePatch(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := attack.DecodePatch(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Cfg, q.Cfg) {
		t.Errorf("config round trip: %+v != %+v", q.Cfg, p.Cfg)
	}
	if !reflect.DeepEqual(p.Gray.Data(), q.Gray.Data()) || !reflect.DeepEqual(p.Mask.Data(), q.Mask.Data()) {
		t.Error("patch tensors corrupted on the wire")
	}
	if _, err := attack.DecodePatch([]byte("garbage")); err == nil {
		t.Error("DecodePatch accepted garbage")
	}
}

// TestQueueOverflowRetryAfterHeader: a 429 must carry a usable Retry-After
// so well-behaved clients (and the fabric gateway) know when to come back.
func TestQueueOverflowRetryAfterHeader(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	det := testDetector(t)
	s, ts := startServer(t, det, Config{
		Workers: 1, QueueSize: 1,
		Job: func(eval.Job) (eval.Detail, error) {
			started <- struct{}{}
			<-release
			return eval.Detail{}, nil
		},
	})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()

	var wg sync.WaitGroup
	for seed := int64(1); seed <= 2; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			postJSON(t, ts.URL+"/v1/evaluate", EvalRequest{
				Scene: "road", Challenge: "fix", Runs: 1, Seed: seed, Target: int(scene.Car)})
		}(seed)
	}
	<-started // worker busy
	deadline := time.Now().Add(10 * time.Second)
	for s.exec.QueueDepth() != 1 { // queue slot taken
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/evaluate", EvalRequest{
		Scene: "road", Challenge: "fix", Runs: 1, Seed: 99, Target: int(scene.Car)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Errorf("Retry-After = %q, want integer in [1,60]", resp.Header.Get("Retry-After"))
	}
	releaseAll()
	wg.Wait()
}

// jobClock is an injected clock that only the test's job moves: each job
// advances it by its own duration, so the pool's job timing is exact.
type jobClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *jobClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *jobClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// After never fires: at BatchSize 1 every request flushes on arrival.
func (c *jobClock) After(time.Duration) <-chan time.Time { return nil }

// TestRetryAfterFollowsInjectedClock: the Retry-After estimate times jobs on
// cfg.Clock, the same clock as queue_wait. A 30 s job sets the estimate to
// 30 s; a following 10 s job moves the EWMA to 0.3·10 + 0.7·30 = 24 s.
func TestRetryAfterFollowsInjectedClock(t *testing.T) {
	clk := &jobClock{now: time.Unix(1000, 0)}
	var jobDur atomic.Int64
	e := batchExecutor(t, Config{Workers: 1, QueueSize: 4, BatchSize: 1, Clock: clk,
		Job: func(eval.Job) (eval.Detail, error) {
			clk.advance(time.Duration(jobDur.Load()))
			return eval.Detail{}, nil
		}}, nil)
	if got := e.RetryAfterSeconds(); got != 1 {
		t.Fatalf("RetryAfterSeconds before any job = %d, want 1", got)
	}
	for i, tc := range []struct {
		job  time.Duration
		want int
	}{{30 * time.Second, 30}, {10 * time.Second, 24}} {
		jobDur.Store(int64(tc.job))
		if _, err := e.Evaluate(context.Background(), batchEvalReq(int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if got := e.RetryAfterSeconds(); got != tc.want {
			t.Errorf("after a %v job: RetryAfterSeconds = %d, want %d", tc.job, got, tc.want)
		}
	}
}

// TestEdgeLatencyFollowsInjectedClock: the HTTP edge times requests on
// cfg.Clock like every other serving stage, so a request whose job moves the
// injected clock by 1.5 s lands in serve_request_seconds as exactly 1.5 s,
// whatever the wall clock did.
func TestEdgeLatencyFollowsInjectedClock(t *testing.T) {
	clk := &jobClock{now: time.Unix(1000, 0)}
	_, ts := startServer(t, testDetector(t), Config{Workers: 1, Clock: clk,
		Job: func(eval.Job) (eval.Detail, error) {
			clk.advance(1500 * time.Millisecond)
			return eval.Detail{}, nil
		}})
	resp, body := postJSON(t, ts.URL+"/v1/evaluate", EvalRequest{Scene: "road", Challenge: "fix",
		Mode: "digital", Runs: 1, Seed: 3, Target: int(scene.Car)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d %s", resp.StatusCode, body)
	}
	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(m.Body); err != nil {
		t.Fatal(err)
	}
	if want := `serve_request_seconds_sum{endpoint="evaluate"} 1.5` + "\n"; !strings.Contains(buf.String(), want) {
		t.Fatalf("metrics lack %q:\n%s", want, buf.String())
	}
}

// TestCacheHitRatioMetric: the derived gauge on /metrics tracks the live
// hit/miss counters.
func TestCacheHitRatioMetric(t *testing.T) {
	det := testDetector(t)
	_, ts := startServer(t, det, Config{Workers: 2})
	req := EvalRequest{Scene: "road", Challenge: "fix", Mode: "digital",
		Runs: 1, Seed: 77, Target: int(scene.Car)}

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if out := scrape(); !regexp.MustCompile(`serve_cache_hit_ratio 0\n`).MatchString(out) {
		t.Fatalf("cold cache should expose ratio 0:\n%s", out)
	}
	postJSON(t, ts.URL+"/v1/evaluate", req) // miss
	postJSON(t, ts.URL+"/v1/evaluate", req) // hit
	if out := scrape(); !regexp.MustCompile(`serve_cache_hit_ratio 0\.5\n`).MatchString(out) {
		t.Fatalf("after 1 hit / 1 miss, want ratio 0.5:\n%s", out)
	}
}
