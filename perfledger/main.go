package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"roadtrojan/internal/yolo"
)

// workload is one traffic mix. run measures it into r.
type workload struct {
	name string
	run  func(r *run) error
}

// workloads lists the ledger's workloads in run order; their reasons are in
// doc.go and BENCHMARK.json.
var workloads = []workload{
	{"attack", runAttack},
	{"eval-cold", runEvalCold},
	{"eval-hot", runEvalHot},
	{"detect-2cam", runDetect},
}

// Trace modes of one workload run.
const (
	traceBoth = -1 // untraced and traced windows, every metric (ledger mode)
	traceOff  = 0  // untraced window only, end-to-end metrics
	traceOn   = 1  // untraced and traced windows plus replay, per-layer metrics
)

// run is the state of one workload run: its settings, the measured values
// and the operation counts.
type run struct {
	workload  string
	seed      int64
	window    time.Duration // length of the untraced window
	traceMode int
	outDir    string
	log       io.Writer

	size sizes

	vals      map[string]float64
	attempted int64
	failed    int64
}

// sizes are a run's repetition counts; -smoke shrinks them on the same
// code path.
type sizes struct {
	setups      int // builds of the system; setup_s is their median
	reps        int // timed repetitions of each replayed call, after a warm-up
	checks      int // leading responses recomputed in process (at most keepBodies)
	hotPatches  int // eval-hot keys are hotPatches x hotSeeds
	hotSeeds    int
	attackIters int // generator steps per attack.Train call
}

var (
	fullSizes  = sizes{setups: 15, reps: 15, checks: keepBodies, hotPatches: 4, hotSeeds: 4, attackIters: 10}
	smokeSizes = sizes{setups: 1, reps: 0, checks: 1, hotPatches: 1, hotSeeds: 2, attackIters: 2}
)

// traced reports whether this run also measures the traced window and the
// replayed layers.
func (r *run) traced() bool { return r.traceMode != traceOff }

// tracedWindow is the traced window's length: a quarter of the untraced one,
// which leaves enough spans for medians while keeping a traced run short.
func (r *run) tracedWindow() time.Duration { return r.window / 4 }

func (r *run) set(name string, v float64) { r.vals[name] = v }

// fail counts one failed operation and says why on the log.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.log, "%s: FAIL: %s\n", r.workload, fmt.Sprintf(format, args...))
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "%s: %s\n", r.workload, fmt.Sprintf(format, args...))
}

// newDetector is the benchmark's fixed victim: an untrained YOLOv3-tiny at
// the default config. Its FLOPs equal a trained model's; its decode and NMS
// counts may not (see doc.go).
func newDetector() *yolo.Model {
	return yolo.New(rand.New(rand.NewSource(11)), yolo.DefaultConfig())
}

// timeSetup runs build n times and returns the median wall time plus the
// last build's value; earlier values are released with drop. Each build
// starts on a collected heap, so it does not pay for the previous one's
// garbage; the first few builds still run slower while the heap grows.
func timeSetup[T any](n int, build func() (T, error), drop func(T)) (float64, T, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return 0, last, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return median(secs), last, nil
}

// maxRSSMiB reads the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

// mainCode runs the command and returns its exit code: 0 only when every
// operation succeeded and every output check passed.
func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (attack, eval-cold, eval-hot, detect-2cam); empty runs the whole ledger, one process per workload")
	seed := fs.Int64("seed", 1, "input seed: patches, keys, schedules and frames")
	seconds := fs.Float64("seconds", 20, "length of the untraced window in seconds")
	traceMode := fs.Int("trace", traceBoth, "0: end-to-end metrics from the untraced window; 1: per-layer metrics (adds a traced window and the layer replay); -1: both")
	smoke := fs.Bool("smoke", false, "minimal sizes on the same code path (1 s windows, one replay repetition)")
	outDir := fs.String("out", filepath.Join("out", "ledger"), "directory for results.json and the trace journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode < traceBoth || *traceMode > traceOn {
		fmt.Fprintln(stderr, "perfledger: -trace must be -1, 0 or 1")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *smoke {
		window = time.Second
	}
	if window <= 0 {
		fmt.Fprintln(stderr, "perfledger: -seconds must be positive")
		return 2
	}
	if *name == "" {
		return ledger(*seed, *seconds, *smoke, *outDir, stdout, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfledger: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfledger:", err)
		return 1
	}
	r := &run{workload: w.name, seed: *seed, window: window, traceMode: *traceMode,
		outDir: *outDir, log: stderr, size: fullSizes, vals: map[string]float64{}}
	if *smoke {
		r.size = smokeSizes
	}
	r.logf("seed %d, window %v, GOMAXPROCS %d, %s", r.seed, r.window, runtime.GOMAXPROCS(0), runtime.Version())
	if err := w.run(r); err != nil {
		fmt.Fprintf(stderr, "perfledger: %s: %v\n", w.name, err)
		return 1
	}

	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	var err error
	if r.traceMode != traceOn {
		err = collect(r.vals, endToEnd, true, res.Metrics)
	}
	if err == nil && r.traced() {
		err = collect(r.vals, perLayer, false, res.Metrics)
	}
	if err == nil && res.Attempted < 1 {
		err = errors.New("no operation was attempted")
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfledger: %s: %v\n", w.name, err)
		return 1
	}
	res.Correct = res.Failed == 0
	if err := printReport(stdout, w.name, res); err != nil {
		fmt.Fprintln(stderr, "perfledger:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// ledgerFile is out/ledger/results.json.
type ledgerFile struct {
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Smoke      bool              `json:"smoke,omitempty"`
	Workloads  map[string]result `json:"workloads"`
}

// ledger runs every workload in its own process, so setup_s and max_rss_mb
// belong to that workload alone, and writes results.json.
func ledger(seed int64, seconds float64, smoke bool, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfledger:", err)
		return 1
	}
	file := ledgerFile{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Smoke: smoke, Workloads: map[string]result{}}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(traceBoth), "-out", outDir}
		if smoke {
			args = append(args, "-smoke")
		}
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		res, parseErr := lastResult(out.Bytes())
		if parseErr != nil {
			fmt.Fprintf(stderr, "perfledger: %s: %v (exit: %v)\n", w.name, parseErr, runErr)
			return 1
		}
		file.Workloads[w.name] = res
		total.Correct = total.Correct && res.Correct && runErr == nil
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for n, m := range res.Metrics {
			total.Metrics[w.name+"/"+n] = m
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfledger:", err)
		return 1
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfledger:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// lastResult parses the JSON result on the last non-empty line of out.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
