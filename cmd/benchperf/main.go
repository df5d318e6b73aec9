// Command benchperf measures the tensor kernels and writes the results to
// a JSON file (BENCH_tensor.json at the repo root by convention, committed
// alongside kernel changes so the perf history travels with the code).
//
// Every benchmark is timed twice in the same process: once through the
// production kernels and once through the preserved pre-optimization
// reference kernels (tensor.SetRefKernels). The headline number is the
// speedup ratio between the two — unlike raw ns/op it is comparable across
// machines, so it is the figure the regression gate checks against the
// committed BENCH_tensor.json. Raw ns/op, allocs/op and B/op medians are
// recorded for the record but never gated (they move with the hardware).
//
// The end-to-end workloads (a real attack window, evaluation, detection) are
// measured by perfledger; benchperf keeps only the production-vs-reference
// kernel ratios the ledger cannot show.
//
// Usage:
//
//	go run ./cmd/benchperf -runs 5 -out BENCH_tensor.json   # full, gated (make bench)
//	go run ./cmd/benchperf -smoke -out out/bench_smoke.json # one fast run, record only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

// committedFile is the perf record a full run is gated against.
const committedFile = "BENCH_tensor.json"

// speedupDropTolerance is how far a benchmark's ref/production speedup may
// fall below the committed value before benchperf fails. The ratio is
// machine-independent, but still jittery on loaded hosts; 25% headroom
// separates real kernel regressions from scheduler noise.
const speedupDropTolerance = 0.25

type result struct {
	Name           string  `json:"name"`
	Ops            int     `json:"ops"`
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	BytesPerOp     float64 `json:"bytes_per_op"`
	RefNsPerOp     float64 `json:"ref_ns_per_op"`
	RefAllocsPerOp float64 `json:"ref_allocs_per_op"`
	RefBytesPerOp  float64 `json:"ref_bytes_per_op"`
	// Speedup is the median over runs of the per-run ratio between the
	// reference and production windows (each run times both back-to-back).
	Speedup float64 `json:"speedup"`
}

type benchFile struct {
	SchemaVersion int      `json:"schema_version"`
	GoVersion     string   `json:"go_version"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	Runs          int      `json:"runs"`
	Smoke         bool     `json:"smoke,omitempty"`
	Benchmarks    []result `json:"benchmarks"`
}

// bench is one workload: setup builds the closures once (outside timing),
// op runs one iteration. ops/smokeOps set the per-run iteration count.
type bench struct {
	name     string
	ops      int
	smokeOps int
	setup    func() func()
}

func main() {
	out := flag.String("out", committedFile, "output JSON path")
	runs := flag.Int("runs", 5, "timed runs per benchmark; medians are reported")
	smoke := flag.Bool("smoke", false, "single fast run per benchmark, recorded but not gated")
	filter := flag.String("bench", "", "regexp selecting benchmarks to run (default all)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the timed windows")
	flag.Parse()

	if *smoke {
		*runs = 1
	}
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "benchperf: -runs must be >= 1")
		os.Exit(2)
	}

	var sel *regexp.Regexp
	if *filter != "" {
		var err error
		if sel, err = regexp.Compile(*filter); err != nil {
			fmt.Fprintf(os.Stderr, "benchperf: bad -bench regexp: %v\n", err)
			os.Exit(2)
		}
	}
	// profStop is called explicitly once the timed windows finish: the exit
	// paths below use os.Exit, which would skip a deferred StopCPUProfile and
	// truncate the profile.
	profStop := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchperf: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchperf: %v\n", err)
			os.Exit(2)
		}
		profStop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	// A smoke run is one short window per benchmark: its ratios are too
	// noisy to gate, so it only proves the kernels still run.
	var prev *benchFile
	if !*smoke {
		prev = readCommitted(committedFile)
	}

	file := benchFile{
		SchemaVersion: 1,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Runs:          *runs,
		Smoke:         *smoke,
	}
	for _, b := range benches() {
		if sel != nil && !sel.MatchString(b.name) {
			continue
		}
		ops := b.ops
		if *smoke {
			ops = b.smokeOps
		}
		r := run(b, ops, *runs)
		file.Benchmarks = append(file.Benchmarks, r)
		fmt.Printf("%-20s %12.0f ns/op %8.1f allocs/op   ref %12.0f ns/op   speedup %.2fx\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.RefNsPerOp, r.Speedup)
	}
	profStop()

	// Gate before writing: a failing run must not overwrite the committed
	// record, or a second run would pass against the regressed ratios.
	msgs := compare(prev, file)
	for _, m := range msgs {
		fmt.Fprintln(os.Stderr, "benchperf: "+m)
	}
	if len(msgs) > 0 && sameFile(*out, committedFile) {
		fmt.Fprintf(os.Stderr, "benchperf: %s left unchanged\n", committedFile)
		os.Exit(1)
	}
	if err := writeFile(*out, file); err != nil {
		fmt.Fprintf(os.Stderr, "benchperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	if len(msgs) > 0 {
		os.Exit(1)
	}
}

// sameFile reports whether paths a and b name the same existing file.
func sameFile(a, b string) bool {
	fa, errA := os.Stat(a)
	fb, errB := os.Stat(b)
	return errA == nil && errB == nil && os.SameFile(fa, fb)
}

// benches defines the measured workloads, ordered from microkernel to the
// full detector forward. All use fixed seeds so both kernel configurations
// see identical data.
func benches() []bench {
	return []bench{
		{
			name: "MatMul128", ops: 100, smokeOps: 10,
			setup: func() func() {
				rng := rand.New(rand.NewSource(1))
				a := tensor.NewRandN(rng, 1, 128, 128)
				b := tensor.NewRandN(rng, 1, 128, 128)
				return func() { tensor.MatMul(a, b) }
			},
		},
		{
			name: "Conv2DForward", ops: 10, smokeOps: 2,
			setup: func() func() {
				rng := rand.New(rand.NewSource(2))
				in := tensor.NewRandN(rng, 1, 2, 16, 64, 64)
				wt := tensor.NewRandN(rng, 0.1, 32, 16, 3, 3)
				bias := tensor.NewRandN(rng, 0.1, 32)
				return func() { tensor.Conv2D(in, wt, bias, 1, 1) }
			},
		},
		{
			name: "Conv2DBackward", ops: 8, smokeOps: 2,
			setup: func() func() {
				rng := rand.New(rand.NewSource(3))
				in := tensor.NewRandN(rng, 1, 2, 16, 32, 32)
				wt := tensor.NewRandN(rng, 0.1, 32, 16, 3, 3)
				dOut := tensor.NewRandN(rng, 1, 2, 32, 32, 32)
				dW := tensor.New(32, 16, 3, 3)
				dB := tensor.New(32)
				return func() { tensor.Conv2DBackward(in, wt, dOut, 1, 1, dW, dB) }
			},
		},
		{
			name: "DetectorInference", ops: 5, smokeOps: 1,
			setup: func() func() {
				rng := rand.New(rand.NewSource(4))
				det := yolo.New(rng, yolo.DefaultConfig())
				det.SetTraining(false)
				frame := tensor.NewRandN(rng, 0.25, 1, 3, 64, 64).AddScalar(0.5).Clamp(0, 1)
				return func() { det.Forward(frame) }
			},
		},
	}
}

// run measures b for the given per-run op count under both kernel
// configurations. Production and reference windows are interleaved
// back-to-back within each run and the speedup is the median of the per-run
// ratios: on a shared host the background load drifts over seconds, so two
// adjacent windows see near-identical conditions while two blocks measured
// minutes apart do not.
func run(b bench, ops, runs int) result {
	op := b.setup()

	window := func(ref bool) (ns, allocs, bytes float64) {
		tensor.SetRefKernels(ref)
		defer tensor.SetRefKernels(false)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < ops; i++ {
			op()
		}
		dt := time.Since(start)
		runtime.ReadMemStats(&m1)
		return float64(dt.Nanoseconds()) / float64(ops),
			float64(m1.Mallocs-m0.Mallocs) / float64(ops),
			float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
	}

	// Warm-up both configurations: grows arena buffers, faults in pages.
	tensor.SetRefKernels(true)
	op()
	tensor.SetRefKernels(false)
	op()

	var ns, allocs, bytes, refNs, refAllocs, refBytes, ratios []float64
	for r := 0; r < runs; r++ {
		n1, a1, b1 := window(false)
		n2, a2, b2 := window(true)
		ns, allocs, bytes = append(ns, n1), append(allocs, a1), append(bytes, b1)
		refNs, refAllocs, refBytes = append(refNs, n2), append(refAllocs, a2), append(refBytes, b2)
		if n1 > 0 {
			ratios = append(ratios, n2/n1)
		}
	}

	r := result{
		Name:           b.name,
		Ops:            ops,
		NsPerOp:        median(ns),
		AllocsPerOp:    median(allocs),
		BytesPerOp:     median(bytes),
		RefNsPerOp:     median(refNs),
		RefAllocsPerOp: median(refAllocs),
		RefBytesPerOp:  median(refBytes),
		Speedup:        median(ratios),
	}
	return r
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// readCommitted loads the committed bench file, if any. A missing or
// unparseable file disables the regression gate (first run, new schema).
func readCommitted(path string) *benchFile {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil
	}
	return &f
}

// compare gates the new speedups against the committed file: a benchmark
// whose ref/production ratio fell more than speedupDropTolerance is a
// kernel regression. Ratios recorded at another GOMAXPROCS are not
// comparable, so a mismatch fails on its own. ns/op deltas are reported as
// information only.
func compare(prev *benchFile, cur benchFile) []string {
	if prev == nil {
		return nil
	}
	if prev.GOMAXPROCS != cur.GOMAXPROCS {
		return []string{fmt.Sprintf(
			"%s was recorded at GOMAXPROCS %d, this run has GOMAXPROCS %d; rerun with GOMAXPROCS=%d",
			committedFile, prev.GOMAXPROCS, cur.GOMAXPROCS, prev.GOMAXPROCS)}
	}
	byName := make(map[string]result, len(prev.Benchmarks))
	for _, r := range prev.Benchmarks {
		byName[r.Name] = r
	}
	var msgs []string
	for _, r := range cur.Benchmarks {
		p, ok := byName[r.Name]
		if !ok || p.Speedup <= 0 {
			continue
		}
		if r.Speedup < p.Speedup*(1-speedupDropTolerance) {
			msgs = append(msgs, fmt.Sprintf(
				"%s: speedup regressed %.2fx -> %.2fx (tolerance %.0f%%)",
				r.Name, p.Speedup, r.Speedup, speedupDropTolerance*100))
		}
		if p.NsPerOp > 0 {
			fmt.Printf("%-20s ns/op %+.1f%% vs committed file (informational)\n",
				r.Name, 100*(r.NsPerOp-p.NsPerOp)/p.NsPerOp)
		}
	}
	return msgs
}

// writeFile marshals, writes, and re-reads the bench file so a truncated or
// malformed artifact can never be committed silently.
func writeFile(path string, f benchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	back, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var check benchFile
	if err := json.Unmarshal(back, &check); err != nil {
		return fmt.Errorf("self-check: written file does not parse: %w", err)
	}
	if len(check.Benchmarks) != len(f.Benchmarks) {
		return fmt.Errorf("self-check: written file lost benchmarks")
	}
	return nil
}
