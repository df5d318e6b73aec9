// Command benchperf measures the tensor hot path and writes the results to
// a JSON file (BENCH_tensor.json at the repo root by convention, committed
// alongside kernel changes so the perf history travels with the code).
//
// Every benchmark is timed twice in the same process: once through the
// production kernels and once through the preserved pre-optimization
// reference kernels (tensor.SetRefKernels). The headline number is the
// speedup ratio between the two — unlike raw ns/op it is comparable across
// machines, so it is the figure the regression gate checks against the
// previously committed file. Raw ns/op, allocs/op and B/op medians are
// recorded for the record but never gated (they move with the hardware).
//
// The -serve flag switches to the serving suite (see serve.go): end-to-end
// executor benchmarks of micro-batching versus a batch size of 1 (each request
// flushed on arrival), written to BENCH_serve.json and gated on the batched/single throughput
// ratio. -prev points the gate at a different previously committed file than
// -out, so CI can write a scratch artifact while comparing against the
// committed history.
//
// Usage:
//
//	go run ./cmd/benchperf -runs 5 -out BENCH_tensor.json   # full (make bench)
//	go run ./cmd/benchperf -smoke -out out/bench_smoke.json # CI smoke step
//	go run ./cmd/benchperf -serve -out BENCH_serve.json     # serving suite (make bench-serve)
//	go run ./cmd/benchperf -serve -smoke -prev BENCH_serve.json -out out/bench_serve_smoke.json
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

	"roadtrojan/internal/gan"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

// speedupDropTolerance is how far a benchmark's ref/production speedup may
// fall below the previously committed value before benchperf fails. The
// ratio is machine-independent, but still jittery on loaded hosts; 25%
// headroom separates real kernel regressions from scheduler noise.
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
	out := flag.String("out", "", "output JSON path (default BENCH_tensor.json, or BENCH_serve.json with -serve)")
	runs := flag.Int("runs", 5, "timed runs per benchmark; medians are reported")
	smoke := flag.Bool("smoke", false, "single fast run per benchmark (CI gate)")
	serveSuite := flag.Bool("serve", false, "run the serving suite (micro-batched vs batch size 1 executor) instead of the tensor suite")
	prevPath := flag.String("prev", "", "previously committed bench file to gate against (default: the -out path)")
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
	if *out == "" {
		*out = "BENCH_tensor.json"
		if *serveSuite {
			*out = "BENCH_serve.json"
		}
	}
	if *prevPath == "" {
		*prevPath = *out
	}
	if *serveSuite {
		os.Exit(serveMain(*out, *prevPath, *runs, *smoke))
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

	prev := readPrevious(*prevPath)

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

	if err := writeFile(*out, file); err != nil {
		fmt.Fprintf(os.Stderr, "benchperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if msgs := compare(prev, file); len(msgs) > 0 {
		for _, m := range msgs {
			fmt.Fprintln(os.Stderr, "benchperf: "+m)
		}
		os.Exit(1)
	}
}

// benches defines the measured workloads, ordered from microkernel to full
// pipeline. All use fixed seeds so both kernel configurations see identical
// data.
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
		{
			// The disabled-observability contract: a nil trace's typed event
			// methods must cost nothing — no allocation (AllocsPerOp 0 here)
			// and low single-digit nanoseconds — because the trainers call
			// them unconditionally inside their hot loops. The kernel-config
			// toggle does not touch this path, so the speedup hovers at 1.0;
			// the numbers that matter are allocs/op and ns/op.
			name: "ObsNoopEmit", ops: 5_000_000, smokeOps: 500_000,
			setup: func() func() {
				var tr *obs.Trace // nil = observability off
				sp := tr.Span("train")
				st := obs.IterStats{Method: "ours", Attack: 0.5, GanG: 0.1, PTarget: 0.2}
				return func() {
					st.It++
					sp.Iter(st)
					sp.EOT(obs.EOTDraw{It: st.It, Resize: 1})
					sp.Verify(obs.VerifyStats{It: st.It, Score: 0.5})
				}
			},
		},
		{
			name: "AttackIteration", ops: 3, smokeOps: 1,
			setup: func() func() {
				rng := rand.New(rand.NewSource(5))
				det := yolo.New(rng, yolo.DefaultConfig())
				det.SetTraining(true)
				g := gan.NewGenerator(rng)
				d := gan.NewDiscriminator(rng)
				z := gan.SampleZ(rand.New(rand.NewSource(6)), 1)
				frame := tensor.NewRandN(rng, 0.25, 1, 3, 64, 64).AddScalar(0.5).Clamp(0, 1)
				probeRNG := rand.New(rand.NewSource(7))
				var probe yolo.Heads
				// One generator update worth of compute: patch synthesis,
				// adversarial gradient from the discriminator, detector
				// forward/backward on the patched frame, generator backward.
				return func() {
					patch := g.Forward(z)
					_, dAdv := gan.GeneratorAdversarialGrad(d, patch)
					pasted := pastePatch(frame, patch)
					heads := det.Forward(pasted)
					if probe.Coarse == nil {
						probe.Coarse = tensor.NewRandN(probeRNG, 0.1, heads.Coarse.Shape()...)
						probe.Fine = tensor.NewRandN(probeRNG, 0.1, heads.Fine.Shape()...)
					}
					dFrame := det.Backward(probe)
					dPatch := cropGrad(dFrame, patch)
					dPatch.AddInPlace(dAdv)
					g.Backward(dPatch)
				}
			},
		},
	}
}

// pastePatch composites the grayscale [1,1,P,P] patch into the top-left
// corner of every channel of a copy of the [1,3,H,W] frame — the monochrome
// decal compositing of the attack loop without the scene machinery.
func pastePatch(frame, patch *tensor.Tensor) *tensor.Tensor {
	out := frame.Clone()
	p := patch.Dim(2)
	h, w := frame.Dim(2), frame.Dim(3)
	for c := 0; c < 3; c++ {
		for y := 0; y < p; y++ {
			dst := out.Data()[(c*h+y)*w : (c*h+y)*w+p]
			copy(dst, patch.Data()[y*p:(y+1)*p])
		}
	}
	return out
}

// cropGrad sums the patch-region gradient over the frame's channels back
// into a [1,1,P,P] patch gradient (the adjoint of pastePatch).
func cropGrad(dFrame, patch *tensor.Tensor) *tensor.Tensor {
	p := patch.Dim(2)
	h, w := dFrame.Dim(2), dFrame.Dim(3)
	out := tensor.New(1, 1, p, p)
	for c := 0; c < 3; c++ {
		for y := 0; y < p; y++ {
			src := dFrame.Data()[(c*h+y)*w : (c*h+y)*w+p]
			dst := out.Data()[y*p : (y+1)*p]
			for i, v := range src {
				dst[i] += v
			}
		}
	}
	return out
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

// readPrevious loads the previously committed bench file, if any. A missing
// or unparseable file disables the regression gate (first run, new schema).
func readPrevious(path string) *benchFile {
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

// speedupExempt names benchmarks that never touch the tensor kernels: the
// production and reference windows run identical code, so their ratio is
// scheduler noise and gating it would flake. Their allocation count is
// gated instead — for ObsNoopEmit, allocs/op creeping above zero means the
// disabled-observability hot path started allocating.
var speedupExempt = map[string]bool{"ObsNoopEmit": true}

// compare gates the new speedups against the previous file: a benchmark
// whose ref/production ratio fell more than speedupDropTolerance is a
// kernel regression. ns/op deltas are reported as information only.
func compare(prev *benchFile, cur benchFile) []string {
	if prev == nil {
		return nil
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
		if speedupExempt[r.Name] {
			if p.AllocsPerOp == 0 && r.AllocsPerOp > 0 {
				msgs = append(msgs, fmt.Sprintf(
					"%s: allocs/op regressed 0 -> %.1f (no-op path must not allocate)",
					r.Name, r.AllocsPerOp))
			}
			continue
		}
		if r.Speedup < p.Speedup*(1-speedupDropTolerance) {
			msgs = append(msgs, fmt.Sprintf(
				"%s: speedup regressed %.2fx -> %.2fx (tolerance %.0f%%)",
				r.Name, p.Speedup, r.Speedup, speedupDropTolerance*100))
		}
		if p.NsPerOp > 0 {
			fmt.Printf("%-20s ns/op %+.1f%% vs previous file (informational)\n",
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
