// Command attackgen crafts adversarial road decals against a trained
// detector: ours (GAN, monochrome, consecutive frames), the no-consecutive
// ablation, or the colored baseline [34]. It saves the patch and its print
// preview. With -journal it also records a structured JSONL run journal
// (render with cmd/runreport); with -progress it serves live training
// introspection over HTTP.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"roadtrojan"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/eot"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/shapes"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "attackgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		weights  = flag.String("weights", "testdata/detector.rtwt", "detector weights")
		out      = flag.String("out", "out/patch.rtwt", "patch output path")
		png      = flag.String("png", "out/patch.png", "print-preview PNG path")
		method   = flag.String("method", "ours", "ours | ours-static | baseline")
		env      = flag.String("env", "road", "road | sim")
		shape    = flag.String("shape", "star", "star | circle | square | triangle")
		n        = flag.Int("n", 4, "number of decals N")
		k        = flag.Int("k", 60, "patch print size k")
		iters    = flag.Int("iters", 300, "training iterations")
		alpha    = flag.Float64("alpha", 0.5, "attack-loss weight α")
		tricks   = flag.String("tricks", "1245", "EOT trick numbers, e.g. 1245")
		seed     = flag.Int64("seed", 1, "random seed")
		journal  = flag.String("journal", "", "write a JSONL run journal here (render with cmd/runreport); also runs a post-train digital check so the journal carries PWC/CWC")
		progress = flag.String("progress", "", "serve live /progress, /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	var nums []int
	for _, r := range *tricks {
		if r < '1' || r > '5' {
			return fmt.Errorf("bad -tricks %q: each character must be a trick number 1-5 (e.g. 1245)", *tricks)
		}
		nums = append(nums, int(r-'0'))
	}
	if *env != "road" && *env != "sim" {
		return fmt.Errorf("unknown -env %q (want road or sim)", *env)
	}

	det, err := roadtrojan.LoadDetector(*weights)
	if err != nil {
		return fmt.Errorf("%w (train one first: go run ./cmd/trainyolo -out %s)", err, *weights)
	}
	sh, err := shapes.ParseShape(*shape)
	if err != nil {
		return err
	}

	cfg := attack.DefaultConfig()
	cfg.N = *n
	cfg.K = *k
	cfg.Shape = sh
	cfg.Iters = *iters
	cfg.Alpha = *alpha
	cfg.Tricks = eot.NewSet(nums...)
	cfg.Seed = *seed

	sc := roadtrojan.NewRoadScene()
	if *env == "sim" {
		sc = roadtrojan.NewSimScene()
	}

	// Sink stack: optional journal + the legacy stdout text log + optional
	// live progress. The trace runs on a logical clock so the same seed
	// yields a byte-identical journal.
	var sinks []obs.Sink
	var j *obs.Journal
	if *journal != "" {
		if dir := filepath.Dir(*journal); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fmt.Errorf("journal dir: %w", err)
			}
		}
		if j, err = obs.OpenJournal(*journal); err != nil {
			return err
		}
		sinks = append(sinks, j)
	}
	sinks = append(sinks, obs.NewTextSink(os.Stdout))
	if *progress != "" {
		prog := obs.NewProgressSink()
		srv, err := obs.ServeProgress(*progress, prog)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("progress on http://%s/progress (metrics: /metrics, profiler: /debug/pprof)\n", srv.Addr)
		sinks = append(sinks, prog)
	}
	tr := obs.New(obs.Multi(sinks...), obs.NewLogicalClock())

	var p *roadtrojan.Patch
	switch *method {
	case "ours":
		cfg.Consecutive = true
		p, err = roadtrojan.CraftPatchTraced(det, sc, cfg, tr)
	case "ours-static":
		cfg.Consecutive = false
		p, err = roadtrojan.CraftPatchTraced(det, sc, cfg, tr)
	case "baseline":
		p, err = roadtrojan.CraftBaselinePatchTraced(det, sc, cfg, tr)
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	if err != nil {
		return err
	}

	// When journaling, append a short digital evaluation so cmd/runreport
	// can show PWC/CWC next to the training curves. Two repetitions keep the
	// check cheap; the full protocol lives in cmd/evalattack.
	if j != nil {
		cond := roadtrojan.DigitalCondition()
		cond.Runs = 2
		cond.Seed = *seed
		s, err := roadtrojan.EvaluateScenarioTraced(det, sc, p, p.Cfg.TargetClass, "fix", cond, tr)
		if err != nil {
			return fmt.Errorf("post-train digital check: %w", err)
		}
		fmt.Printf("digital check (fix): %s\n", s.String())
		if err := j.Close(); err != nil {
			return err
		}
		fmt.Printf("journal written to %s (render: go run ./cmd/runreport %s)\n", *journal, *journal)
	}

	if err := attack.SavePatch(*out, p); err != nil {
		return err
	}
	if err := roadtrojan.SavePatchPNG(*png, p); err != nil {
		return err
	}
	fmt.Printf("saved %s patch to %s (preview %s)\n", *method, *out, *png)
	return nil
}
