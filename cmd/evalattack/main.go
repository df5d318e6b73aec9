// Command evalattack scores a saved patch (or the no-attack baseline) under
// the paper's challenge settings, printing PWC / CWC per challenge. With
// -journal the per-run and averaged scores are also recorded as a JSONL
// journal (render with cmd/runreport).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"roadtrojan"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "evalattack:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		weights    = flag.String("weights", "testdata/detector.rtwt", "detector weights")
		patchPath  = flag.String("patch", "", "patch file (empty = no attack)")
		env        = flag.String("env", "road", "road | sim")
		mode       = flag.String("mode", "physical", "physical | digital")
		challenges = flag.String("challenges", strings.Join(roadtrojan.AllChallenges(), ","), "comma-separated challenge names")
		runs       = flag.Int("runs", 3, "runs to average")
		seed       = flag.Int64("seed", 100, "evaluation seed")
		journal    = flag.String("journal", "", "write a JSONL evaluation journal here (render with cmd/runreport)")
		progress   = flag.String("progress", "", "serve live /progress, /metrics and /debug/pprof on this address")
	)
	flag.Parse()

	names := splitChallenges(*challenges)
	if len(names) == 0 {
		return fmt.Errorf("-challenges is empty; valid names: %s", strings.Join(roadtrojan.AllChallenges(), ", "))
	}
	for _, ch := range names {
		if !knownChallenge(ch) {
			return fmt.Errorf("unknown challenge %q; valid names: %s", ch, strings.Join(roadtrojan.AllChallenges(), ", "))
		}
	}
	if *mode != "physical" && *mode != "digital" {
		return fmt.Errorf("unknown -mode %q (want physical or digital)", *mode)
	}
	if *env != "road" && *env != "sim" {
		return fmt.Errorf("unknown -env %q (want road or sim)", *env)
	}

	det, err := roadtrojan.LoadDetector(*weights)
	if err != nil {
		return fmt.Errorf("%w (train one first: go run ./cmd/trainyolo -out %s)", err, *weights)
	}
	sc := roadtrojan.NewRoadScene()
	if *env == "sim" {
		sc = roadtrojan.NewSimScene()
	}
	var p *roadtrojan.Patch
	target := roadtrojan.Car
	if *patchPath != "" {
		p, err = attack.LoadPatch(*patchPath)
		if err != nil {
			return err
		}
		target = p.Cfg.TargetClass
	}
	cond := roadtrojan.PhysicalCondition()
	if *mode == "digital" {
		cond = roadtrojan.DigitalCondition()
	}
	cond.Runs = *runs
	cond.Seed = *seed

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

	for _, ch := range names {
		s, err := roadtrojan.EvaluateScenarioTraced(det, sc, p, target, ch, cond, tr)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %s   (frames %d, detect-rate %.2f, longest run %d)\n",
			ch, s.String(), s.Frames, s.DetectRate, s.WrongRun)
	}
	if j != nil {
		if err := j.Close(); err != nil {
			return err
		}
		fmt.Printf("journal written to %s (render: go run ./cmd/runreport %s)\n", *journal, *journal)
	}
	return nil
}

// splitChallenges parses the comma-separated -challenges flag, dropping
// empty segments.
func splitChallenges(s string) []string {
	var out []string
	for _, ch := range strings.Split(s, ",") {
		if ch = strings.TrimSpace(ch); ch != "" {
			out = append(out, ch)
		}
	}
	return out
}

// knownChallenge reports whether name is a valid challenge; unknown names
// would otherwise panic deep inside scene.Challenges.
func knownChallenge(name string) bool {
	for _, n := range roadtrojan.AllChallenges() {
		if n == name {
			return true
		}
	}
	return false
}
