// Command benchtab regenerates every table (I–VI) and figure (2–8) of the
// paper's evaluation on the synthetic substrate, plus the extension tables,
// writing text tables, CSVs and PNGs under -out. It is the one driver for
// the paper's results: `make bench-tables` runs it at a reduced budget.
//
// The transfer table runs when a second detector, detector_b.rtwt, sits
// beside -weights (train one with go run ./cmd/trainyolo -seed 2); without
// it benchtab prints a skip note.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"roadtrojan"

	"roadtrojan/internal/eval"
)

// table is one -only key and the experiment it regenerates.
type table struct {
	name string
	run  func(*eval.Env) (eval.Table, error)
}

// tables lists the experiments that need only the main detector, in print
// order. The transfer table joins them when a second detector is present.
var tables = []table{
	{"I", (*eval.Env).TableI},
	{"II", (*eval.Env).TableII},
	{"III", (*eval.Env).TableIII},
	{"IV", (*eval.Env).TableIV},
	{"V", (*eval.Env).TableV},
	{"VI", (*eval.Env).TableVI},
	{"alpha", (*eval.Env).AblationAlpha},
	{"ink", (*eval.Env).AblationInk},
	{"ganfree", (*eval.Env).AblationGANFree},
	{"defense", (*eval.Env).DefenseTable},
	{"shadow", (*eval.Env).ShadowTable},
}

// checkOnly rejects an -only key that selects no experiment, naming the
// valid keys; the empty key runs everything.
func checkOnly(only string) error {
	keys := make([]string, 0, len(tables)+3)
	for _, tb := range tables {
		keys = append(keys, tb.name)
	}
	keys = append(keys, "transfer", "figures", "all")
	if only == "" || slices.Contains(keys, only) {
		return nil
	}
	return fmt.Errorf("unknown -only key %q (valid: %s)", only, strings.Join(keys, ", "))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		weights = flag.String("weights", "testdata/detector.rtwt", "detector weights")
		outDir  = flag.String("out", "out/experiments", "output directory")
		iters   = flag.Int("iters", 300, "attack training iterations per patch")
		runs    = flag.Int("runs", 3, "evaluation runs to average")
		seed    = flag.Int64("seed", 7, "experiment seed")
		only    = flag.String("only", "", "run a single experiment: I, II, III, IV, V, VI, alpha, ink, ganfree, defense, shadow, transfer, figures or all")
		verbose = flag.Bool("v", false, "log attack training progress")
	)
	flag.Parse()

	if err := checkOnly(*only); err != nil {
		return err
	}

	det, err := roadtrojan.LoadDetector(*weights)
	if err != nil {
		return fmt.Errorf("%w (train one first: go run ./cmd/trainyolo -out %s)", err, *weights)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	var logw *os.File
	if *verbose {
		logw = os.Stderr
	}
	env := eval.NewEnv(det.Model(), *iters, *runs, *seed, logw)

	if s, err := env.CheckNoAttackBaseline(); err == nil {
		fmt.Printf("clean-scene sanity: target detect-rate %.2f, PWC %.0f%%\n", s.DetectRate, s.PWC)
	} else {
		return err
	}

	want := func(key string) bool { return *only == "" || *only == "all" || *only == key }
	exps := tables
	bWeights := filepath.Join(filepath.Dir(*weights), "detector_b.rtwt")
	other, err := roadtrojan.LoadDetector(bWeights)
	switch {
	case err == nil:
		transfer := func(env *eval.Env) (eval.Table, error) { return env.TransferTable(other.Model()) }
		exps = append(slices.Clip(exps), table{"transfer", transfer})
	case errors.Is(err, fs.ErrNotExist):
		if want("transfer") {
			fmt.Printf("transfer table skipped: no %s (train one with go run ./cmd/trainyolo -seed 2 -out %s)\n", bWeights, bWeights)
		}
	default:
		return err
	}
	for _, tb := range exps {
		if !want(tb.name) {
			continue
		}
		start := time.Now()
		t, err := tb.run(env)
		if err != nil {
			return fmt.Errorf("table %s: %w", tb.name, err)
		}
		fmt.Printf("\n%s\n(%.0fs)\n", t.String(), time.Since(start).Seconds())
		if err := os.WriteFile(filepath.Join(*outDir, "table"+tb.name+".txt"), []byte(t.String()), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*outDir, "table"+tb.name+".csv"), []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}

	if want("figures") {
		figDir := filepath.Join(*outDir, "figures")
		if err := os.MkdirAll(figDir, 0o755); err != nil {
			return err
		}
		if err := env.Figures(figDir); err != nil {
			return fmt.Errorf("figures: %w", err)
		}
		fmt.Printf("\nfigures written to %s\n", figDir)
	}
	return nil
}
