// Command runreport renders a JSONL run journal (written by cmd/attackgen
// or cmd/evalattack via -journal) into a human-readable summary: one table
// row per restart segment with loss statistics, ASCII sparklines of the
// loss curves, the verification history, and the evaluation's PWC/CWC.
//
// Usage:
//
//	go run ./cmd/runreport out/run.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"roadtrojan/internal/obs"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: runreport <journal.jsonl>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(flag.Args(), os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "runreport:", err)
		os.Exit(1)
	}
}

// run renders each journal named in args to w; warnings (skipped lines) go
// to errw. Split out of main so the golden test can drive it.
func run(args []string, w, errw io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("no journal file given (usage: runreport <journal.jsonl>)")
	}
	for i, path := range args {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if len(args) > 1 {
			fmt.Fprintf(w, "== %s ==\n", path)
		}
		if err := render(path, w, errw); err != nil {
			return err
		}
	}
	return nil
}

func render(path string, w, errw io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// A journal whose writer was killed mid-line (crash, disk full) or that
	// took damage mid-file still renders: the skipped lines are counted in
	// a warning instead of failing the whole report.
	recs, err := obs.ReadJournal(f)
	var skipped *obs.SkippedLinesError
	if errors.As(err, &skipped) {
		fmt.Fprintf(errw, "runreport: %s: %v\n", path, skipped)
	} else if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	obs.BuildReport(recs).Render(w)
	return nil
}
