// Command tracetool merges per-process JSONL trace journals (gatewayd
// -journal, servd -journal) into one causal timeline: spans from every
// process are aligned onto the root process's logical clock via the
// parent-tick annotations that cross-process span contexts leave in the
// journals, then rendered as a causal tree, a per-stage latency breakdown,
// and the critical path through each root span.
//
// Each argument is proc=path, naming the process that wrote the journal —
// the same name the process was started with (gatewayd -trace-proc, servd
// -node-id) — or a bare path, in which case the file's base name without
// extension is used. A damaged journal still merges: its torn or
// undecodable lines are skipped and counted in one warning per file.
//
// Usage:
//
//	go run ./cmd/tracetool gw=out/gw.jsonl n1=out/n1.jsonl n2=out/n2.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"roadtrojan/internal/obs"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tracetool <proc=journal.jsonl> [proc=journal.jsonl ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(flag.Args(), os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}

// run merges the named journals and renders the result to w; warnings
// (skipped lines) go to errw. Split out of main so tests can drive it.
func run(args []string, w, errw io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("no journals given (usage: tracetool <proc=journal.jsonl> ...)")
	}
	journals := make([]obs.ProcessJournal, 0, len(args))
	for _, arg := range args {
		proc, path, ok := strings.Cut(arg, "=")
		if !ok {
			path = arg
			proc = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		if proc == "" {
			return fmt.Errorf("%s: empty process name", arg)
		}
		recs, err := readJournal(path)
		var skipped *obs.SkippedLinesError
		if errors.As(err, &skipped) {
			fmt.Fprintf(errw, "tracetool: %s: %v\n", path, skipped)
		} else if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		journals = append(journals, obs.ProcessJournal{Proc: proc, Records: recs})
	}
	m, err := obs.MergeTrace(journals)
	if err != nil {
		return err
	}
	return obs.RenderMerged(w, m)
}

func readJournal(path string) ([]obs.JournalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadJournal(f)
}
