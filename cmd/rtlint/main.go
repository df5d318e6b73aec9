// Command rtlint runs the repository's invariant checks (internal/analysis)
// over every package in the module:
//
//	go run ./cmd/rtlint ./...
//
// It loads and type-checks the module with only the standard library, runs
// the syntactic checks (sharedforward, globalrand, floateq, panicpolicy,
// gradcoverage), the CFG/dataflow checks (goroutinelife, lockheld,
// ctxflow) and the whole-program deadcode check, and exits non-zero on any
// finding. Patterns pick the packages to report on; deadcode still counts
// uses in every package. The only way to suppress one
// is a per-line `//rtlint:ignore <check> <reason>`. -json emits a
// machine-readable report on stdout; -timing prints a per-check wall-clock
// breakdown.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"roadtrojan/internal/analysis"
)

// jsonReport is the -json schema: stable field names so CI artifacts can
// be diffed across runs.
type jsonReport struct {
	Module   string        `json:"module"`
	Checks   []string      `json:"checks"`
	Findings []jsonFinding `json:"findings"`
	TimingMS []jsonTiming  `json:"timing_ms,omitempty"`
}

type jsonFinding struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

type jsonTiming struct {
	Check    string  `json:"check"`
	MS       float64 `json:"ms"`
	Findings int     `json:"findings"`
}

func main() {
	var (
		checkList = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		list      = flag.Bool("list", false, "list the registered checks and exit")
		jsonOut   = flag.Bool("json", false, "emit a machine-readable report on stdout instead of plain findings")
		timing    = flag.Bool("timing", false, "print a per-check wall-clock breakdown on stderr")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rtlint [flags] [./...]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	checks := analysis.AllChecks()
	if *list {
		for _, c := range checks {
			fmt.Printf("%-14s %s\n", c.Name, c.Doc)
		}
		return
	}
	if *checkList != "" {
		byName := map[string]analysis.Check{}
		for _, c := range checks {
			byName[c.Name] = c
		}
		checks = checks[:0]
		for _, name := range strings.Split(*checkList, ",") {
			c, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fatalf("unknown check %q (try -list)", name)
			}
			checks = append(checks, c)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fatalf("%v", err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatalf("%v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fatalf("%v", err)
	}
	cfg := analysis.DefaultConfig(loader.Module())
	findings, timings := analysis.RunTimed(cfg, pkgs, matchPatterns(loader.Module(), flag.Args()), checks)
	if *timing {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "rtlint: %-14s %8.1fms  %d finding(s)\n", tm.Name, float64(tm.Elapsed.Microseconds())/1000, tm.Findings)
		}
	}

	if *jsonOut {
		report := jsonReport{
			Module:   loader.Module(),
			Checks:   []string{},
			Findings: []jsonFinding{},
		}
		for _, c := range checks {
			report.Checks = append(report.Checks, c.Name)
		}
		for _, f := range findings {
			report.Findings = append(report.Findings, jsonFinding{
				File:  relPath(root, f.Pos.Filename),
				Line:  f.Pos.Line,
				Col:   f.Pos.Column,
				Check: f.Check,
				Msg:   f.Msg,
			})
		}
		for _, tm := range timings {
			report.TimingMS = append(report.TimingMS, jsonTiming{
				Check:    tm.Name,
				MS:       float64(tm.Elapsed.Microseconds()) / 1000,
				Findings: tm.Findings,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatalf("encoding report: %v", err)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", relPath(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
		}
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "rtlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// relPath renders file relative to the module root with forward slashes.
func relPath(root, file string) string {
	rel, err := filepath.Rel(root, file)
	if err != nil {
		rel = file
	}
	return filepath.ToSlash(rel)
}

// matchPatterns selects the packages to report on from the command-line
// patterns. The forms understood are "./..." / "all" (everything),
// "./dir/..." (subtree) and "./dir" or an import path (exact). No
// patterns means everything.
func matchPatterns(module string, patterns []string) func(*analysis.Pkg) bool {
	if len(patterns) == 0 {
		return nil
	}
	return func(p *analysis.Pkg) bool {
		for _, pat := range patterns {
			if pat == "./..." || pat == "..." || pat == "all" {
				return true
			}
			pat = strings.TrimPrefix(pat, "./")
			if sub, ok := strings.CutSuffix(pat, "/..."); ok {
				if p.Path == module+"/"+sub || strings.HasPrefix(p.Path, module+"/"+sub+"/") {
					return true
				}
				continue
			}
			if p.Path == pat || p.Path == module+"/"+pat || (pat == "." && p.Path == module) {
				return true
			}
		}
		return false
	}
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("rtlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rtlint: "+format+"\n", args...)
	os.Exit(1)
}
