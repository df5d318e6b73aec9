// Package analysis is a from-scratch static-analyzer driver (stdlib
// go/parser + go/ast + go/types only, no x/tools) that enforces the
// repository's hand-maintained correctness invariants: deterministic seeded
// randomness, non-reentrant forward caches, epsilon-based float comparison,
// prefixed invariant panics, gradient-check coverage for every layer,
// goroutine and lock discipline, context propagation, and no dead code.
//
// The driver loads every package in the module (see Loader), runs each
// registered Check and honours per-line //rtlint:ignore suppressions, the
// only way to silence a finding. cmd/rtlint is the command-line front end.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

// String renders the finding in file:line:col: check: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

// Pkg is one type-checked package, including its in-package _test.go files
// (checks that only apply to library code skip test files by position).
type Pkg struct {
	Path  string // import path ("roadtrojan/internal/tensor")
	Name  string // package name ("tensor")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pkg) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// Config parameterizes the checks. DefaultConfig returns the repository
// policy; the corpus self-tests swap in widened scopes.
type Config struct {
	// DeterministicPkgs names (by package name) the packages whose results
	// must be bit-reproducible from a seed: all randomness has to flow
	// through an explicit *rand.Rand and wall-clock reads are banned.
	DeterministicPkgs map[string]bool
	// RandAllowlist names packages exempt from globalrand even if listed
	// as deterministic (serve, telemetry, obs, and fabric own wall-clock
	// concerns; obs confines time.Now behind its Clock interface, and serve
	// and fabric behind serve.Clock, so importers stay deterministic).
	RandAllowlist map[string]bool
	// FloatEqApproved names functions whose bodies may compare floats with
	// == / != (the designated epsilon helpers themselves).
	FloatEqApproved map[string]bool
	// PanicScope limits panicpolicy to the packages it returns true for.
	PanicScope func(p *Pkg) bool
	// GradCheckNameRE matches the test/helper function names that count as
	// gradient checks for gradcoverage.
	GradCheckNameRE *regexp.Regexp
	// FlowScope limits the CFG-based checks (goroutinelife, lockheld,
	// ctxflow) and the declarations deadcode tracks to the packages it
	// returns true for — library code under internal/ by default; cmd
	// front ends run until process exit.
	FlowScope func(p *Pkg) bool
	// IOLockRE matches the names of dedicated I/O mutexes (writeMu and
	// friends). Network reads/writes under such a lock — and only such a
	// lock — are exempt from lockheld: serializing writes on a shared conn
	// is the mutex's entire job.
	IOLockRE *regexp.Regexp
}

// DefaultConfig returns the policy enforced on this repository, for the
// module rooted at the given import path.
func DefaultConfig(module string) *Config {
	return &Config{
		DeterministicPkgs: map[string]bool{
			"tensor": true, "nn": true, "yolo": true, "gan": true,
			"eot": true, "attack": true, "eval": true, "scene": true,
			"metrics": true, "shapes": true, "optim": true, "imaging": true,
			"physical": true, "defense": true,
		},
		RandAllowlist:   map[string]bool{"serve": true, "telemetry": true, "obs": true, "fabric": true, "chaos": true},
		FloatEqApproved: map[string]bool{},
		PanicScope: func(p *Pkg) bool {
			return strings.HasPrefix(p.Path, module+"/internal/")
		},
		GradCheckNameRE: regexp.MustCompile(`(?i)grad(ient)?_?check`),
		FlowScope: func(p *Pkg) bool {
			return strings.HasPrefix(p.Path, module+"/internal/")
		},
		IOLockRE: regexp.MustCompile(`(?i)^(write|send|read|recv|out|in|io|conn)(mu|mutex|lock)$`),
	}
}

// Check is one named rule. Run sees one package at a time; a whole-program
// check sets Program instead, which indexes every loaded package once and
// returns the per-package reporter.
type Check struct {
	Name    string
	Doc     string
	Run     func(cfg *Config, p *Pkg) []Finding
	Program func(cfg *Config, all []*Pkg) func(p *Pkg) []Finding
}

// AllChecks returns every registered check in stable order.
func AllChecks() []Check {
	return []Check{
		sharedForwardCheck(),
		globalRandCheck(),
		floatEqCheck(),
		panicPolicyCheck(),
		gradCoverageCheck(),
		goroutineLifeCheck(),
		lockHeldCheck(),
		ctxFlowCheck(),
		deadCodeCheck(),
	}
}

// CheckTiming is the wall-clock cost of one check summed over every
// package it ran on, as reported by RunTimed.
type CheckTiming struct {
	Name     string
	Elapsed  time.Duration
	Findings int // pre-suppression finding count
}

// RunTimed executes the checks, applies //rtlint:ignore suppressions, and
// returns the surviving findings sorted by position plus a per-check timing
// breakdown (in check order) for `rtlint -timing`. It reports on the
// packages report accepts (all when nil); a whole-program check still
// indexes all of pkgs, so a filtered run matches the full run there.
func RunTimed(cfg *Config, pkgs []*Pkg, report func(*Pkg) bool, checks []Check) ([]Finding, []CheckTiming) {
	timings := make([]CheckTiming, len(checks))
	runs := make([]func(p *Pkg) []Finding, len(checks))
	for i, c := range checks {
		timings[i].Name = c.Name
		runs[i] = func(p *Pkg) []Finding { return c.Run(cfg, p) }
		if c.Program != nil {
			start := time.Now()
			runs[i] = c.Program(cfg, pkgs)
			timings[i].Elapsed += time.Since(start)
		}
	}
	var out []Finding
	for _, p := range pkgs {
		if report != nil && !report(p) {
			continue
		}
		sup, bad := suppressions(p)
		out = append(out, bad...)
		for i, run := range runs {
			start := time.Now()
			fs := run(p)
			timings[i].Elapsed += time.Since(start)
			timings[i].Findings += len(fs)
			for _, f := range fs {
				if !sup.covers(f) {
					out = append(out, f)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out, timings
}

// suppression directives: a comment of the form
//
//	//rtlint:ignore <check> <reason>
//
// suppresses findings of <check> on the same line and on the following
// line (so the directive can trail the offending statement or sit on its
// own line above it). A directive missing the check name or the reason is
// itself reported.
type suppressionSet map[string]map[int]map[string]bool // file -> line -> check

func (s suppressionSet) covers(f Finding) bool {
	lines := s[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		if lines[ln][f.Check] || lines[ln]["*"] {
			return true
		}
	}
	return false
}

const ignorePrefix = "//rtlint:ignore"

func suppressions(p *Pkg) (suppressionSet, []Finding) {
	set := suppressionSet{}
	var bad []Finding
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Pos:   pos,
						Check: "ignore",
						Msg:   `malformed suppression: want "//rtlint:ignore <check> <reason>"`,
					})
					continue
				}
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					set[pos.Filename] = lines
				}
				if lines[pos.Line] == nil {
					lines[pos.Line] = map[string]bool{}
				}
				lines[pos.Line][fields[0]] = true
			}
		}
	}
	return set, bad
}

// hasForwardBackward reports whether t (or *t) is a concrete named type
// whose method set contains both Forward and Backward — the repo's
// structural signature for "stateful differentiable module with a
// non-reentrant forward cache".
func hasForwardBackward(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(named) {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	var fwd, bwd bool
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Forward":
			fwd = true
		case "Backward":
			bwd = true
		}
	}
	return fwd && bwd
}

func finding(p *Pkg, pos token.Pos, check, format string, args ...any) Finding {
	return Finding{Pos: p.Fset.Position(pos), Check: check, Msg: fmt.Sprintf(format, args...)}
}
