// Package analysis is a from-scratch static-analyzer driver (stdlib
// go/parser + go/ast + go/types only, no x/tools) that enforces the
// repository's hand-maintained correctness invariants: deterministic seeded
// randomness, non-reentrant forward caches, epsilon-based float comparison,
// prefixed invariant panics, and gradient-check coverage for every layer.
//
// The driver loads every package in the module (see Loader), runs each
// registered Check, honours per-line //rtlint:ignore suppressions, and can
// subtract a committed baseline of grandfathered findings so that only new
// violations fail the build. cmd/rtlint is the command-line front end.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
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
	// concerns; obs confines time.Now behind its Clock interface and
	// fabric behind fabric.Clock, so importers stay deterministic).
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
	// ctxflow) to the packages it returns true for — library code under
	// internal/ by default; cmd front ends run until process exit.
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

// Check is one named rule.
type Check struct {
	Name string
	Doc  string
	Run  func(cfg *Config, p *Pkg) []Finding
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
	}
}

// CheckTiming is the wall-clock cost of one check summed over every
// package it ran on, as reported by RunTimed.
type CheckTiming struct {
	Name     string
	Elapsed  time.Duration
	Findings int // pre-suppression finding count
}

// Run executes the checks over the packages, applies //rtlint:ignore
// suppressions, and returns the surviving findings sorted by position.
func Run(cfg *Config, pkgs []*Pkg, checks []Check) []Finding {
	findings, _ := RunTimed(cfg, pkgs, checks)
	return findings
}

// RunTimed is Run plus a per-check timing breakdown (in the order the
// checks were given), for `rtlint -timing` and the make lint report.
func RunTimed(cfg *Config, pkgs []*Pkg, checks []Check) ([]Finding, []CheckTiming) {
	timings := make([]CheckTiming, len(checks))
	for i, c := range checks {
		timings[i].Name = c.Name
	}
	var out []Finding
	for _, p := range pkgs {
		sup, bad := suppressions(p)
		out = append(out, bad...)
		for i, c := range checks {
			start := time.Now()
			fs := c.Run(cfg, p)
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

// Baseline is a multiset of grandfathered findings, keyed without line
// numbers so unrelated edits don't invalidate it.
type Baseline map[string]int

// BaselineKey renders the position-independent identity of a finding:
// "relpath: check: message".
func BaselineKey(f Finding, root string) string {
	rel, err := filepath.Rel(root, f.Pos.Filename)
	if err != nil {
		rel = f.Pos.Filename
	}
	return fmt.Sprintf("%s: %s: %s", filepath.ToSlash(rel), f.Check, f.Msg)
}

// LoadBaseline reads a baseline file; a missing file is an empty baseline.
func LoadBaseline(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Baseline{}, nil
	}
	if err != nil {
		return nil, err
	}
	b := Baseline{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		b[normalizeBaselineKey(line)]++
	}
	return b, nil
}

// normalizeBaselineKey canonicalizes the path component of a baseline line
// so baselines written on Windows (backslash separators) match keys built
// with forward slashes.
func normalizeBaselineKey(line string) string {
	i := strings.Index(line, ": ")
	if i < 0 {
		return line
	}
	return strings.ReplaceAll(line[:i], `\`, "/") + line[i:]
}

// Stale returns the baseline entries (with multiplicities) that no current
// finding matches — fixed violations whose grandfather lines should be
// deleted. Keys are returned sorted.
func (b Baseline) Stale(findings []Finding, root string) []string {
	remaining := Baseline{}
	for k, n := range b {
		remaining[k] = n
	}
	for _, f := range findings {
		k := BaselineKey(f, root)
		if remaining[k] > 0 {
			remaining[k]--
		}
	}
	var out []string
	for k, n := range remaining {
		for i := 0; i < n; i++ {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Filter removes findings present in the baseline (consuming multiset
// entries) and returns the rest.
func (b Baseline) Filter(findings []Finding, root string) []Finding {
	budget := Baseline{}
	for k, n := range b {
		budget[k] = n
	}
	var out []Finding
	for _, f := range findings {
		k := BaselineKey(f, root)
		if budget[k] > 0 {
			budget[k]--
			continue
		}
		out = append(out, f)
	}
	return out
}

// WriteBaseline persists the findings as a sorted baseline file.
func WriteBaseline(path string, findings []Finding, root string) error {
	keys := make([]string, 0, len(findings))
	for _, f := range findings {
		keys = append(keys, BaselineKey(f, root))
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# rtlint baseline: grandfathered findings. Entries here do not fail\n")
	b.WriteString("# the build; remove lines as the violations are fixed.\n")
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
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
