package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The corpus self-test: every check must fire on its seeded violations
// (lines carrying a `// want "regex"` comment) and stay silent on the
// compliant twins in the same corpus package.

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

func corpusConfig(module string) *Config {
	cfg := DefaultConfig(module)
	cfg.PanicScope = func(*Pkg) bool { return true } // corpus dirs are outside internal/
	cfg.FlowScope = func(*Pkg) bool { return true }
	cfg.FloatEqApproved["almostEqual"] = true
	return cfg
}

func checkByName(t *testing.T, name string) Check {
	t.Helper()
	for _, c := range AllChecks() {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no check named %q", name)
	return Check{}
}

func TestCorpus(t *testing.T) {
	root := repoRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := corpusConfig(loader.Module())
	cases := []struct {
		check string
		dirs  []string
	}{
		{"sharedforward", []string{"sharedforward/src"}},
		{"globalrand", []string{"globalrand/det", "globalrand/allowed", "globalrand/obsdet", "globalrand/fabricnet", "globalrand/chaosprng", "globalrand/tracectx"}},
		{"floateq", []string{"floateq/src"}},
		{"panicpolicy", []string{"panicpolicy/src"}},
		{"gradcoverage", []string{"gradcoverage/src"}},
		{"goroutinelife", []string{"goroutinelife/src"}},
		{"lockheld", []string{"lockheld/src"}},
		{"ctxflow", []string{"ctxflow/src"}},
		{"deadcode", []string{"deadcode/lib", "deadcode/user"}},
	}
	for _, tc := range cases {
		t.Run(tc.check, func(t *testing.T) {
			pkgs, dirs := loadCorpus(t, loader, tc.dirs...)
			findings, _ := RunTimed(cfg, pkgs, nil, []Check{checkByName(t, tc.check)})
			matchWants(t, dirs, findings)
		})
	}
}

// loadCorpus loads corpus packages (directories under testdata) as one
// program and returns them with their absolute directories.
func loadCorpus(t *testing.T, loader *Loader, dirs ...string) ([]*Pkg, []string) {
	t.Helper()
	root := repoRoot(t)
	var pkgs []*Pkg
	var abs []string
	for _, dir := range dirs {
		d := filepath.Join(root, "internal", "analysis", "testdata", filepath.FromSlash(dir))
		p, err := loader.LoadDir(d, "corpus/"+strings.ReplaceAll(dir, "/", "_"))
		if err != nil {
			t.Fatalf("loading corpus %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
		abs = append(abs, d)
	}
	return pkgs, abs
}

// TestDeadcodeFilteredRunMatchesFullRun: package patterns only choose which
// packages to report on. The use index still spans every loaded package, so
// reporting on the corpus library alone finds exactly what the whole corpus
// run finds there — a declaration only package user calls stays unreported.
func TestDeadcodeFilteredRunMatchesFullRun(t *testing.T) {
	loader, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, dirs := loadCorpus(t, loader, "deadcode/lib", "deadcode/user")
	cfg := corpusConfig(loader.Module())
	checks := []Check{checkByName(t, "deadcode")}
	full, _ := RunTimed(cfg, pkgs, nil, checks)
	filtered, _ := RunTimed(cfg, pkgs, func(p *Pkg) bool { return p == pkgs[0] }, checks)
	var want []string
	for _, f := range full {
		if filepath.Dir(f.Pos.Filename) == dirs[0] {
			want = append(want, f.String())
		}
	}
	var got []string
	for _, f := range filtered {
		got = append(got, f.String())
	}
	if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("filtered run found:\n%s\nfull run found in the library:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestDeadcodeTracksModuleRoot: under the repository's scope (library code
// under internal/), deadcode also tracks the package an in-scope internal/
// tree belongs to, the module's root package, though it lies outside
// internal/. The corpus library is loaded as corpusmod/internal/lib and the
// facade as corpusmod itself; package user, outside internal/ and no
// tree's root, is only a source of uses.
func TestDeadcodeTracksModuleRoot(t *testing.T) {
	root := repoRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Pkg
	var dirs []string
	for _, c := range []struct{ dir, path string }{
		{"facade", "corpusmod"},
		{"lib", "corpusmod/internal/lib"},
		{"user", "corpus/deadcode_user"},
	} {
		d := filepath.Join(root, "internal", "analysis", "testdata", "deadcode", c.dir)
		p, err := loader.LoadDir(d, c.path)
		if err != nil {
			t.Fatalf("loading corpus %s: %v", c.dir, err)
		}
		pkgs = append(pkgs, p)
		dirs = append(dirs, d)
	}
	findings, _ := RunTimed(DefaultConfig("corpusmod"), pkgs, nil, []Check{checkByName(t, "deadcode")})
	matchWants(t, dirs, findings)
}

// matchWants pairs findings against the `// want` comments in dirs: every
// finding must be expected on its line, and every expectation must fire.
func matchWants(t *testing.T, dirs []string, findings []Finding) {
	t.Helper()
	type want struct {
		key     string // filename:line
		re      *regexp.Regexp
		matched bool
	}
	var wants []*want
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			name := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				if m := wantRE.FindStringSubmatch(line); m != nil {
					wants = append(wants, &want{
						key: fmt.Sprintf("%s:%d", name, i+1),
						re:  regexp.MustCompile(m[1]),
					})
				}
			}
		}
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		text := f.Check + ": " + f.Msg
		found := false
		for _, w := range wants {
			if w.key == key && w.re.MatchString(text) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding at %s: %s", key, text)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("expected finding at %s matching %q did not fire", w.key, w.re)
		}
	}
}

// TestSeededScratch is the engine canary: the scratch corpus deliberately
// seeds one goroutine leak, one blocking-under-lock, and one ctx re-root.
// If any of the three checks goes silent on it, the analyzer — not the
// repo — regressed.
func TestSeededScratch(t *testing.T) {
	root := repoRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "analysis", "testdata", "scratch", "src")
	p, err := loader.LoadDir(dir, "corpus/scratch_src")
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := RunTimed(corpusConfig(loader.Module()), []*Pkg{p}, nil, AllChecks())
	caught := map[string]bool{}
	for _, f := range findings {
		caught[f.Check] = true
	}
	for _, want := range []string{"goroutinelife", "lockheld", "ctxflow"} {
		if !caught[want] {
			t.Errorf("seeded %s bug in scratch corpus was not caught; findings: %v", want, findings)
		}
	}
}

func TestMalformedSuppression(t *testing.T) {
	root := repoRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "analysis", "testdata", "ignore", "src")
	p, err := loader.LoadDir(dir, "corpus/ignore_src")
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := RunTimed(corpusConfig(loader.Module()), []*Pkg{p}, nil, nil)
	if len(findings) != 1 || findings[0].Check != "ignore" {
		t.Fatalf("want exactly the malformed-ignore finding, got %v", findings)
	}
}

func pos(file string, line int) (p token.Position) {
	p.Filename = file
	p.Line = line
	p.Column = 1
	return p
}
