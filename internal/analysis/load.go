package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Loader type-checks every package of a module using only the standard
// library: module-internal imports resolve by directory layout, everything
// else goes through the source importer. Two passes are made per package —
// a plain pass (no test files) that populates the import graph, and an
// analysis pass that re-checks the package together with its in-package
// _test.go files. Files the default build context excludes (another GOOS
// or GOARCH, by file name or //go:build line) are skipped, as go build
// skips them.
//
// LoadAll fans the work across a worker pool in three phases: parallel
// parsing (the FileSet is safe for concurrent use), a serial import warm-up
// that populates the plain-package cache bottom-up (the stdlib source
// importer is not safe for concurrent use, and first-loads are where cycle
// detection must be exact), then parallel with-tests type-checking, whose
// import lookups are all warm cache hits. Results land in
// directory-sorted slots, so finding order stays deterministic.
type Loader struct {
	Fset   *token.FileSet
	root   string // absolute module root (directory containing go.mod)
	module string // module path from go.mod

	stdMu sync.Mutex // srcimporter guard: it mutates internal caches
	std   types.Importer

	cacheMu sync.Mutex
	cache   map[string]*loadResult // plain packages by import path

	parseMu sync.Mutex
	parsed  map[string]*parsedDir // parse results by directory
}

type loadResult struct {
	pkg  *types.Package
	err  error
	done bool // false while the first load is still in flight (cycle marker)
}

// NewLoader builds a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		root:   abs,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		cache:  map[string]*loadResult{},
		parsed: map[string]*parsedDir{},
	}, nil
}

// Module returns the module import path.
func (l *Loader) Module() string { return l.module }

// Import resolves an import path for the type checker: module-internal
// paths load (and cache) the package from its source directory without test
// files; all other paths defer to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.dirFor(path); ok {
		l.cacheMu.Lock()
		r, cached := l.cache[path]
		if !cached {
			r = &loadResult{}
			l.cache[path] = r // pre-register: an import cycle fails below instead of recursing
			l.cacheMu.Unlock()
			pkg, err := l.typeCheck(dir, path, false, nil)
			l.cacheMu.Lock()
			r.pkg, r.err, r.done = pkg, err, true
		}
		l.cacheMu.Unlock()
		if r.err != nil {
			return nil, r.err
		}
		if !r.done || r.pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		return r.pkg, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}

func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.module {
		return l.root, true
	}
	if rest, ok := strings.CutPrefix(path, l.module+"/"); ok {
		return filepath.Join(l.root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// LoadAll walks the module tree and returns an analysis Pkg (test files
// included) for every Go package found.
func (l *Loader) LoadAll() ([]*Pkg, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "out") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	paths := make([]string, len(dirs))
	for i, dir := range dirs {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		paths[i] = l.module
		if rel != "." {
			paths[i] = l.module + "/" + filepath.ToSlash(rel)
		}
	}
	workers := loadWorkers()
	// Phase 1: parse every directory concurrently. parseDir caches by
	// directory, so the type-checking phases below are pure cache hits.
	runPool(workers, len(dirs), func(i int) {
		_, _, _ = l.parseDir(dirs[i])
	})
	// Phase 2: serial import warm-up. Loading each package's plain pass in
	// sorted order pulls every module-internal and stdlib dependency into
	// the caches exactly once, on one goroutine. Errors are not collected
	// here — the per-package pass below reports them with full context.
	for _, path := range paths {
		_, _ = l.Import(path)
	}
	// Phase 3: with-tests analysis passes in parallel. Slot results by
	// index so package (and finding) order is independent of scheduling.
	pkgSlots := make([]*Pkg, len(dirs))
	errSlots := make([]string, len(dirs))
	runPool(workers, len(dirs), func(i int) {
		p, err := l.LoadDir(dirs[i], paths[i])
		if err != nil {
			errSlots[i] = err.Error()
			return
		}
		pkgSlots[i] = p
	})
	var pkgs []*Pkg
	var errs []string
	for i := range dirs {
		if errSlots[i] != "" {
			errs = append(errs, errSlots[i])
			continue
		}
		if pkgSlots[i] != nil {
			pkgs = append(pkgs, pkgSlots[i])
		}
	}
	if len(errs) > 0 {
		return pkgs, fmt.Errorf("analysis: %d package(s) failed to load:\n%s", len(errs), strings.Join(errs, "\n"))
	}
	return pkgs, nil
}

// loadWorkers sizes the pool: enough to keep cores busy, capped so the
// srcimporter mutex does not just become a convoy.
func loadWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// runPool runs fn(0..n-1) across the given number of workers.
func runPool(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// LoadDir type-checks the package in dir together with its in-package test
// files and returns it ready for analysis. External test packages
// (package foo_test) are skipped — the repo has none, and they cannot share
// a type-checking pass with the package under test.
func (l *Loader) LoadDir(dir, path string) (*Pkg, error) {
	plain, test, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(plain) == 0 && len(test) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	base := ""
	if len(plain) > 0 {
		base = plain[0].Name.Name
	} else {
		base = strings.TrimSuffix(test[0].Name.Name, "_test")
	}
	files := append([]*ast.File{}, plain...)
	for _, f := range test {
		if f.Name.Name == base {
			files = append(files, f)
		}
	}
	info := newInfo()
	tpkg, err := l.typeCheck(dir, path, true, info)
	if err != nil {
		return nil, err
	}
	return &Pkg{
		Path:  path,
		Name:  tpkg.Name(),
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// typeCheck parses and checks the package in dir. withTests selects whether
// in-package _test.go files participate; info, when non-nil, receives the
// type-checking facts. Parsed files are cached per (dir, test-ness) via the
// shared FileSet, so the plain and analysis passes re-parse at most once.
func (l *Loader) typeCheck(dir, path string, withTests bool, info *types.Info) (*types.Package, error) {
	plain, test, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	files := append([]*ast.File{}, plain...)
	if withTests {
		base := ""
		if len(plain) > 0 {
			base = plain[0].Name.Name
		}
		for _, f := range test {
			if base == "" || f.Name.Name == base {
				files = append(files, f)
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files for %q in %s", path, dir)
	}
	var errs []string
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if len(errs) < 20 {
				errs = append(errs, err.Error())
			}
		},
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s:\n  %s", path, strings.Join(errs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: checking %s: %w", path, err)
	}
	return tpkg, nil
}

// parsedDir caches parse results so the plain and with-tests passes share
// ASTs (identity matters: Pkg.Files positions must match Info facts).
type parsedDir struct {
	plain, test []*ast.File
}

func (l *Loader) parseDir(dir string) (plain, test []*ast.File, err error) {
	l.parseMu.Lock()
	if pd, ok := l.parsed[dir]; ok {
		l.parseMu.Unlock()
		return pd.plain, pd.test, nil
	}
	l.parseMu.Unlock()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	pd := &parsedDir{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			pd.test = append(pd.test, f)
		} else {
			pd.plain = append(pd.plain, f)
		}
	}
	// Double-checked insert: if another worker parsed this directory while
	// we did, its ASTs win — file identity must be stable across the plain
	// and with-tests passes (Info facts are keyed by node pointer).
	l.parseMu.Lock()
	defer l.parseMu.Unlock()
	if prior, ok := l.parsed[dir]; ok {
		return prior.plain, prior.test, nil
	}
	l.parsed[dir] = pd
	return pd.plain, pd.test, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") &&
			!strings.HasPrefix(e.Name(), ".") && !strings.HasPrefix(e.Name(), "_") {
			return true
		}
	}
	return false
}
