package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deadCodeCheck reports library declarations with no production use, so
// dead code fails the lint instead of waiting for a manual scan. It tracks
// every func, method, type, var and const declared in a non-test file of a
// Config.FlowScope package and reports one that neither a non-test file
// anywhere nor another package's _test.go uses (so shared test helpers need
// no annotation). Uses count over every loaded package, whatever packages
// the run reports on. A use inside the declaration itself does not count;
// for a type, neither does one in its own methods. A method is exempt when
// its name is a method of any interface type in the loaded program or one
// in dynamicMethods; init, main and blank names are exempt.
func deadCodeCheck() Check {
	return Check{
		Name:    "deadcode",
		Doc:     "library declarations need a use outside their own package's tests",
		Program: runDeadCode,
	}
}

// dynamicMethods are method names the standard library calls through an
// interface it declares or by reflection (fmt, errors, encoding/json).
var dynamicMethods = map[string]bool{
	"String": true, "Error": true, "Is": true, "As": true, "Unwrap": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

type deadDecl struct {
	owner *Pkg
	name  string // "Foo", or "T.m" for a method
	used  bool
}

func runDeadCode(cfg *Config, all []*Pkg) func(p *Pkg) []Finding {
	ifaces := interfaceMethodNames(all)
	// Keyed by the name's position, which every type-checking pass of a
	// package shares (an instantiated generic keeps its origin's, too).
	decls := map[token.Pos]*deadDecl{}
	for _, p := range all {
		if cfg.FlowScope != nil && !cfg.FlowScope(p) {
			continue
		}
		for _, f := range p.Files {
			if !p.IsTestFile(f.Pos()) {
				eachUnit(f, func(_ ast.Node, names []*ast.Ident) {
					for _, id := range names {
						if name := deadCandidate(p, id, ifaces); name != "" {
							decls[id.Pos()] = &deadDecl{owner: p, name: name}
						}
					}
				})
			}
		}
	}
	for _, q := range all {
		for _, f := range q.Files {
			test := q.IsTestFile(f.Pos())
			eachUnit(f, func(u ast.Node, names []*ast.Ident) {
				self := map[token.Pos]bool{} // the unit's names and a method's receiver type
				for _, id := range names {
					self[id.Pos()] = true
					if named := recvNamed(q.Info.Defs[id]); named != nil {
						self[named.Obj().Pos()] = true
					}
				}
				ast.Inspect(u, func(n ast.Node) bool {
					id, _ := n.(*ast.Ident)
					obj := q.Info.Uses[id]
					if obj == nil || self[obj.Pos()] {
						return true
					}
					if d := decls[obj.Pos()]; d != nil && !(test && d.owner == q) {
						d.used = true
					}
					return true
				})
			})
		}
	}
	return func(p *Pkg) []Finding {
		var out []Finding
		for pos, d := range decls {
			if d.owner == p && !d.used {
				out = append(out, finding(p, pos, "deadcode", "%s has no use outside its own package's tests", d.name))
			}
		}
		return out
	}
}

// eachUnit calls fn with each unit self-use is judged by, and the names it
// declares: every FuncDecl and every spec of a GenDecl, so two types
// declared in one group can still use each other.
func eachUnit(f *ast.File, fn func(u ast.Node, names []*ast.Ident)) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			fn(d, []*ast.Ident{d.Name})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					fn(s, []*ast.Ident{s.Name})
				case *ast.ValueSpec:
					fn(s, s.Names)
				}
			}
		}
	}
}

// deadCandidate names the declaration id for a finding, or returns ""
// when deadcode does not track it.
func deadCandidate(p *Pkg, id *ast.Ident, ifaces map[string]bool) string {
	obj := p.Info.Defs[id]
	named := recvNamed(obj)
	switch {
	case obj == nil || id.Name == "_":
		return ""
	case named != nil && (ifaces[id.Name] || dynamicMethods[id.Name]):
		return ""
	case named != nil:
		return named.Obj().Name() + "." + id.Name
	case id.Name == "init" || id.Name == "main" && p.Name == "main":
		return ""
	}
	return id.Name
}

// recvNamed returns the receiver base type of a method, or nil.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// interfaceMethodNames collects the method names of every interface type
// the loaded program declares or mentions, standard library ones included.
func interfaceMethodNames(all []*Pkg) map[string]bool {
	names := map[string]bool{}
	for _, p := range all {
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					names[it.Method(i).Name()] = true
				}
			}
		}
	}
	return names
}
