package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the dataflow layer over the CFG: a generic forward worklist
// solver plus the reaching-definitions pass the checks share. Facts are
// per-block (block granularity is enough for the checks: within a block
// the transfer function walks nodes in order and can act at each one).

// ForwardSolve runs a forward dataflow analysis to a fixed point.
//
//   - entry is the fact at the function entry.
//   - transfer folds one block's nodes over an incoming fact and returns
//     the outgoing fact. It must not mutate in.
//   - join merges two facts at a control-flow merge point.
//   - equal decides convergence.
//
// The returned map holds the IN fact of every reachable block.
func ForwardSolve[T any](
	c *CFG,
	entry T,
	transfer func(b *Block, in T) T,
	join func(a, b T) T,
	equal func(a, b T) bool,
) map[*Block]T {
	in := map[*Block]T{c.Entry: entry}
	out := map[*Block]T{}
	work := []*Block{c.Entry}
	queued := map[*Block]bool{c.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		o := transfer(b, in[b])
		prev, seen := out[b]
		if seen && equal(prev, o) {
			continue
		}
		out[b] = o
		for _, s := range b.Succs {
			cur, ok := in[s]
			ni := o
			if ok {
				ni = join(cur, o)
			}
			if !ok || !equal(cur, ni) {
				in[s] = ni
				if !queued[s] {
					queued[s] = true
					work = append(work, s)
				}
			}
		}
	}
	return in
}

// Def is one definition of a variable: the node that assigns it and the
// right-hand side it was assigned from (nil for definitions with no usable
// expression — e.g. range clauses or multi-value unpacking).
type Def struct {
	Var *types.Var
	Pos token.Pos
	Rhs ast.Expr
}

// ReachingDefs maps, per block, each variable to the definitions that
// reach the block entry. Parameters and other free variables get a
// synthetic entry definition with Rhs nil and Pos = the variable's
// declaration, so "defined outside the body" is distinguishable from
// "never defined".
type ReachingDefs map[*Block]map[*types.Var][]Def

// SolveReachingDefs computes reaching definitions for a function body's
// CFG. params seeds the entry fact (typically the function's parameters
// and captured variables relevant to the client).
func SolveReachingDefs(p *Pkg, c *CFG, params []*types.Var) ReachingDefs {
	entry := map[*types.Var][]Def{}
	for _, v := range params {
		entry[v] = []Def{{Var: v, Pos: v.Pos()}}
	}
	type fact = map[*types.Var][]Def
	clone := func(f fact) fact {
		n := make(fact, len(f))
		for k, v := range f {
			n[k] = v
		}
		return n
	}
	transfer := func(b *Block, in fact) fact {
		out := clone(in)
		for _, n := range b.Nodes {
			for _, d := range nodeDefs(p, n) {
				out[d.Var] = []Def{d} // strong update: this def kills prior ones
			}
		}
		return out
	}
	join := func(a, b fact) fact {
		out := clone(a)
		for v, defs := range b {
			out[v] = mergeDefs(out[v], defs)
		}
		return out
	}
	equal := func(a, b fact) bool {
		if len(a) != len(b) {
			return false
		}
		for v, da := range a {
			db, ok := b[v]
			if !ok || len(da) != len(db) {
				return false
			}
			for i := range da {
				if da[i].Pos != db[i].Pos {
					return false
				}
			}
		}
		return true
	}
	return ReachingDefs(ForwardSolve(c, entry, transfer, join, equal))
}

func mergeDefs(a, b []Def) []Def {
	seen := map[token.Pos]bool{}
	out := make([]Def, 0, len(a)+len(b))
	for _, d := range append(append([]Def{}, a...), b...) {
		if !seen[d.Pos] {
			seen[d.Pos] = true
			out = append(out, d)
		}
	}
	return out
}

// nodeDefs extracts the variable definitions a single CFG node performs.
// It looks only at the node itself (CFG nodes never contain nested
// bodies), covering assignments, short declarations, var specs, and range
// clause variables.
func nodeDefs(p *Pkg, n ast.Node) []Def {
	var out []Def
	add := func(id *ast.Ident, rhs ast.Expr, pos token.Pos) {
		if id == nil || id.Name == "_" {
			return
		}
		var v *types.Var
		if dv, ok := p.Info.Defs[id].(*types.Var); ok {
			v = dv
		} else if uv, ok := p.Info.Uses[id].(*types.Var); ok {
			v = uv
		}
		if v != nil {
			out = append(out, Def{Var: v, Pos: pos, Rhs: rhs})
		}
	}
	switch st := n.(type) {
	case *ast.AssignStmt:
		if len(st.Lhs) == len(st.Rhs) {
			for i, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					add(id, st.Rhs[i], st.TokPos)
				}
			}
		} else {
			// Multi-value: every LHS ident is defined by the same call; the
			// RHS is recorded so clients can still inspect the source call.
			var rhs ast.Expr
			if len(st.Rhs) == 1 {
				rhs = st.Rhs[0]
			}
			for _, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					add(id, rhs, st.TokPos)
				}
			}
		}
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return nil
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, id := range vs.Names {
				var rhs ast.Expr
				if i < len(vs.Values) {
					rhs = vs.Values[i]
				}
				add(id, rhs, id.Pos())
			}
		}
	case *ast.RangeStmt:
		if id, ok := st.Key.(*ast.Ident); ok {
			add(id, nil, st.For)
		}
		if id, ok := st.Value.(*ast.Ident); ok {
			add(id, nil, st.For)
		}
	case *ast.IncDecStmt:
		if id, ok := st.X.(*ast.Ident); ok {
			add(id, nil, st.TokPos)
		}
	}
	return out
}
