package main

import (
	"math/rand"

	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// renumbered returns a copy of f whose variables are renumbered by a
// strictly increasing map with seed-drawn gaps. The question and the
// relative order of variables stay the same; the canonical hash changes.
// (A random permutation would be a harsher test but changes HQS runtimes on
// the adder family by up to 40x, turning the seed into noise.)
func renumbered(f *dqbf.Formula, rng *rand.Rand) *dqbf.Formula {
	ids := make([]cnf.Var, f.Matrix.NumVars+1)
	next := cnf.Var(0)
	for v := 1; v < len(ids); v++ {
		next += cnf.Var(1 + rng.Intn(2))
		ids[v] = next
	}
	g := dqbf.New()
	for _, x := range f.Univ {
		g.AddUniversal(ids[x])
	}
	for _, y := range f.Exist {
		deps := f.Deps[y].Vars()
		for i, x := range deps {
			deps[i] = ids[x]
		}
		g.AddExistential(ids[y], deps...)
	}
	g.Matrix.NumVars = int(next)
	for _, c := range f.Matrix.Clauses {
		lits := make([]cnf.Lit, len(c))
		for j, l := range c {
			lits[j] = cnf.NewLit(ids[l.Var()], l.Neg())
		}
		g.Matrix.AddClause(lits...)
	}
	return g
}
