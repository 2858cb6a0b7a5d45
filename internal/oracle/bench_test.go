package oracle_test

import (
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/oracle"
)

// sweepMiter returns the miter of a ripple-carry and a carry-lookahead
// n-bit adder over shared inputs, together with the candidate pairs a SAT
// sweep of it checks: every cone node paired with the first node of its
// 64-pattern simulation class, in topological order.
func sweepMiter(n int) (*aig.Graph, aig.Ref, [][2]aig.Ref) {
	g := aig.New()
	build := func(c *circuit.Circuit) []aig.Ref {
		inVar := make(map[int]cnf.Var)
		for i, id := range c.Inputs {
			inVar[id] = cnf.Var(i + 1)
		}
		refs := c.ToAIG(g, func(id int) cnf.Var { return inVar[id] })
		out := make([]aig.Ref, len(c.Outputs))
		for i, id := range c.Outputs {
			out[i] = refs[id]
		}
		return out
	}
	rca, cla := build(circuit.RippleCarryAdder(n)), build(circuit.CarryLookaheadAdder(n))
	var diffs []aig.Ref
	for i := range rca {
		diffs = append(diffs, g.Xor(rca[i], cla[i]))
	}
	miter := g.OrN(diffs...)

	rnd := rand.New(rand.NewSource(1))
	patterns := make(map[cnf.Var]uint64)
	for v := 1; v <= 2*n+1; v++ {
		patterns[cnf.Var(v)] = rnd.Uint64()
	}
	class := make(map[uint64]aig.Ref)
	var pairs [][2]aig.Ref
	for _, r := range g.ConeRefs(miter) {
		sig := g.Simulate(r, patterns)
		if sig&1 == 1 {
			r, sig = r.Not(), ^sig
		}
		if rep, ok := class[sig]; ok {
			pairs = append(pairs, [2]aig.Ref{rep, r})
		} else {
			class[sig] = r
		}
	}
	return g, miter, pairs
}

// BenchmarkProveEquiv measures the sweep oracle's per-query cost: one
// persistent oracle, with the miter already encoded, answers every
// candidate pair of an adder miter in sweep order. The scoped arm is
// ProveEquiv as the sweep uses it; the unscoped arm is the same oracle
// after an activation scope, which forces whole-solver queries.
func BenchmarkProveEquiv(b *testing.B) {
	g, miter, pairs := sweepMiter(16)
	for _, arm := range []struct {
		name     string
		unscoped bool
	}{{"scoped", false}, {"unscoped", true}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			proven := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				o := oracle.New(g)
				o.Lit(miter)
				if arm.unscoped {
					o.OpenScope()
				}
				b.StartTimer()
				for _, p := range pairs {
					if ok, _, _ := o.ProveEquiv(p[0], p[1], 0, nil); ok {
						proven++
					}
				}
			}
			if proven == 0 {
				b.Fatal("no candidate pair was proven equivalent")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/query")
			b.ReportMetric(float64(len(pairs)), "pairs")
		})
	}
}
