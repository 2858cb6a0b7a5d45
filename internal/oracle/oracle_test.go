package oracle_test

import (
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/cnf"
	"repro/internal/oracle"
	"repro/internal/sat"
)

// TestIncrementalQueries drives several roots through one oracle and checks
// the reuse counters: one rebuild ever, every query after the first counted
// incremental, and Tseitin pushed as a delta (the second root re-encodes
// nothing below the shared cone).
func TestIncrementalQueries(t *testing.T) {
	g := aig.New()
	a, b, c := g.Input(1), g.Input(2), g.Input(3)
	o := oracle.New(g)

	ab := g.And(a, b)
	satisfiable, model, err := o.IsSatisfiable(ab, nil)
	if err != nil || !satisfiable {
		t.Fatalf("IsSatisfiable(a∧b) = %v, %v; want true", satisfiable, err)
	}
	if !model[1] || !model[2] {
		t.Fatalf("model %v does not satisfy a∧b", model)
	}
	encodedAfterFirst := o.Stats().EncodedNodes

	abc := g.And(ab, c)
	satisfiable, model, err = o.IsSatisfiable(abc, nil)
	if err != nil || !satisfiable {
		t.Fatalf("IsSatisfiable(a∧b∧c) = %v, %v; want true", satisfiable, err)
	}
	if !model[1] || !model[2] || !model[3] {
		t.Fatalf("model %v does not satisfy a∧b∧c", model)
	}
	contradiction := g.And(ab, a.Not())
	satisfiable, _, err = o.IsSatisfiable(contradiction, nil)
	if err != nil || satisfiable {
		t.Fatalf("IsSatisfiable(a∧b∧¬a) = %v, %v; want false", satisfiable, err)
	}

	st := o.Stats()
	if st.Queries != 3 || st.Incremental != 2 || st.Rebuilds != 1 {
		t.Fatalf("stats = %+v; want 3 queries, 2 incremental, 1 rebuild", st)
	}
	if st.EncodedNodes <= encodedAfterFirst {
		t.Fatalf("EncodedNodes %d did not grow past first query's %d", st.EncodedNodes, encodedAfterFirst)
	}
	if st.ArenaBytesHW <= 0 {
		t.Fatalf("ArenaBytesHW = %d; want > 0", st.ArenaBytesHW)
	}
	cm := st.Counters()
	if cm["oracle_queries"] != 3 || cm["oracle_incremental"] != 2 {
		t.Fatalf("Counters() = %v", cm)
	}
}

// TestConstRoots checks the constant shortcuts never touch the solver.
func TestConstRoots(t *testing.T) {
	o := oracle.New(aig.New())
	if ok, m, err := o.IsSatisfiable(aig.True, nil); !ok || err != nil || m == nil {
		t.Fatalf("True: %v %v %v", ok, m, err)
	}
	if ok, _, err := o.IsSatisfiable(aig.False, nil); ok || err != nil {
		t.Fatalf("False: %v %v", ok, err)
	}
	if st := o.Stats(); st.Queries != 0 {
		t.Fatalf("constant roots must not issue queries, got %+v", st)
	}
}

// TestFailedAssumptionsSubset checks conflict-set extraction over assumption
// queries: only the responsible assumptions appear, negated.
func TestFailedAssumptionsSubset(t *testing.T) {
	g := aig.New()
	a, b, c := g.Input(1), g.Input(2), g.Input(3)
	o := oracle.New(g)

	root := o.Lit(g.And(a, b)) // forces a and b when assumed
	irrelevant := o.Lit(c)     // free
	la := o.Lit(a)

	st, err := o.QueryAssuming([]cnf.Lit{root, irrelevant, la.Not()}, nil)
	if err != nil || st != sat.Unsat {
		t.Fatalf("query = %v, %v; want Unsat", st, err)
	}
	failed := o.FailedAssumptions()
	if len(failed) == 0 {
		t.Fatal("empty conflict set")
	}
	for _, l := range failed {
		if l == irrelevant.Not() {
			t.Fatalf("irrelevant assumption reported in conflict set %v", failed)
		}
		if l != root.Not() && l != la {
			t.Fatalf("conflict set %v contains literal outside the negated assumptions", failed)
		}
	}
}

// TestScopeRetraction exercises the activation-literal protocol end to end:
// scratch clauses constrain only while their scope literal is assumed,
// CloseScope retracts them without rebuilding, and conflict-set extraction
// still works after retraction — assuming a closed scope's literal conflicts
// with the top-level retraction unit and the conflict set names it.
func TestScopeRetraction(t *testing.T) {
	g := aig.New()
	a := g.Input(1)
	o := oracle.New(g)
	la := o.Lit(a)

	act := o.OpenScope()
	o.AddScoped(act, la)       // scope forces a
	o.AddScoped(act, la.Not()) // ... and ¬a: contradictory inside the scope

	st, err := o.QueryAssuming([]cnf.Lit{act}, nil)
	if err != nil || st != sat.Unsat {
		t.Fatalf("query under contradictory scope = %v, %v; want Unsat", st, err)
	}

	// Without the scope the solver is unconstrained again.
	st, err = o.QueryAssuming([]cnf.Lit{la}, nil)
	if err != nil || st != sat.Sat {
		t.Fatalf("query outside scope = %v, %v; want Sat", st, err)
	}

	o.CloseScope(act)
	st, err = o.QueryAssuming([]cnf.Lit{la.Not()}, nil)
	if err != nil || st != sat.Sat {
		t.Fatalf("query after retraction = %v, %v; want Sat", st, err)
	}

	// Conflict-set extraction after retraction: act is now falsified at the
	// top level, so assuming it must fail with act in the extracted set.
	st, err = o.QueryAssuming([]cnf.Lit{act, la}, nil)
	if err != nil || st != sat.Unsat {
		t.Fatalf("assuming a retracted scope = %v, %v; want Unsat", st, err)
	}
	failed := o.FailedAssumptions()
	found := false
	for _, l := range failed {
		if l.Var() == act.Var() {
			found = true
		}
		if l == la.Not() {
			t.Fatalf("conflict set %v blames the satisfiable literal, not the retracted scope", failed)
		}
	}
	if !found {
		t.Fatalf("conflict set %v does not name the retracted scope literal", failed)
	}

	if st := o.Stats(); st.Scopes != 1 {
		t.Fatalf("Scopes = %d; want 1", st.Scopes)
	}
}

// TestProveEquiv checks both verdicts of the sweep-oracle interface on
// structurally distinct roots.
func TestProveEquiv(t *testing.T) {
	g := aig.New()
	a, b := g.Input(1), g.Input(2)
	o := oracle.New(g)

	ab := g.And(a, b)
	redundant := g.And(ab, a) // ≡ a∧b, but a distinct node
	if redundant == ab {
		t.Fatal("test needs structurally distinct, semantically equal roots")
	}
	proven, calls, cex := o.ProveEquiv(ab, redundant, 0, nil)
	if !proven || calls != 2 || cex != nil {
		t.Fatalf("ProveEquiv(a∧b, (a∧b)∧a) = %v in %d calls, cex %v; want proven in 2, no cex", proven, calls, cex)
	}

	// A refutation hands back an input vector that separates the pair.
	ac := g.And(a, g.Input(3))
	for _, rhs := range []aig.Ref{a, ac, ac.Not()} {
		proven, calls, cex = o.ProveEquiv(ab, rhs, 0, nil)
		if proven {
			t.Fatalf("ProveEquiv(a∧b, %v) must fail", rhs)
		}
		if calls < 1 || calls > 2 {
			t.Fatalf("calls = %d; want 1 or 2", calls)
		}
		in := func(v cnf.Var) bool { return cex[v] }
		if g.Eval(ab, in) == g.Eval(rhs, in) {
			t.Fatalf("cex %v does not separate a∧b from %v", cex, rhs)
		}
	}

	if arena, _ := o.Footprint(); arena <= 0 {
		t.Fatalf("Footprint arena = %d; want > 0", arena)
	}
}

// TestSweepWithPoolMatchesFreshSolvers sweeps random sparse cones with one
// simulation word, once through persistent pool oracles and once on fresh
// per-sweep solvers: counterexamples from either kind of model must refute
// candidates without changing the proven merge set.
func TestSweepWithPoolMatchesFreshSolvers(t *testing.T) {
	build := func(seed int64) (*aig.Graph, aig.Ref) {
		rnd := rand.New(rand.NewSource(seed))
		g := aig.New()
		var cubes []aig.Ref
		for k := 0; k < 30; k++ {
			cube := aig.True
			for j := 3 + rnd.Intn(3); j > 0; j-- {
				cube = g.And(cube, g.Input(cnf.Var(1+rnd.Intn(8))).XorSign(rnd.Intn(2) == 0))
			}
			cubes = append(cubes, cube)
		}
		return g, g.OrN(cubes...)
	}
	refuted := 0
	for seed := int64(0); seed < 20; seed++ {
		workers := 1 + int(seed%3)
		gf, rf := build(seed)
		fresh, fst := gf.Sweep(rf, aig.SweepOptions{SimWords: 1, Workers: workers})
		gp, rp := build(seed)
		pooled, pst := gp.Sweep(rp, aig.SweepOptions{SimWords: 1, Workers: workers, Oracles: oracle.NewPool(gp)})
		if pooled != fresh || pst.Merged != fst.Merged || pst.Candidates != fst.Candidates {
			t.Fatalf("seed %d: pooled sweep %v (%+v) differs from fresh %v (%+v)", seed, pooled, pst, fresh, fst)
		}
		if pst.SatCalls > 2*(pst.Candidates-pst.Refuted) {
			t.Fatalf("seed %d: %d SAT calls for %d candidates, %d refuted", seed, pst.SatCalls, pst.Candidates, pst.Refuted)
		}
		refuted += pst.Refuted
	}
	if refuted == 0 {
		t.Fatal("no candidate was refuted by a stored counterexample")
	}
}

// TestPoolWorkerIdentity checks that a pool hands each worker index a stable
// oracle and aggregates their stats.
func TestPoolWorkerIdentity(t *testing.T) {
	g := aig.New()
	a, b := g.Input(1), g.Input(2)
	ab := g.And(a, b)
	redundant := g.And(ab, b)
	p := oracle.NewPool(g)

	w0 := p.WorkerOracle(0)
	if p.WorkerOracle(0) != w0 {
		t.Fatal("worker 0 must get the same oracle every time")
	}
	w2 := p.WorkerOracle(2)
	if w2 == w0 || p.WorkerOracle(1) == w2 {
		t.Fatal("distinct worker indices must get distinct oracles")
	}

	if proven, _, _ := w0.ProveEquiv(ab, redundant, 0, nil); !proven {
		t.Fatal("worker oracle failed a provable equivalence")
	}
	if ok, _, err := p.Main().IsSatisfiable(ab, nil); !ok || err != nil {
		t.Fatalf("main oracle: %v %v", ok, err)
	}

	st := p.Stats()
	if st.Queries != 3 {
		t.Fatalf("pool queries = %d; want 3 (2 worker + 1 main)", st.Queries)
	}
	if st.Rebuilds != 4 {
		t.Fatalf("pool rebuilds = %d; want 4 (main + workers 0..2)", st.Rebuilds)
	}
}

// TestStatsAdd checks flow-vs-high-water aggregation.
func TestStatsAdd(t *testing.T) {
	a := oracle.Stats{Queries: 2, Incremental: 1, Rebuilds: 1, LearntsRetained: 10, ArenaBytesHW: 100}
	b := oracle.Stats{Queries: 3, Rebuilds: 1, LearntsRetained: 4, ArenaBytesHW: 700}
	a.Add(b)
	if a.Queries != 5 || a.Incremental != 1 || a.Rebuilds != 2 {
		t.Fatalf("sums wrong: %+v", a)
	}
	if a.LearntsRetained != 10 || a.ArenaBytesHW != 700 {
		t.Fatalf("high-water marks wrong: %+v", a)
	}
}

// randomGraph returns a random AIG over inputs 1..inputs and the refs of
// its inputs and AND nodes.
func randomGraph(rnd *rand.Rand, inputs, ands int) (*aig.Graph, []aig.Ref) {
	g := aig.New()
	var refs []aig.Ref
	for v := 1; v <= inputs; v++ {
		refs = append(refs, g.Input(cnf.Var(v)))
	}
	for len(refs) < inputs+ands {
		a := refs[rnd.Intn(len(refs))].XorSign(rnd.Intn(2) == 0)
		b := refs[rnd.Intn(len(refs))].XorSign(rnd.Intn(2) == 0)
		if r := g.And(a, b); !r.IsConst() {
			refs = append(refs, r)
		}
	}
	return g, refs
}

// equivalentByTable decides lhs ≡ rhs over every assignment of the inputs.
func equivalentByTable(g *aig.Graph, inputs int, lhs, rhs aig.Ref) bool {
	for bits := 0; bits < 1<<inputs; bits++ {
		in := func(v cnf.Var) bool { return bits>>(v-1)&1 == 1 }
		if g.Eval(lhs, in) != g.Eval(rhs, in) {
			return false
		}
	}
	return true
}

// TestScopedProveEquivSound poses many pair queries on one persistent
// oracle, whose queries are cone-scoped, and checks every verdict against
// the truth table and against a twin oracle that answers unscoped (it has
// opened an activation scope). Every refutation's counterexample must
// separate the pair. Afterwards, unscoped queries on the same solver must
// still agree with the truth table.
func TestScopedProveEquivSound(t *testing.T) {
	const inputs = 6
	rnd := rand.New(rand.NewSource(11))
	for round := 0; round < 8; round++ {
		g, refs := randomGraph(rnd, inputs, 60)
		o, twin := oracle.New(g), oracle.New(g)
		twin.OpenScope()
		pick := func() aig.Ref { return refs[rnd.Intn(len(refs))].XorSign(rnd.Intn(2) == 0) }
		for q := 0; q < 120; q++ {
			lhs, rhs := pick(), pick()
			want := equivalentByTable(g, inputs, lhs, rhs)
			proven, _, cex := o.ProveEquiv(lhs, rhs, 0, nil)
			if twinProven, _, _ := twin.ProveEquiv(lhs, rhs, 0, nil); twinProven != want {
				t.Fatalf("round %d: unscoped ProveEquiv = %v, truth table %v", round, twinProven, want)
			}
			if proven != want {
				t.Fatalf("round %d query %d: scoped ProveEquiv = %v, truth table %v", round, q, proven, want)
			}
			if !proven {
				in := func(v cnf.Var) bool { return cex[v] }
				if g.Eval(lhs, in) == g.Eval(rhs, in) {
					t.Fatalf("round %d query %d: cex %v does not separate the pair", round, q, cex)
				}
			}
		}
		if o.Stats().Scoped == 0 || twin.Stats().Scoped != 0 {
			t.Fatalf("round %d: scoped query counts %d and %d; want > 0 and 0", round, o.Stats().Scoped, twin.Stats().Scoped)
		}
		if st, err := o.Solver().SolveErr(nil); st != sat.Sat || err != nil {
			t.Fatalf("round %d: full solve after scoped queries = %v, %v", round, st, err)
		}
		for q := 0; q < 20; q++ {
			lhs, rhs := pick(), pick()
			satisfiable, _, err := o.IsSatisfiable(g.Xor(lhs, rhs), nil)
			if err != nil || satisfiable == equivalentByTable(g, inputs, lhs, rhs) {
				t.Fatalf("round %d: unscoped miter query = %v, %v after scoped queries", round, satisfiable, err)
			}
		}
	}
}

// TestActivationScopeDisablesScopedQueries checks the fallback: an oracle
// that has ever held activation-guarded clauses no longer meets the
// Tseitin-only contract, so its equivalence queries run unscoped.
func TestActivationScopeDisablesScopedQueries(t *testing.T) {
	g := aig.New()
	a, b := g.Input(1), g.Input(2)
	ab := g.And(a, b)
	redundant := g.And(ab, a)
	o := oracle.New(g)
	if proven, _, _ := o.ProveEquiv(ab, redundant, 0, nil); !proven {
		t.Fatal("fresh oracle failed a provable equivalence")
	}
	if st := o.Stats(); st.Scoped != 2 {
		t.Fatalf("fresh oracle: %d scoped queries; want 2", st.Scoped)
	}
	o.CloseScope(o.OpenScope())
	if proven, _, _ := o.ProveEquiv(ab, redundant, 0, nil); !proven {
		t.Fatal("oracle with a retired scope failed a provable equivalence")
	}
	if st := o.Stats(); st.Scoped != 2 || st.Queries != 4 {
		t.Fatalf("after OpenScope: %d of %d queries scoped; want 2 of 4", st.Scoped, st.Queries)
	}
}
