package sat

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// tseitinCircuit is a random AND-inverter circuit in CNF: variables
// 1..inputs are free inputs and every later variable g is a gate defined by
// g ↔ a ∧ b over signed earlier variables. Its clause set is exactly the
// kind SolveWithin's contract admits.
type tseitinCircuit struct {
	inputs int
	fanin  [][2]cnf.Lit // fanin[i] defines variable inputs+1+i
}

func randomCircuit(rng *rand.Rand, inputs, gates int) *tseitinCircuit {
	c := &tseitinCircuit{inputs: inputs}
	for i := 0; i < gates; i++ {
		n := inputs + i
		var f [2]cnf.Lit
		for k := range f {
			f[k] = cnf.NewLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0)
		}
		c.fanin = append(c.fanin, f)
	}
	return c
}

func (c *tseitinCircuit) numVars() int { return c.inputs + len(c.fanin) }

func (c *tseitinCircuit) formula() *cnf.Formula {
	f := cnf.NewFormula(c.numVars())
	for i, fi := range c.fanin {
		g := cnf.PosLit(cnf.Var(c.inputs + 1 + i))
		f.AddClause(g.Not(), fi[0])
		f.AddClause(g.Not(), fi[1])
		f.AddClause(g, fi[0].Not(), fi[1].Not())
	}
	return f
}

// cone returns the fanin-closed variable cone of roots.
func (c *tseitinCircuit) cone(roots ...cnf.Var) []cnf.Var {
	seen := make([]bool, c.numVars()+1)
	var out []cnf.Var
	for stack := roots; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
		if int(v) > c.inputs {
			f := c.fanin[int(v)-c.inputs-1]
			stack = append(stack, f[0].Var(), f[1].Var())
		}
	}
	return out
}

// eval returns the value of every variable under the input vector in.
func (c *tseitinCircuit) eval(in func(cnf.Var) bool) cnf.Assignment {
	a := cnf.NewAssignment(c.numVars())
	for v := 1; v <= c.inputs; v++ {
		a.Set(cnf.Var(v), in(cnf.Var(v)))
	}
	for i, f := range c.fanin {
		a.Set(cnf.Var(c.inputs+1+i), a.Lit(f[0]) && a.Lit(f[1]))
	}
	return a
}

// satisfiable decides the assumptions by truth table.
func (c *tseitinCircuit) satisfiable(assumps []cnf.Lit) bool {
	for bits := 0; bits < 1<<c.inputs; bits++ {
		a := c.eval(func(v cnf.Var) bool { return bits>>(v-1)&1 == 1 })
		ok := true
		for _, l := range assumps {
			ok = ok && a.Lit(l)
		}
		if ok {
			return true
		}
	}
	return false
}

// TestSolveWithinAgreesWithTruthTable poses many cone-scoped pair queries
// on one persistent solver and checks every verdict against the truth table
// and an unscoped twin solver, every scoped model against circuit
// evaluation, and, afterwards, that full unscoped solves on the same solver
// still agree: scoped queries must leave no unsound level-0 state behind.
func TestSolveWithinAgreesWithTruthTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 12; round++ {
		c := randomCircuit(rng, 6, 40)
		f := c.formula()
		scoped, plain := New(), New()
		scoped.AddFormula(f)
		plain.AddFormula(f)
		n := c.numVars()
		for q := 0; q < 150; q++ {
			x := cnf.Var(1 + rng.Intn(n))
			y := cnf.Var(1 + rng.Intn(n))
			assumps := []cnf.Lit{cnf.NewLit(x, rng.Intn(2) == 0), cnf.NewLit(y, rng.Intn(2) == 0)}
			scope := c.cone(x, y)
			want := c.satisfiable(assumps)
			st, err := scoped.SolveWithin(assumps, scope)
			if err != nil {
				t.Fatal(err)
			}
			if got := plain.SolveAssuming(assumps); (got == Sat) != want {
				t.Fatalf("round %d query %d: unscoped %v, truth table %v", round, q, got, want)
			}
			if (st == Sat) != want {
				t.Fatalf("round %d query %d %v within %v: scoped %v, truth table %v", round, q, assumps, scope, st, want)
			}
			if st != Sat {
				continue
			}
			// The scope's inputs alone must determine a circuit run that
			// matches the model on the whole scope.
			m := scoped.Model()
			run := c.eval(m.Get)
			for _, v := range scope {
				if run.Get(v) != m.Get(v) {
					t.Fatalf("round %d query %d: model disagrees with circuit evaluation at var %d", round, q, v)
				}
			}
			for _, l := range assumps {
				if !run.Lit(l) {
					t.Fatalf("round %d query %d: model does not satisfy assumption %v", round, q, l)
				}
			}
		}
		if !scoped.Okay() {
			t.Fatalf("round %d: Tseitin circuit marked inconsistent", round)
		}
		st, err := scoped.SolveErr(nil)
		if err != nil || st != Sat || !f.Eval(scoped.Model()) {
			t.Fatalf("round %d: full solve after scoped queries = %v, %v", round, st, err)
		}
		for q := 0; q < 40; q++ {
			assumps := []cnf.Lit{cnf.NewLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0), cnf.NewLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0)}
			st, err := scoped.SolveErr(assumps)
			if err != nil || (st == Sat) != c.satisfiable(assumps) {
				t.Fatalf("round %d: unscoped %v after scoped queries = %v, %v", round, assumps, st, err)
			}
			if st == Sat && !f.Eval(scoped.Model()) {
				t.Fatalf("round %d: unscoped model violates the clause set", round)
			}
		}
	}
}

// TestSolveWithinLevelZeroUnit builds a scoped query whose conflict
// analysis learns a unit: z = (a∧b)∧(a∧¬b) is constant false, so assuming
// z yields the unit ¬z, which lands at level 0 mid-query. Level-0
// propagation must stay complete: the implied ¬w of the gate w = z∧c,
// outside the query's scope, is assigned at level 0 before the call
// returns, and later scoped and unscoped queries agree with it.
func TestSolveWithinLevelZeroUnit(t *testing.T) {
	const a, b, c, p, q, z, w = 1, 2, 3, 4, 5, 6, 7
	s := New()
	gate := func(g cnf.Var, x, y cnf.Lit) {
		gl := cnf.PosLit(g)
		s.AddClause(gl.Not(), x)
		s.AddClause(gl.Not(), y)
		s.AddClause(gl, x.Not(), y.Not())
	}
	gate(p, cnf.PosLit(a), cnf.PosLit(b))
	gate(q, cnf.PosLit(a), cnf.NegLit(b))
	gate(z, cnf.PosLit(p), cnf.PosLit(q))
	gate(w, cnf.PosLit(z), cnf.PosLit(c))

	st, err := s.SolveWithin([]cnf.Lit{cnf.PosLit(z)}, []cnf.Var{a, b, p, q, z})
	if err != nil || st != Unsat {
		t.Fatalf("scoped query z = %v, %v; want Unsat", st, err)
	}
	if s.value(cnf.NegLit(z)) != lTrue || s.level[z] != 0 {
		t.Fatal("learnt unit ¬z is not assigned at level 0")
	}
	if s.value(cnf.NegLit(w)) != lTrue || s.level[w] != 0 {
		t.Fatal("¬w, implied at level 0 outside the scope, was not propagated")
	}
	if st, _ := s.SolveWithin([]cnf.Lit{cnf.PosLit(w)}, []cnf.Var{c, w}); st != Unsat {
		t.Fatalf("scoped query w = %v; want Unsat", st)
	}
	if st, _ := s.SolveWithin([]cnf.Lit{cnf.PosLit(c)}, []cnf.Var{c}); st != Sat {
		t.Fatalf("scoped query c = %v; want Sat", st)
	}
	if st, _ := s.SolveErr(nil); st != Sat || s.Model().Get(w) || s.Model().Get(z) {
		t.Fatalf("full solve = %v with w=%v z=%v; want Sat with both false", st, s.Model().Get(w), s.Model().Get(z))
	}
}

// TestSolveWithinStaysInScope poses a query whose cone is one gate
// r = x1∧x2 of a large circuit: assuming r propagates x1 and x2 and then
// every scope variable is assigned, so the scoped solve answers Sat after
// one decision and three propagations, never touching the many gates that
// x1 and x2 feed.
func TestSolveWithinStaysInScope(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(3)), 8, 400)
	c.fanin = append(c.fanin, [2]cnf.Lit{cnf.PosLit(1), cnf.PosLit(2)})
	root := cnf.Var(c.numVars())
	s := New()
	s.AddFormula(c.formula())
	st0 := s.Stats
	st, err := s.SolveWithin([]cnf.Lit{cnf.PosLit(root)}, c.cone(root))
	if err != nil || st != Sat {
		t.Fatalf("scoped query = %v, %v; want Sat", st, err)
	}
	if d, p := s.Stats.Decisions-st0.Decisions, s.Stats.Propagations-st0.Propagations; d != 1 || p != 3 {
		t.Fatalf("%d decisions and %d propagations; want 1 and 3", d, p)
	}
	if m := s.Model(); !m.Get(1) || !m.Get(2) || !m.Get(root) {
		t.Fatal("model does not satisfy r = x1∧x2")
	}
}
