package dqbf_test

import (
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// Skolem tables keyed by ProjectionKey are the certificates of the
// instantiation-based engines (iDQ, expand); cert.FromTables lifts them into
// the one certificate type every engine shares. These tests pin the table
// semantics through that one checker: a table entry gives the value of y
// under that projection of the universal assignment, an absent entry false.

// tables is a set of Skolem tables: y -> projection key -> value.
type tables = map[cnf.Var]map[string]bool

// verify checks the tables against f with the shared certificate checker.
func verify(f *dqbf.Formula, t tables) error {
	return cert.Check(f, cert.FromTables(f, t))
}

// ex1 is the paper's Example 1 with matrix (y1↔x1)∧(y2↔x2).
func ex1() *dqbf.Formula {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 1)
	f.AddExistential(4, 2)
	f.Matrix.AddDimacsClause(-3, 1)
	f.Matrix.AddDimacsClause(3, -1)
	f.Matrix.AddDimacsClause(-4, 2)
	f.Matrix.AddDimacsClause(4, -2)
	return f
}

// identityTables is the witness y1 := x1, y2 := x2.
func identityTables() tables {
	return tables{
		3: {"0": false, "1": true},
		4: {"0": false, "1": true},
	}
}

func TestVerifyValidCertificate(t *testing.T) {
	if err := verify(ex1(), identityTables()); err != nil {
		t.Fatalf("identity certificate rejected: %v", err)
	}
}

func TestVerifyRejectsTamperedCertificate(t *testing.T) {
	c := identityTables()
	c[3]["1"] = false // y1 now constant 0: violated at x1=1
	if err := verify(ex1(), c); err == nil {
		t.Fatal("tampered certificate accepted")
	}
}

func TestVerifySparseDefaults(t *testing.T) {
	// Only the '1' entries stored; absent projections are false.
	c := tables{
		3: {"1": true},
		4: {"1": true},
	}
	if err := verify(ex1(), c); err != nil {
		t.Fatalf("sparse certificate rejected: %v", err)
	}
}

func TestProjectionKey(t *testing.T) {
	deps := []cnf.Var{2, 5, 9}
	key := dqbf.ProjectionKey(deps, func(v cnf.Var) bool { return v == 5 })
	if key != "010" {
		t.Fatalf("key = %q", key)
	}
	if dqbf.ProjectionKey(nil, nil) != "" {
		t.Fatal("empty deps should give empty key")
	}
}

func TestVerifyConstantFunctions(t *testing.T) {
	// ∀x ∃y(x): y ∨ x — y := 1 constant works; the empty table (y := 0)
	// fails at x=0.
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	f.Matrix.AddDimacsClause(2, 1)
	if err := verify(f, tables{2: {"0": true, "1": true}}); err != nil {
		t.Fatalf("constant-1 certificate rejected: %v", err)
	}
	if err := verify(f, tables{}); err == nil {
		t.Fatal("constant-0 certificate accepted (fails at x=0)")
	}
}

// exhaustiveValid checks tables by enumerating universal assignments.
func exhaustiveValid(f *dqbf.Formula, c tables) bool {
	for bits := 0; bits < 1<<len(f.Univ); bits++ {
		a := cnf.NewAssignment(f.Matrix.NumVars)
		for i, x := range f.Univ {
			a.Set(x, bits&(1<<i) != 0)
		}
		for _, y := range f.Exist {
			key := dqbf.ProjectionKey(f.Deps[y].Vars(), func(v cnf.Var) bool { return a.Get(v) })
			a.Set(y, c[y][key])
		}
		if !f.Matrix.Eval(a) {
			return false
		}
	}
	return true
}

func TestVerifyAgreesWithExhaustiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 150; iter++ {
		f := dqbf.New()
		nUniv := 1 + rng.Intn(3)
		for i := 1; i <= nUniv; i++ {
			f.AddUniversal(cnf.Var(i))
		}
		nExist := 1 + rng.Intn(3)
		for i := 0; i < nExist; i++ {
			y := cnf.Var(nUniv + i + 1)
			var deps []cnf.Var
			for _, x := range f.Univ {
				if rng.Intn(2) == 0 {
					deps = append(deps, x)
				}
			}
			f.AddExistential(y, deps...)
		}
		n := nUniv + nExist
		for i := 0; i < 2+rng.Intn(8); i++ {
			k := 1 + rng.Intn(3)
			c := make(cnf.Clause, 0, k)
			for j := 0; j < k; j++ {
				c = append(c, cnf.NewLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0))
			}
			f.Matrix.Clauses = append(f.Matrix.Clauses, c)
		}
		// Random sparse tables.
		c := tables{}
		for _, y := range f.Exist {
			deps := f.Deps[y].Vars()
			tab := map[string]bool{}
			for bits := 0; bits < 1<<len(deps); bits++ {
				if rng.Intn(2) == 0 {
					continue // leave sparse
				}
				key := dqbf.ProjectionKey(deps, func(v cnf.Var) bool {
					for i, d := range deps {
						if d == v {
							return bits&(1<<i) != 0
						}
					}
					return false
				})
				tab[key] = rng.Intn(2) == 0
			}
			c[y] = tab
		}
		want := exhaustiveValid(f, c)
		got := verify(f, c) == nil
		if got != want {
			t.Fatalf("iter %d: checker=%v exhaustive=%v\n%v\n%v", iter, got, want, f, f.Matrix.Clauses)
		}
	}
}
