package aig

import (
	"slices"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/sat"
)

// CNFBuilder incrementally Tseitin-encodes AIG cones into a SAT solver,
// reusing encodings across calls. It is the bridge between the AIG world and
// the CDCL oracle (SAT sweeping, final SAT checks, iDQ verification).
type CNFBuilder struct {
	g       *Graph
	s       *sat.Solver
	nodeVar map[int32]cnf.Var // AIG node -> SAT variable

	// Cone walk state: node n is visited iff mark[n] == epoch.
	mark  []uint32
	epoch uint32
	stack []int32
}

// NewCNFBuilder returns a builder encoding cones of g into s.
func NewCNFBuilder(g *Graph, s *sat.Solver) *CNFBuilder {
	return &CNFBuilder{g: g, s: s, nodeVar: make(map[int32]cnf.Var)}
}

// EncodedNodes returns how many AIG nodes currently have SAT encodings in
// this builder. The map only grows: the AIG is append-only, so a Tseitin
// definition once pushed stays valid forever, and successive Lit calls add
// only the delta of newly reachable cone nodes.
func (b *CNFBuilder) EncodedNodes() int { return len(b.nodeVar) }

// InputSATVar returns the SAT variable used for AIG input variable v,
// allocating the encoding lazily. It allows callers to constrain inputs.
func (b *CNFBuilder) InputSATVar(v cnf.Var) cnf.Var {
	r := b.g.Input(v)
	return b.nodeSATVar(r.node())
}

func (b *CNFBuilder) nodeSATVar(n int32) cnf.Var {
	if sv, ok := b.nodeVar[n]; ok {
		return sv
	}
	sv := b.s.NewVar()
	b.nodeVar[n] = sv
	return sv
}

// Lit encodes the cone of r (if not yet encoded) and returns the SAT literal
// equivalent to r.
//
// An AND node gets its variable only here, after its fanins, and an input
// has no fanins, so a node that has a variable has its whole cone encoded:
// the walk stops there and visits only the unencoded part of the cone.
func (b *CNFBuilder) Lit(r Ref) cnf.Lit {
	if _, done := b.nodeVar[r.node()]; done || r.node() == 0 {
		return b.edgeLit(r)
	}
	b.nextEpoch()
	todo := []int32{r.node()}
	b.mark[r.node()] = b.epoch
	for i := 0; i < len(todo); i++ {
		nd := &b.g.nodes[todo[i]]
		if nd.v != 0 {
			continue
		}
		for _, f := range [2]Ref{nd.f0, nd.f1} {
			c := f.node()
			if _, done := b.nodeVar[c]; c != 0 && !done && b.mark[c] != b.epoch {
				b.mark[c] = b.epoch
				todo = append(todo, c)
			}
		}
	}
	// Node indices are a topological order: fanins are encoded first.
	slices.Sort(todo)
	for _, n := range todo {
		nd := &b.g.nodes[n]
		sv := b.nodeSATVar(n)
		if nd.v != 0 {
			continue // inputs are free variables
		}
		gl := cnf.PosLit(sv)
		a := b.edgeLit(nd.f0)
		c := b.edgeLit(nd.f1)
		// g ↔ a ∧ c
		b.s.AddClause(gl.Not(), a)
		b.s.AddClause(gl.Not(), c)
		b.s.AddClause(gl, a.Not(), c.Not())
	}
	return b.edgeLit(r)
}

// ConeVars appends to vars the SAT variable of every encoded node in the
// cones of roots, and to inputs the AIG input variables among those nodes,
// and returns both slices. Lit encodes a whole cone before its root, so for
// roots returned through Lit the walk yields the fanin-closed cone: the
// scope internal/oracle poses its equivalence queries within. Visited nodes
// carry an epoch stamp instead of living in a map, so a warm walk allocates
// nothing.
func (b *CNFBuilder) ConeVars(vars, inputs []cnf.Var, roots ...Ref) ([]cnf.Var, []cnf.Var) {
	b.nextEpoch()
	stack := b.stack[:0]
	for _, r := range roots {
		stack = append(stack, r.node())
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b.mark[n] == b.epoch {
			continue
		}
		b.mark[n] = b.epoch
		sv, ok := b.nodeVar[n]
		if !ok {
			continue
		}
		vars = append(vars, sv)
		nd := &b.g.nodes[n]
		if nd.v != 0 {
			inputs = append(inputs, nd.v)
		} else if n != 0 {
			stack = append(stack, nd.f0.node(), nd.f1.node())
		}
	}
	b.stack = stack
	return vars, inputs
}

// nextEpoch starts a cone walk: it sizes mark to the graph and moves to a
// fresh epoch, so that no node counts as visited.
func (b *CNFBuilder) nextEpoch() {
	if n := len(b.g.nodes); len(b.mark) < n {
		b.mark = append(b.mark, make([]uint32, n-len(b.mark))...)
	}
	b.epoch++
	if b.epoch == 0 {
		clear(b.mark)
		b.epoch = 1
	}
}

func (b *CNFBuilder) edgeLit(e Ref) cnf.Lit {
	n := e.node()
	if n == 0 {
		tv := b.nodeSATVar(0)
		b.s.AddClause(cnf.PosLit(tv))
		// Ref 0 = false, Ref 1 = true.
		return cnf.NewLit(tv, !e.Compl())
	}
	return cnf.NewLit(b.nodeVar[n], false).XorSign(e.Compl())
}

// ToFormula Tseitin-encodes the cone of r into a standalone CNF formula.
// Input variables keep their AIG variable numbers; internal gate variables
// are allocated above maxInputVar (which is raised to the largest support
// variable if needed). It returns the formula and the literal equivalent
// to r; asserting that literal makes the formula equisatisfiable with r.
func (g *Graph) ToFormula(r Ref, maxInputVar cnf.Var) (*cnf.Formula, cnf.Lit) {
	if r.IsConst() {
		f := cnf.NewFormula(int(maxInputVar))
		// Represent with a fresh variable forced appropriately.
		t := f.NewVar()
		f.AddClause(cnf.PosLit(t))
		return f, cnf.NewLit(t, !r.Compl())
	}
	f, nodeLit := g.coneCNF(r, maxInputVar)
	return f, nodeLit[r.node()].XorSign(r.Compl())
}

// coneCNF Tseitin-encodes the whole cone of r into a standalone CNF formula
// and returns, along with it, the positive literal of every cone node. Input
// variables keep their AIG variable numbers; gate variables are allocated
// above maxInputVar (raised to the largest support variable if needed).
//
// The formula is immutable once built, which lets SAT-sweeping workers load
// identical private solvers from one shared encoding (see sweep.go).
func (g *Graph) coneCNF(r Ref, maxInputVar cnf.Var) (*cnf.Formula, map[int32]cnf.Lit) {
	for v := range g.Support(r) {
		if v > maxInputVar {
			maxInputVar = v
		}
	}
	f := cnf.NewFormula(int(maxInputVar))
	nodeLit := make(map[int32]cnf.Lit)
	for _, n := range g.coneNodes(r) {
		nd := &g.nodes[n]
		if nd.v != 0 {
			nodeLit[n] = cnf.PosLit(nd.v)
			continue
		}
		gv := f.NewVar()
		gl := cnf.PosLit(gv)
		a := nodeLit[nd.f0.node()].XorSign(nd.f0.Compl())
		c := nodeLit[nd.f1.node()].XorSign(nd.f1.Compl())
		f.AddClause(gl.Not(), a)
		f.AddClause(gl.Not(), c)
		f.AddClause(gl, a.Not(), c.Not())
		nodeLit[n] = gl
	}
	return f, nodeLit
}

// IsSatisfiable checks satisfiability of the function rooted at r with the
// CDCL solver. If sat, it also returns a satisfying input assignment.
func (g *Graph) IsSatisfiable(r Ref) (bool, map[cnf.Var]bool) {
	sat, model, _ := g.IsSatisfiableBudget(r, nil)
	return sat, model
}

// IsSatisfiableBudget is IsSatisfiable under a cancellable budget: the CDCL
// search polls bud and, when stopped, the call returns a non-nil error (the
// budget's reason) with an indeterminate first result.
func (g *Graph) IsSatisfiableBudget(r Ref, bud *budget.Budget) (bool, map[cnf.Var]bool, error) {
	if r == True {
		return true, map[cnf.Var]bool{}, nil
	}
	if r == False {
		return false, nil, nil
	}
	s := sat.New()
	s.Budget = bud
	b := NewCNFBuilder(g, s)
	l := b.Lit(r)
	s.AddClause(l)
	st, err := s.SolveErr(nil)
	if st == sat.Unknown {
		if err == nil {
			err = sat.ErrBudget
		}
		return false, nil, err
	}
	if st != sat.Sat {
		return false, nil, nil
	}
	m := s.Model()
	out := make(map[cnf.Var]bool)
	for v := range g.Support(r) {
		sv := b.nodeVar[g.Input(v).node()]
		out[v] = m.Get(sv)
	}
	return true, out, nil
}

// Equivalent checks whether the functions rooted at a and b are equivalent,
// using SAT on the XOR miter.
func (g *Graph) Equivalent(a, b Ref) bool {
	miter := g.Xor(a, b)
	sat, _ := g.IsSatisfiable(miter)
	return !sat
}
