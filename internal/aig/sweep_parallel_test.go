package aig

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// buildRedundantCone constructs a cone containing many structurally distinct
// but functionally equivalent subgraphs (associativity and De Morgan
// variants), the raw material SAT sweeping exists to merge. The construction
// is deterministic so that two calls on fresh graphs yield identical node
// numbering.
func buildRedundantCone(g *Graph, groups int) Ref {
	var parts []Ref
	for i := 0; i < groups; i++ {
		base := cnf.Var(1 + 3*i)
		a, b, c := g.Input(base), g.Input(base+1), g.Input(base+2)
		// (a∧b)∧c vs a∧(b∧c): equivalent, structurally different.
		left := g.And(g.And(a, b), c)
		right := g.And(a, g.And(b, c))
		// a⊕b built two ways.
		xor1 := g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
		xor2 := g.And(g.Or(a, b), g.And(a, b).Not())
		// Keep all variants in the cone without collapsing them structurally.
		parts = append(parts,
			g.Or(left, g.And(xor1, c)),
			g.Or(right.Not(), g.And(xor2, c.Not())),
		)
	}
	return g.OrN(parts...)
}

// TestSweepParallelMatchesSerial checks the determinism guarantee: with an
// unlimited conflict budget, sweeping with a worker pool must prove exactly
// the same equivalences — and rebuild exactly the same graph — as the serial
// sweep.
func TestSweepParallelMatchesSerial(t *testing.T) {
	build := func() (*Graph, Ref) {
		g := New()
		return g, buildRedundantCone(g, 6)
	}
	gSerial, r := build()
	serialRef, serialStats := gSerial.Sweep(r, SweepOptions{SimWords: 8, Workers: 1})
	if serialStats.Merged == 0 {
		t.Fatal("redundant cone should produce merges")
	}
	for _, workers := range []int{2, 4, -1} {
		gPar, rp := build()
		if rp != r {
			t.Fatal("deterministic construction produced different refs")
		}
		parRef, parStats := gPar.Sweep(rp, SweepOptions{SimWords: 8, Workers: workers})
		if parRef != serialRef {
			t.Fatalf("workers=%d: swept ref %v differs from serial %v", workers, parRef, serialRef)
		}
		if parStats.Merged != serialStats.Merged {
			t.Fatalf("workers=%d: merged %d pairs, serial merged %d",
				workers, parStats.Merged, serialStats.Merged)
		}
		if got, want := gPar.ConeSize(parRef), gSerial.ConeSize(serialRef); got != want {
			t.Fatalf("workers=%d: final cone size %d, serial %d", workers, got, want)
		}
		if gPar.NumNodes() != gSerial.NumNodes() {
			t.Fatalf("workers=%d: graph has %d nodes, serial %d",
				workers, gPar.NumNodes(), gSerial.NumNodes())
		}
		if !gPar.Equivalent(rp, parRef) {
			t.Fatalf("workers=%d: sweep changed the function", workers)
		}
	}
}

// TestSweepParallelPreservesSemanticsRandom cross-checks the concurrent path
// against exhaustive truth tables on random AIGs (and is the main target of
// `go test -race ./internal/aig`).
func TestSweepParallelPreservesSemanticsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1789))
	vs := []cnf.Var{1, 2, 3, 4}
	for iter := 0; iter < 40; iter++ {
		g := New()
		r := randomAIG(g, rng, vs, 20)
		opt := DefaultSweepOptions()
		opt.Workers = 1 + rng.Intn(4)
		swept, _ := g.Sweep(r, opt)
		if !eqTables(truthTable(g, r, vs), truthTable(g, swept, vs)) {
			t.Fatalf("iter %d (workers=%d): sweep changed semantics", iter, opt.Workers)
		}
	}
}

// TestSweepStatsCounters checks the observability counters of the sweep.
func TestSweepStatsCounters(t *testing.T) {
	g := New()
	r := buildRedundantCone(g, 4)
	_, st := g.Sweep(r, SweepOptions{SimWords: 8, Workers: 3})
	if st.Workers < 1 || st.Workers > 3 {
		t.Fatalf("workers = %d, want 1..3", st.Workers)
	}
	if st.SatCalls == 0 {
		t.Fatal("expected SAT calls")
	}
	if st.ArenaBytes <= 0 {
		t.Fatal("expected a positive peak arena size")
	}
	if st.Candidates < st.Merged+st.Refuted {
		t.Fatalf("candidates %d < merged %d + refuted %d", st.Candidates, st.Merged, st.Refuted)
	}
	if c := st.Counters(); c["refuted"] != int64(st.Refuted) || c["candidates"] != int64(st.Candidates) {
		t.Fatalf("counters %v disagree with stats %+v", c, st)
	}
	// Aggregation across sweeps keeps peaks and sums.
	var agg SweepStats
	agg.Add(st)
	agg.Add(SweepStats{SatCalls: 1, Refuted: 2, ArenaBytes: st.ArenaBytes / 2, Workers: 1})
	if agg.SatCalls != st.SatCalls+1 || agg.Refuted != st.Refuted+2 || agg.ArenaBytes != st.ArenaBytes || agg.Workers != st.Workers {
		t.Fatalf("bad aggregation: %+v", agg)
	}
}

// TestSweepCounterexampleRefinement sweeps random AIGs with a single
// simulation word, so many candidates are false, and checks that refuting
// them from stored counterexamples loses no merge and saves SAT calls.
// Cubes of three to five literals over eight inputs are sparse functions
// that one random word often cannot tell apart.
func TestSweepCounterexampleRefinement(t *testing.T) {
	rnd := rand.New(rand.NewSource(4242))
	vs := []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8}
	refuted := 0
	for iter := 0; iter < 30; iter++ {
		g := New()
		var cubes []Ref
		for k := 0; k < 30; k++ {
			cube := True
			for j := 3 + rnd.Intn(3); j > 0; j-- {
				cube = g.And(cube, g.Input(vs[rnd.Intn(len(vs))]).XorSign(rnd.Intn(2) == 0))
			}
			cubes = append(cubes, cube)
		}
		r := g.OrN(cubes...)

		// Reference: the sweep's signature classes for SimWords 1, and the
		// members whose truth table, in phase, equals their representative's.
		seed, support := rng(simSeed), g.Support(r)
		pat := make(map[cnf.Var]uint64)
		for _, v := range vs {
			if support[v] {
				pat[v] = seed.next()
			}
		}
		g.Simulate(r, pat)
		reps := make(map[uint64][]bool)
		wantCands, wantMerged := 0, 0
		for _, n := range g.coneNodes(r) {
			sig := g.nodes[n].sim
			tt := truthTable(g, Ref(n<<1).XorSign(sig&1 == 1), vs)
			key := sig ^ -(sig & 1)
			rep, ok := reps[key]
			if !ok {
				reps[key] = tt
				continue
			}
			wantCands++
			if eqTables(rep, tt) {
				wantMerged++
			}
		}

		workers := 1 + iter%3
		_, st := g.Sweep(r, SweepOptions{SimWords: 1, Workers: workers})
		if st.Candidates != wantCands || st.Merged != wantMerged {
			t.Fatalf("iter %d (workers=%d): candidates/merged %d/%d, want %d/%d",
				iter, workers, st.Candidates, st.Merged, wantCands, wantMerged)
		}
		if st.SatCalls > 2*(st.Candidates-st.Refuted) {
			t.Fatalf("iter %d: %d SAT calls for %d candidates, %d refuted",
				iter, st.SatCalls, st.Candidates, st.Refuted)
		}
		refuted += st.Refuted
	}
	if refuted == 0 {
		t.Fatal("no candidate was refuted by a stored counterexample")
	}
}
