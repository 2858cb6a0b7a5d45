package aig

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/faults"
	"repro/internal/sat"
)

// rng is a small xorshift generator for simulation patterns; deterministic
// so that solver runs are reproducible.
type rng uint64

// simSeed seeds the pattern stream of every sweep.
const simSeed = 0x2545f4914f6cdd1d

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

// Simulate runs 64-way parallel simulation of the cone of r: each input
// variable is driven by the given 64-bit pattern (missing inputs get zero).
// It returns the 64 output values as a word.
func (g *Graph) Simulate(r Ref, patterns map[cnf.Var]uint64) uint64 {
	cone := g.coneNodes(r)
	for _, n := range cone {
		nd := &g.nodes[n]
		if nd.v != 0 {
			nd.sim = patterns[nd.v]
			continue
		}
		a := g.edgeSim(nd.f0)
		b := g.edgeSim(nd.f1)
		nd.sim = a & b
	}
	return g.edgeSim(r)
}

func (g *Graph) edgeSim(e Ref) uint64 {
	n := e.node()
	var w uint64
	if n != 0 {
		w = g.nodes[n].sim
	}
	if e.Compl() {
		return ^w
	}
	return w
}

// SweepOracle is a persistent equivalence oracle queried by one sweep
// worker. Implementations (internal/oracle) keep a long-lived incremental
// SAT solver plus Tseitin memo alive across sweep rounds, so candidate
// checks are assumption queries against an already-loaded solver instead of
// fresh per-sweep solver builds. An oracle is NOT safe for concurrent use;
// the pool hands each index to exactly one worker.
type SweepOracle interface {
	// ProveEquiv reports whether the functions rooted at lhs and rhs are
	// equivalent, spending at most conflictBudget conflicts per SAT query
	// (<=0 unlimited) and honoring bud. Budget exhaustion or errors yield
	// proven=false (sound: unproven pairs are simply not merged). satCalls
	// is the number of SAT queries issued (0..2). When a query refutes the
	// pair, cex assigns every support variable of lhs and rhs its value in
	// the refuting model, so lhs and rhs differ under cex; otherwise cex is
	// nil.
	ProveEquiv(lhs, rhs Ref, conflictBudget int64, bud *budget.Budget) (proven bool, satCalls int, cex map[cnf.Var]bool)
	// Footprint returns the oracle solver's current packed-arena size and
	// cumulative arena compaction count.
	Footprint() (arenaBytes int, compactions int64)
}

// SweepOraclePool supplies one persistent SweepOracle per worker index.
type SweepOraclePool interface {
	// WorkerOracle returns the oracle owned by worker i, creating it on
	// first use. It must be safe to call from concurrent workers (with
	// distinct i); the returned oracle itself is single-goroutine.
	WorkerOracle(i int) SweepOracle
}

// SweepStats reports what a sweep did.
type SweepStats struct {
	Candidates int // simulation-equivalent pairs tried
	Refuted    int // candidates refuted by stored counterexamples, with no SAT call
	Merged     int // pairs proven equivalent and merged
	SatCalls   int // individual SAT oracle invocations (up to two per pair)
	Workers    int // size of the worker pool actually used
	Skipped    int // sweeps skipped outright (injected fault at aig.sweep)
	Panics     int // worker panics contained (candidates left unproven)

	// SAT substrate footprint, aggregated over the pool's private solvers.
	ArenaBytes  int   // peak packed-clause-arena size of any one solver
	Compactions int64 // arena garbage collections summed over the pool
}

// Counters flattens the stats into the generic counter map consumed by the
// pipeline's structured trace events.
func (s SweepStats) Counters() map[string]int64 {
	c := map[string]int64{
		"candidates": int64(s.Candidates),
		"refuted":    int64(s.Refuted),
		"merged":     int64(s.Merged),
		"satcalls":   int64(s.SatCalls),
	}
	if s.Skipped > 0 {
		c["skipped"] = int64(s.Skipped)
	}
	if s.Panics > 0 {
		c["panics"] = int64(s.Panics)
	}
	return c
}

// add accumulates the counters of one sweep into s (peak for ArenaBytes).
func (s *SweepStats) Add(o SweepStats) {
	s.Candidates += o.Candidates
	s.Refuted += o.Refuted
	s.Merged += o.Merged
	s.SatCalls += o.SatCalls
	s.Skipped += o.Skipped
	s.Panics += o.Panics
	s.Compactions += o.Compactions
	if o.ArenaBytes > s.ArenaBytes {
		s.ArenaBytes = o.ArenaBytes
	}
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
}

// SweepOptions configures SAT sweeping.
type SweepOptions struct {
	// Rounds of 64-bit random simulation words used for signatures.
	SimWords int
	// ConflictBudget per SAT equivalence query; on budget exhaustion the
	// pair is conservatively treated as inequivalent. <=0 means unlimited.
	ConflictBudget int64
	// Deadline, when nonzero, aborts the candidate loop once passed; merges
	// proven so far are still applied (the result stays equivalent).
	Deadline time.Time
	// Budget, when non-nil, likewise aborts the candidate loop when stopped
	// (cancellation, deadline, caps) and is polled inside each worker's SAT
	// queries for prompt cancellation mid-query. As with Deadline, merges
	// proven before the stop are still applied.
	Budget *budget.Budget
	// Workers is the size of the SAT worker pool checking candidate pairs.
	// 0 or 1 runs serially; negative values use runtime.GOMAXPROCS(0). Every
	// worker owns a private solver loaded from one shared immutable Tseitin
	// encoding of the cone, and candidate pairs are assigned by static
	// striding, so the proven-equivalence set is deterministic for a fixed
	// worker count — and identical across worker counts whenever no query
	// exhausts ConflictBudget or the Deadline (pair verdicts are independent
	// of each other; only budget exhaustion is history-sensitive).
	Workers int
	// Oracles, when non-nil, replaces the per-sweep private solvers: worker
	// i checks its candidates with assumption queries against the pool's
	// persistent oracle i (see internal/oracle), so Tseitin encodings and
	// learned clauses survive across sweep rounds instead of being rebuilt
	// per call. The shared cone encoding is skipped entirely in this mode.
	// Striding is unchanged, so the candidate order per worker stays
	// deterministic.
	Oracles SweepOraclePool
}

// DefaultSweepOptions are a reasonable tradeoff for the solver loops.
func DefaultSweepOptions() SweepOptions {
	return SweepOptions{SimWords: 8, ConflictBudget: 2000}
}

// poolSize resolves the Workers knob against the candidate count.
func (o SweepOptions) poolSize(candidates int) int {
	w := o.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > candidates {
		w = candidates
	}
	return w
}

// sweepCand is one equivalence candidate: prove lhs ≡ rhs (both are edges
// into the swept cone) and, if proven, redirect node to target. lhs/rhs are
// literals in the shared cone encoding (fresh-solver mode); lhsRef/rhsRef
// are the same edges as graph refs (oracle mode), and lhsSim/rhsSim as
// simNet edges (counterexample refinement).
type sweepCand struct {
	node           int32 // the node to be merged away
	target         Ref   // replacement edge installed on success
	lhs, rhs       cnf.Lit
	lhsRef, rhsRef Ref
	lhsSim, rhsSim int32
}

// simNet is a swept cone flattened for bit-parallel simulation. Position 0
// is the constant-false node and position i+1 holds cone[i], so positions
// are topologically ordered and a simulation word per node is a plain
// slice indexed by position. An edge into the net is encoded as
// position<<1 | complement (see simEdge).
type simNet struct {
	node  []int32    // AIG node at each position
	in    []cnf.Var  // input variable at each position, 0 for AND gates
	fanin [][2]int32 // fanin edges of each AND position
}

func newSimNet(g *Graph, cone []int32) *simNet {
	n := len(cone) + 1
	net := &simNet{node: make([]int32, n), in: make([]cnf.Var, n), fanin: make([][2]int32, n)}
	pos := make(map[int32]int32, len(cone)) // node 0 is absent: position 0
	for i, nd := range cone {
		p := int32(i + 1)
		pos[nd] = p
		net.node[p] = nd
		x := &g.nodes[nd]
		if x.v != 0 {
			net.in[p] = x.v
			continue
		}
		net.fanin[p] = [2]int32{simEdge(pos[x.f0.node()], x.f0.Compl()), simEdge(pos[x.f1.node()], x.f1.Compl())}
	}
	return net
}

func simEdge(pos int32, compl bool) int32 {
	if compl {
		return pos<<1 | 1
	}
	return pos << 1
}

// edgeWord reads the simulation word of net edge e from w.
func edgeWord(w []uint64, e int32) uint64 {
	x := w[e>>1]
	if e&1 != 0 {
		x = ^x
	}
	return x
}

// simulate recomputes every AND position of w from its input positions.
func (net *simNet) simulate(w []uint64) {
	for p, f := range net.fanin {
		if p > 0 && net.in[p] == 0 {
			w[p] = edgeWord(w, f[0]) & edgeWord(w, f[1])
		}
	}
}

// cexWords caps the counterexample pattern words one sweep worker keeps,
// 64 input vectors each; once all are full the oldest word is overwritten.
const cexWords = 16

// cexStore is one sweep worker's counterexample patterns: the input vectors
// of SAT models that refuted earlier candidates, bit-parallel and simulated
// over the whole cone, so a later candidate whose edges differ on any of
// them is refuted without a SAT call (FRAIG-style refinement). Every bit of
// every word is a concrete input vector — bits not yet filled are the
// all-false vector — so a pair that differs on one is never equivalent and
// skipping it cannot lose a merge.
type cexStore struct {
	net   *simNet
	words [][]uint64 // words[k][p]: pattern word k at position p
	n     int        // input vectors recorded so far
}

// add records one refuting input vector, val giving each input's value, and
// re-simulates its word over the cone.
func (s *cexStore) add(val func(cnf.Var) bool) {
	k, bit := s.n/64%cexWords, uint(s.n%64)
	if k == len(s.words) {
		s.words = append(s.words, make([]uint64, len(s.net.in)))
	} else if bit == 0 {
		clear(s.words[k])
	}
	w := s.words[k]
	for p, v := range s.net.in {
		if v != 0 && val(v) {
			w[p] |= 1 << bit
		}
	}
	s.n++
	s.net.simulate(w)
}

// refutes reports whether net edges a and b differ on a stored vector.
func (s *cexStore) refutes(a, b int32) bool {
	for _, w := range s.words {
		if edgeWord(w, a) != edgeWord(w, b) {
			return true
		}
	}
	return false
}

// Sweep performs FRAIG-style reduction on the cone of r: nodes with equal
// (or complementary) simulation signatures are checked for functional
// equivalence with SAT and merged, then the cone is rebuilt. The result is
// functionally equivalent to r.
//
// The candidate checks run on a pool of opt.Workers SAT solvers, each private
// to its goroutine and loaded from one shared Tseitin encoding of the cone.
// Candidates are independent of one another (each compares a node against the
// fixed representative of its signature class), so proven merges are applied
// in deterministic candidate order afterwards and the swept graph is
// bit-identical to the serial result whenever no query hits its budget.
//
// Each worker keeps the input vectors of the SAT models that refuted its
// earlier candidates (see cexStore) and skips, without a SAT call, any later
// candidate those vectors already tell apart.
func (g *Graph) Sweep(r Ref, opt SweepOptions) (Ref, SweepStats) {
	var stats SweepStats
	// Fault-injection seam: sweeping is an optimization, so a fault here is
	// contained by skipping the sweep — the unswept cone is equivalent.
	if err := faults.Fire(faults.AIGSweep); err != nil {
		stats.Skipped++
		return r, stats
	}
	if r.IsConst() {
		return r, stats
	}
	cone := g.coneNodes(r)
	if len(cone) < 2 {
		return r, stats
	}
	net := newSimNet(g, cone)
	// Input positions sorted by variable, so every input gets the same
	// pseudo-random pattern stream on every run and sweeping is
	// deterministic end to end.
	var inPos []int
	for p, v := range net.in {
		if v != 0 {
			inPos = append(inPos, p)
		}
	}
	sort.Slice(inPos, func(i, j int) bool { return net.in[inPos[i]] < net.in[inPos[j]] })

	if opt.SimWords <= 0 {
		opt.SimWords = 8
	}
	var stop atomic.Bool
	expired := func() bool {
		if opt.Deadline.IsZero() && opt.Budget == nil {
			return false
		}
		if stop.Load() {
			return true
		}
		if (!opt.Deadline.IsZero() && time.Now().After(opt.Deadline)) || opt.Budget.Stopped() {
			stop.Store(true)
			return true
		}
		return false
	}

	// Signature words, generated word-major over the sorted inputs so the
	// stream matches the historical one-word-per-round simulation bit for
	// bit (signatures, buckets, and candidate order are unchanged).
	// Deadline and Budget are polled before each word, so a huge cone
	// cancels promptly mid-simulation rather than only once the candidate
	// loop starts.
	seed := rng(simSeed)
	sigs := make([][]uint64, opt.SimWords)
	for w := range sigs {
		if expired() {
			// Cancelled mid-simulation: leave the cone unswept (equivalent).
			return r, stats
		}
		sigs[w] = make([]uint64, len(net.in))
		for _, p := range inPos {
			sigs[w][p] = seed.next()
		}
		net.simulate(sigs[w])
	}

	// Group positions by normalized signature: if word 0 has bit 0 set, use
	// the complemented signature (tracking the phase) so that complementary
	// functions land in the same bucket.
	type bucketKey string
	normSig := func(p int32) (bucketKey, bool) {
		inv := sigs[0][p]&1 == 1
		buf := make([]byte, 0, len(sigs)*8)
		for _, sw := range sigs {
			w := sw[p]
			if inv {
				w = ^w
			}
			for i := 0; i < 8; i++ {
				buf = append(buf, byte(w>>(8*i)))
			}
		}
		return bucketKey(buf), inv
	}
	buckets := make(map[bucketKey][]int32)
	var keys []bucketKey
	for p := int32(1); p < int32(len(net.in)); p++ { // topological, so members are too
		key, _ := normSig(p)
		if _, seen := buckets[key]; !seen {
			keys = append(keys, key)
		}
		buckets[key] = append(buckets[key], p)
	}
	// Deterministic class order: by topologically smallest representative.
	sort.Slice(keys, func(i, j int) bool {
		return buckets[keys[i]][0] < buckets[keys[j]][0]
	})

	// One immutable Tseitin encoding of the cone, shared by every worker.
	// In oracle mode the persistent oracles already hold (or lazily extend)
	// their own encodings, so the shared one is skipped entirely.
	var formula *cnf.Formula
	var nodeLit map[int32]cnf.Lit
	if opt.Oracles == nil {
		formula, nodeLit = g.coneCNF(r, 0)
	}
	litOf := func(e Ref) cnf.Lit {
		if nodeLit == nil {
			return 0
		}
		return nodeLit[e.node()].XorSign(e.Compl())
	}

	// Candidate list, in deterministic order: merge each class member into
	// its representative. A representative is never itself merged away (each
	// node sits in exactly one class), so candidates are mutually
	// independent and can be checked in any order — or concurrently.
	var cands []sweepCand
	for _, key := range keys {
		members := buckets[key]
		if len(members) < 2 {
			continue
		}
		repPos := members[0]
		_, invRep := normSig(repPos)
		repRef := Ref(net.node[repPos] << 1).XorSign(invRep)
		for _, p := range members[1:] {
			_, invN := normSig(p)
			nRef := Ref(net.node[p] << 1).XorSign(invN)
			cands = append(cands, sweepCand{
				node:   net.node[p],
				target: repRef.XorSign(invN),
				lhs:    litOf(repRef),
				rhs:    litOf(nRef),
				lhsRef: repRef,
				rhsRef: nRef,
				lhsSim: simEdge(repPos, invRep),
				rhsSim: simEdge(p, invN),
			})
		}
	}
	if len(cands) == 0 {
		return r, stats
	}

	workers := opt.poolSize(len(cands))
	stats.Workers = workers
	proven := make([]bool, len(cands))

	// runWorker checks cands[w], cands[w+workers], ... on a private solver.
	// Static striding keeps each worker's query sequence — and therefore any
	// budget-exhaustion outcome — deterministic for a fixed pool size; the
	// counterexample store is private to the worker for the same reason.
	//
	// A panic escaping a SAT query (notably an injected one) is contained
	// here rather than killing the pool: the worker's remaining candidates
	// stay unproven, which is sound because unproven pairs are simply not
	// merged. Containment must live in the worker goroutine itself — a
	// recover further up the call stack cannot catch it.
	runWorker := func(w int) (st SweepStats) {
		defer func() {
			if rec := recover(); rec != nil {
				st.Panics++
			}
		}()
		var solver *sat.Solver
		var orc SweepOracle
		var compact0 int64
		if opt.Oracles != nil {
			orc = opt.Oracles.WorkerOracle(w)
			_, compact0 = orc.Footprint()
		} else {
			solver = sat.New()
			solver.AddFormula(formula)
			solver.ConflictBudget = opt.ConflictBudget
			solver.Budget = opt.Budget
		}
		cexs := cexStore{net: net}
		for i := w; i < len(cands); i += workers {
			if st.Candidates%8 == 0 && expired() {
				break
			}
			st.Candidates++
			c := cands[i]
			if cexs.refutes(c.lhsSim, c.rhsSim) {
				st.Refuted++
				continue
			}
			if orc != nil {
				ok, calls, cex := orc.ProveEquiv(c.lhsRef, c.rhsRef, opt.ConflictBudget, opt.Budget)
				st.SatCalls += calls
				if ok {
					proven[i] = true
				} else if cex != nil {
					cexs.add(func(v cnf.Var) bool { return cex[v] })
				}
				continue
			}
			// lhs≠rhs ⇔ (lhs ∧ ¬rhs) ∨ (¬lhs ∧ rhs): query both branches
			// via assumptions. Inputs keep their AIG variable numbers in the
			// shared encoding, so a model reads off the refuting inputs.
			st.SatCalls++
			s1, err := solver.SolveErr([]cnf.Lit{c.lhs, c.rhs.Not()})
			if err != nil {
				continue
			}
			if s1 == sat.Sat {
				cexs.add(solver.Model().Get)
				continue
			}
			st.SatCalls++
			s2, err := solver.SolveErr([]cnf.Lit{c.lhs.Not(), c.rhs})
			if err != nil {
				continue
			}
			if s2 == sat.Sat {
				cexs.add(solver.Model().Get)
				continue
			}
			proven[i] = true
		}
		if orc != nil {
			ab, compact1 := orc.Footprint()
			st.ArenaBytes = ab
			st.Compactions = compact1 - compact0
		} else {
			st.ArenaBytes = solver.ArenaBytes()
			st.Compactions = solver.Stats.Compactions
		}
		return st
	}

	if workers == 1 {
		stats.Add(runWorker(0))
	} else {
		workerStats := make([]SweepStats, workers)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				workerStats[w] = runWorker(w)
			}(w)
		}
		wg.Wait()
		for _, st := range workerStats {
			stats.Add(st)
		}
	}

	// Merge phase: apply proven equivalences in candidate order. Because the
	// verdicts are independent, this reproduces the serial merge set exactly.
	repl := make(map[int32]Ref, len(cands))
	for i, c := range cands {
		if proven[i] {
			repl[c.node] = c.target
			stats.Merged++
		}
	}
	if len(repl) == 0 {
		return r, stats
	}

	// Rebuild the cone applying replacements bottom-up.
	rebuilt := make(map[int32]Ref, len(cone))
	var rebuild func(e Ref) Ref
	rebuild = func(e Ref) Ref {
		n := e.node()
		if n == 0 {
			return e
		}
		if t, ok := repl[n]; ok {
			// The replacement target itself may contain replaced nodes.
			return rebuild(t).XorSign(e.Compl())
		}
		if out, ok := rebuilt[n]; ok {
			return out.XorSign(e.Compl())
		}
		nd := g.nodes[n]
		var out Ref
		if nd.v != 0 {
			out = Ref(n << 1)
		} else {
			out = g.And(rebuild(nd.f0), rebuild(nd.f1))
		}
		rebuilt[n] = out
		return out.XorSign(e.Compl())
	}
	return rebuild(r), stats
}
