package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/problem"
)

// paperExample1 is ∀x1∀x2 ∃y1(x1) ∃y2(x2) with matrix (y1↔x1)∧(y2↔x2):
// satisfiable, no equivalent QBF prefix (paper Example 1).
func paperExample1() *dqbf.Formula {
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

// unsatExample is ∀x ∃y(∅) with matrix (y↔x): unsatisfiable because y cannot
// depend on x.
func unsatExample() *dqbf.Formula {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddExistential(2)
	f.Matrix.AddDimacsClause(-2, 1)
	f.Matrix.AddDimacsClause(2, -1)
	return f
}

// pigeonholeDQBF is PHP(n+1, n) as an existential-only DQBF — UNSAT and
// exponentially hard for CDCL, so both engines grind on it long enough for a
// mid-solve cancellation to land inside a SAT oracle call.
func pigeonholeDQBF(n int) *dqbf.Formula {
	f := dqbf.New()
	v := cnf.Var(0)
	next := func() cnf.Var { v++; f.AddExistential(v); return v }
	p := make([][]cnf.Var, n+1)
	for i := range p {
		p[i] = make([]cnf.Var, n)
		for j := range p[i] {
			p[i][j] = next()
		}
	}
	for i := 0; i <= n; i++ {
		c := make([]cnf.Lit, 0, n)
		for j := 0; j < n; j++ {
			c = append(c, cnf.PosLit(p[i][j]))
		}
		f.Matrix.AddClause(c...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				f.Matrix.AddClause(cnf.NegLit(p[i][j]), cnf.NegLit(p[k][j]))
			}
		}
	}
	return f
}

// wideExpandDQBF has 21 universals, one more than the expand engine's
// default expansion limit; the single existential depends on all of them.
func wideExpandDQBF() *dqbf.Formula {
	f := dqbf.New()
	for v := 1; v <= 21; v++ {
		f.AddUniversal(cnf.Var(v))
	}
	f.AddExistential(22, f.Univ...)
	f.Matrix.AddDimacsClause(22)
	return f
}

func TestRunEngines(t *testing.T) {
	for _, tc := range []struct {
		f       *dqbf.Formula
		engines []Engine
		want    Verdict
		reason  string
	}{
		{paperExample1(), Engines, VerdictSat, "solved"},
		{unsatExample(), Engines, VerdictUnsat, "solved"},
		// The expansion refusal is the expand engine's memory limit.
		{wideExpandDQBF(), []Engine{EngineExpand}, VerdictUnknown, "memout"},
	} {
		for _, eng := range tc.engines {
			out, err := RunTracedProblem(problem.FromDQBF(tc.f), eng, budget.WithTimeout(30*time.Second), nil)
			if err != nil {
				t.Fatalf("%s: RunTracedProblem: %v", eng, err)
			}
			if out.Verdict != tc.want {
				t.Fatalf("%s: verdict = %v, want %v", eng, out.Verdict, tc.want)
			}
			if out.Reason != tc.reason {
				t.Fatalf("%s: reason = %q, want %q", eng, out.Reason, tc.reason)
			}
			// Outside a scheduler every engine's SAT answer is checked and
			// carries its certificate.
			if out.Verdict == VerdictSat && out.Cert == nil {
				t.Fatalf("%s: SAT without a checked certificate", eng)
			}
		}
	}
}

func TestRunUnknownEngine(t *testing.T) {
	if _, err := RunTracedProblem(problem.FromDQBF(paperExample1()), Engine("bogus"), nil, nil); err == nil {
		t.Fatal("want error for unknown engine")
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Fatal("want error from ParseEngine")
	}
	if eng, err := ParseEngine(""); err != nil || eng != EnginePortfolio {
		t.Fatalf("ParseEngine(\"\") = %v, %v; want portfolio", eng, err)
	}
}

// TestCancelMidSolve is the tentpole cancellation scenario: a hard instance
// is cancelled mid-solve and each engine must return Unknown promptly.
func TestCancelMidSolve(t *testing.T) {
	for _, eng := range []Engine{EngineHQS, EngineIDQ, EngineDefex, EnginePortfolio} {
		eng := eng
		t.Run(string(eng), func(t *testing.T) {
			t.Parallel()
			b := budget.New(budget.Limits{})
			go func() {
				time.Sleep(50 * time.Millisecond)
				b.Cancel()
			}()
			start := time.Now()
			out, err := RunTracedProblem(problem.FromDQBF(pigeonholeDQBF(11)), eng, b, nil)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if out.Verdict != VerdictUnknown {
				t.Fatalf("verdict = %v (in %v), want UNKNOWN", out.Verdict, elapsed)
			}
			if out.Reason != "cancelled" {
				t.Fatalf("reason = %q, want cancelled", out.Reason)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("cancellation took %v, want prompt return", elapsed)
			}
		})
	}
}

// TestPortfolioDeterministicAnswer races the portfolio repeatedly on both a
// SAT and an UNSAT instance: whichever engine wins, the verdict must not
// change.
func TestPortfolioDeterministicAnswer(t *testing.T) {
	for i := 0; i < 8; i++ {
		out, err := RunTracedProblem(problem.FromDQBF(paperExample1()), EnginePortfolio, budget.WithTimeout(30*time.Second), nil)
		if err != nil || out.Verdict != VerdictSat {
			t.Fatalf("round %d: got %v (err %v), want SAT", i, out.Verdict, err)
		}
		out, err = RunTracedProblem(problem.FromDQBF(unsatExample()), EnginePortfolio, budget.WithTimeout(30*time.Second), nil)
		if err != nil || out.Verdict != VerdictUnsat {
			t.Fatalf("round %d: got %v (err %v), want UNSAT", i, out.Verdict, err)
		}
	}
}

func TestPortfolioTimeout(t *testing.T) {
	out, err := RunTracedProblem(problem.FromDQBF(pigeonholeDQBF(11)), EnginePortfolio, budget.WithTimeout(100*time.Millisecond), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Verdict != VerdictUnknown || out.Reason != "timeout" {
		t.Fatalf("got verdict %v reason %q, want UNKNOWN/timeout", out.Verdict, out.Reason)
	}
}

// TestPortfolioAgreesWithSerial is the portfolio acceptance check: on random
// instances the portfolio verdict must match every serial engine that can
// decide the instance within its own limits.
func TestPortfolioAgreesWithSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 25; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(10))
		port, err := RunTracedProblem(problem.FromDQBF(f), EnginePortfolio, budget.WithTimeout(30*time.Second), nil)
		if err != nil {
			t.Fatalf("instance %d: portfolio: %v", i, err)
		}
		if port.Verdict != VerdictSat && port.Verdict != VerdictUnsat {
			t.Fatalf("instance %d: portfolio verdict %v (%s)", i, port.Verdict, port.Reason)
		}
		for _, eng := range []Engine{EngineHQS, EngineIDQ, EngineDefex, EngineExpand} {
			out, err := RunTracedProblem(problem.FromDQBF(f), eng, budget.WithTimeout(30*time.Second), nil)
			if err != nil {
				t.Fatalf("instance %d %s: %v", i, eng, err)
			}
			if out.Verdict != VerdictSat && out.Verdict != VerdictUnsat {
				continue // engine-local limit; nothing to compare
			}
			if out.Verdict != port.Verdict {
				t.Fatalf("instance %d: %s says %v, portfolio says %v\nclauses %v",
					i, eng, out.Verdict, port.Verdict, f.Matrix.Clauses)
			}
		}
	}
}

// TestEngineStatsMetering pins the per-engine win accounting: serial runs win
// for themselves, a portfolio run credits the engine of the schedule that
// answered, and there is no portfolio row.
func TestEngineStatsMetering(t *testing.T) {
	ResetEngineStats()
	defer ResetEngineStats()

	for _, eng := range []Engine{EngineHQS, EngineIDQ, EngineDefex, EngineExpand} {
		if _, err := RunTracedProblem(problem.FromDQBF(paperExample1()), eng, budget.WithTimeout(30*time.Second), nil); err != nil {
			t.Fatal(err)
		}
		st := EngineStats()
		if st[eng].Attempts != 1 || st[eng].Wins != 1 {
			t.Fatalf("%s: counters = %+v, want 1 attempt / 1 win", eng, st[eng])
		}
	}

	ResetEngineStats()
	out, err := RunTracedProblem(problem.FromDQBF(unsatExample()), EnginePortfolio, budget.WithTimeout(30*time.Second), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != VerdictUnsat || out.Engine != EngineHQS {
		t.Fatalf("portfolio answered %v via %q, want UNSAT via hqs", out.Verdict, out.Engine)
	}
	want := map[Engine]EngineCounters{
		EngineHQS:    {Attempts: 1, Wins: 1},
		EngineIDQ:    {},
		EngineDefex:  {},
		EngineExpand: {},
	}
	if st := EngineStats(); !reflect.DeepEqual(st, want) {
		t.Fatalf("engine stats after a portfolio run = %+v, want %+v", st, want)
	}
}

func TestCanonicalHashInvariance(t *testing.T) {
	base := paperExample1()

	perm := dqbf.New()
	perm.AddUniversal(2) // universal order swapped
	perm.AddUniversal(1)
	perm.AddExistential(4, 2) // existential order swapped
	perm.AddExistential(3, 1)
	perm.Matrix.AddDimacsClause(4, -2) // clause order and literal order shuffled
	perm.Matrix.AddDimacsClause(-4, 2)
	perm.Matrix.AddDimacsClause(1, -3)
	perm.Matrix.AddDimacsClause(-1, 3)

	if problem.CanonicalFormulaHash(base) != problem.CanonicalFormulaHash(perm) {
		t.Fatal("hash not invariant under prefix/clause/literal reordering")
	}
	if problem.CanonicalFormulaHash(base) == problem.CanonicalFormulaHash(unsatExample()) {
		t.Fatal("distinct formulas collide")
	}

	// A changed dependency set must change the hash even when everything
	// else agrees.
	dep := paperExample1()
	dep.Deps[3].Add(2)
	if problem.CanonicalFormulaHash(base) == problem.CanonicalFormulaHash(dep) {
		t.Fatal("hash ignores dependency sets")
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", Outcome{Verdict: VerdictSat})
	c.Put("b", Outcome{Verdict: VerdictUnsat})
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", Outcome{Verdict: VerdictSat})
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func waitDone(t *testing.T, j *Job) Outcome {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
	return j.Outcome()
}

func TestSchedulerSolvesAndCaches(t *testing.T) {
	s := NewScheduler(Config{Workers: 2})
	defer s.Drain(context.Background())

	j1, err := s.Submit(problem.FromDQBF(paperExample1()), EnginePortfolio, Limits{Timeout: 30 * time.Second}, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	out := waitDone(t, j1)
	if out.Verdict != VerdictSat || out.FromCache {
		t.Fatalf("first solve: %+v", out)
	}
	info := j1.Info()
	if info.State != StateDone || info.Outcome == nil || info.Outcome.Verdict != VerdictSat {
		t.Fatalf("job info: %+v", info)
	}

	// Same instance with permuted clauses must hit the cache.
	perm := paperExample1()
	perm.Matrix.Clauses[0], perm.Matrix.Clauses[3] = perm.Matrix.Clauses[3], perm.Matrix.Clauses[0]
	j2, err := s.Submit(problem.FromDQBF(perm), EngineHQS, Limits{}, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	out = waitDone(t, j2)
	if out.Verdict != VerdictSat || !out.FromCache {
		t.Fatalf("second solve not from cache: %+v", out)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.Solved != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSchedulerConcurrentSubmit(t *testing.T) {
	s := NewScheduler(Config{Workers: 4, QueueCap: 256, CacheSize: -1})
	defer s.Drain(context.Background())

	const n = 32
	var wg sync.WaitGroup
	outs := make([]Outcome, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := paperExample1()
			want := VerdictSat
			if i%2 == 1 {
				f = unsatExample()
				want = VerdictUnsat
			}
			j, err := s.Submit(problem.FromDQBF(f), EnginePortfolio, Limits{Timeout: 30 * time.Second}, "")
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			select {
			case <-j.Done():
			case <-time.After(60 * time.Second):
				t.Errorf("job %d stuck", i)
				return
			}
			outs[i] = j.Outcome()
			if outs[i].Verdict != want {
				t.Errorf("job %d: verdict %v, want %v", i, outs[i].Verdict, want)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Completed != n || st.Submitted != n {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSchedulerCancelRunningJob(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, CacheSize: -1})
	defer s.Drain(context.Background())

	j, err := s.Submit(problem.FromDQBF(pigeonholeDQBF(11)), EngineHQS, Limits{}, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait until a worker picks the job up, then cancel mid-solve.
	deadline := time.Now().Add(10 * time.Second)
	for j.Info().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Cancel(j.ID()); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	out := waitDone(t, j)
	if out.Verdict != VerdictUnknown || out.Reason != "cancelled" {
		t.Fatalf("cancelled job: %+v", out)
	}
	// The worker must remain usable: a fresh easy job still solves.
	j2, err := s.Submit(problem.FromDQBF(paperExample1()), EngineHQS, Limits{Timeout: 30 * time.Second}, "")
	if err != nil {
		t.Fatalf("Submit after cancel: %v", err)
	}
	if out := waitDone(t, j2); out.Verdict != VerdictSat {
		t.Fatalf("post-cancel solve: %+v", out)
	}
	if err := s.Cancel("nope"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("Cancel(nope) = %v, want ErrNoSuchJob", err)
	}
}

func TestSchedulerQueueFullAndLimits(t *testing.T) {
	// One worker stuck on a hard job, a queue of one: the third submit must
	// be rejected with ErrQueueFull.
	s := NewScheduler(Config{Workers: 1, QueueCap: 1, CacheSize: -1})
	blocker, err := s.Submit(problem.FromDQBF(pigeonholeDQBF(11)), EngineHQS, Limits{}, "")
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for blocker.Info().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(problem.FromDQBF(paperExample1()), EngineHQS, Limits{}, ""); err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	if _, err := s.Submit(problem.FromDQBF(paperExample1()), EngineHQS, Limits{}, ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if _, err := s.Submit(problem.FromDQBF(paperExample1()), Engine("bogus"), Limits{}, ""); err == nil {
		t.Fatal("want engine validation error")
	}
	bad := dqbf.New()
	bad.Matrix.AddDimacsClause(1) // free variable: must be rejected
	if _, err := s.Submit(problem.FromDQBF(bad), EngineHQS, Limits{}, ""); err == nil {
		t.Fatal("want validation error for free variable")
	}

	// MaxTimeout clamp: with a 50ms cap the blocker-class job times out.
	s2 := NewScheduler(Config{Workers: 1, CacheSize: -1, MaxTimeout: 50 * time.Millisecond})
	j, err := s2.Submit(problem.FromDQBF(pigeonholeDQBF(11)), EngineHQS, Limits{Timeout: time.Hour}, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if out := waitDone(t, j); out.Verdict != VerdictUnknown || out.Reason != "timeout" {
		t.Fatalf("clamped job: %+v", out)
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("drain s2: %v", err)
	}

	// Hard drain: cancel the blocker via the drain context.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hard drain: %v", err)
	}
	if out := blocker.Outcome(); out.Verdict != VerdictUnknown {
		t.Fatalf("blocker after hard drain: %+v", out)
	}
	if _, err := s.Submit(problem.FromDQBF(paperExample1()), EngineHQS, Limits{}, ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
}

func TestSchedulerDrainWaitsForQueued(t *testing.T) {
	s := NewScheduler(Config{Workers: 2, CacheSize: -1})
	jobs := make([]*Job, 0, 8)
	for i := 0; i < 8; i++ {
		j, err := s.Submit(problem.FromDQBF(paperExample1()), EngineIDQ, Limits{Timeout: 30 * time.Second}, "")
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d unfinished after drain", i)
		}
		if out := j.Outcome(); out.Verdict != VerdictSat {
			t.Fatalf("job %d: %+v", i, out)
		}
	}
}

func TestJobHistoryEviction(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, HistorySize: 2, CacheSize: -1})
	defer s.Drain(context.Background())
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(problem.FromDQBF(unsatExample()), EngineIDQ, Limits{Timeout: 30 * time.Second}, "")
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID())
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatal("oldest job should have been evicted")
	}
	if _, ok := s.Job(ids[3]); !ok {
		t.Fatal("newest job missing")
	}
}

func TestVerdictJSON(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictSat:     `"SAT"`,
		VerdictUnsat:   `"UNSAT"`,
		VerdictUnknown: `"UNKNOWN"`,
	} {
		b, err := v.MarshalJSON()
		if err != nil || string(b) != want {
			t.Fatalf("MarshalJSON(%v) = %s, %v; want %s", v, b, err, want)
		}
		if fmt.Sprint(v) != want[1:len(want)-1] {
			t.Fatalf("String(%d) = %s", int(v), v)
		}
	}
}
