package service

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dqbf"
	"repro/internal/problem"
	"repro/internal/trace"
)

// TestPanicBecomesErrorVerdict: a SAT-oracle panic on every call must not
// escape Run — it becomes a VerdictError outcome with the stack preserved.
func TestPanicBecomesErrorVerdict(t *testing.T) {
	withFaults(t, "sat.solve:panic", 1)
	out, err := RunTracedProblem(problem.FromDQBF(unsatExample()), EngineIDQ, budget.New(budget.Limits{}), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Verdict != VerdictError {
		t.Fatalf("verdict = %v, want ERROR", out.Verdict)
	}
	if out.Error == "" || !strings.Contains(out.Error, "panicked") {
		t.Fatalf("error text = %q, want a panic message", out.Error)
	}
	if !strings.Contains(out.PanicStack, "goroutine") {
		t.Fatalf("panic stack not captured: %q", out.PanicStack)
	}
}

// TestRetryRecoversFromTransientFault: a fault that fires exactly once must
// cost one retry, not the verdict.
func TestRetryRecoversFromTransientFault(t *testing.T) {
	withFaults(t, "sat.solve:panic:times=1", 1)
	out := solveRetry(problem.FromDQBF(unsatExample()), EngineIDQ, budget.New(budget.Limits{}), RetryPolicy{BaseDelay: time.Millisecond}, false, nil, nil)
	if out.Verdict != VerdictUnsat {
		t.Fatalf("verdict = %v (%s: %s), want UNSAT after retry", out.Verdict, out.Reason, out.Error)
	}
	if out.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one failure, one success)", out.Attempts)
	}
	if out.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0 (same engine recovered)", out.Fallbacks)
	}
}

// TestSpuriousUnknownIsRetried: an injected spurious Unknown with budget to
// spare must be retried rather than reported.
func TestSpuriousUnknownIsRetried(t *testing.T) {
	withFaults(t, "sat.solve:unknown:times=1", 1)
	out := solveRetry(problem.FromDQBF(unsatExample()), EngineIDQ, budget.New(budget.Limits{}), RetryPolicy{BaseDelay: time.Millisecond}, false, nil, nil)
	if out.Verdict != VerdictUnsat {
		t.Fatalf("verdict = %v (%s), want UNSAT after retry", out.Verdict, out.Reason)
	}
	if out.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2", out.Attempts)
	}
}

// xorLinkedDQBF is ∀x1∀x2 ∃y1(x1) ∃y2(x2) with matrix (y1⊕y2) ↔ (x1⊕x2):
// satisfiable (y1=x1, y2=x2), but — unlike the paper examples, which
// preprocessing decides outright — its 4-literal XOR clauses survive
// preprocessing, so HQS must run elimination-set selection (the dependency
// sets form a binary cycle, so the MaxSAT oracle runs) and finish in the QBF
// back end.
func xorLinkedDQBF() *dqbf.Formula {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 1)
	f.AddExistential(4, 2)
	// Block every assignment violating (y1 xor y2) <-> (x1 xor x2).
	for a := 0; a < 16; a++ {
		x1, x2, y1, y2 := a&1, (a>>1)&1, (a>>2)&1, (a>>3)&1
		if (y1 ^ y2) != (x1 ^ x2) {
			lit := func(v, val int) int {
				if val == 1 {
					return -v
				}
				return v
			}
			f.Matrix.AddDimacsClause(lit(1, x1), lit(2, x2), lit(3, y1), lit(4, y2))
		}
	}
	return f
}

// TestFallbackChainReachesBaseline: when the requested engine fails every
// attempt, the chain must fall through and another engine must answer. The
// MaxSAT elimination-set oracle is only used by HQS, so poisoning it
// permanently kills HQS on a cyclic instance while leaving iDQ untouched.
func TestFallbackChainReachesBaseline(t *testing.T) {
	withFaults(t, "maxsat.solve:error", 1)
	out := solveRetry(problem.FromDQBF(xorLinkedDQBF()), EngineHQS, budget.New(budget.Limits{}), RetryPolicy{BaseDelay: time.Millisecond}, false, nil, nil)
	if out.Verdict != VerdictSat {
		t.Fatalf("verdict = %v (%s: %s), want SAT via fallback", out.Verdict, out.Reason, out.Error)
	}
	if out.Fallbacks == 0 {
		t.Fatal("fallbacks = 0, want > 0 (hqs cannot answer with a poisoned maxsat oracle)")
	}
	if out.Engine == EngineHQS {
		t.Fatalf("winning engine = %s, but its oracle is poisoned", out.Engine)
	}
}

// TestFallbackChainShape pins the documented chain per requested engine.
func TestFallbackChainShape(t *testing.T) {
	cases := []struct {
		eng  Engine
		want []Engine
	}{
		{EngineHQS, []Engine{EngineHQS, EngineIDQ}},
		{EngineDefex, []Engine{EngineDefex, EngineHQS, EngineIDQ}},
		{EngineExpand, []Engine{EngineExpand, EngineHQS, EngineIDQ}},
		{EnginePortfolio, []Engine{EngineHQS, EngineIDQ}},
		{"", []Engine{EngineHQS, EngineIDQ}},
		{EngineIDQ, []Engine{EngineIDQ}},
	}
	for _, c := range cases {
		got := FallbackChain(c.eng)
		if len(got) != len(c.want) {
			t.Fatalf("FallbackChain(%q) = %v, want %v", c.eng, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("FallbackChain(%q) = %v, want %v", c.eng, got, c.want)
			}
		}
	}
}

// TestPortfolioFallsBackOnMemout: when HQS stops at its AIG node cap with
// job budget to spare, the portfolio hands the instance to iDQ, which
// answers with a checked certificate; defex and expand never run.
func TestPortfolioFallsBackOnMemout(t *testing.T) {
	ResetEngineStats()
	defer ResetEngineStats()
	out, err := RunTracedProblem(problem.FromDQBF(xorLinkedDQBF()), EnginePortfolio, budget.New(budget.Limits{Nodes: 1}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != VerdictSat || out.Engine != EngineIDQ || out.Cert == nil {
		t.Fatalf("got %v via %q (%s, cert %v), want certified SAT via idq", out.Verdict, out.Engine, out.Reason, out.Cert != nil)
	}
	if out.Attempts != 2 || out.Fallbacks != 1 {
		t.Fatalf("attempts/fallbacks = %d/%d, want 2/1", out.Attempts, out.Fallbacks)
	}
	want := map[Engine]EngineCounters{
		EngineHQS:    {Attempts: 1},
		EngineIDQ:    {Attempts: 1, Wins: 1},
		EngineDefex:  {},
		EngineExpand: {},
	}
	if st := EngineStats(); !reflect.DeepEqual(st, want) {
		t.Fatalf("engine stats = %+v, want %+v", st, want)
	}
}

// TestPortfolioNoFallbackOnDeadline: a job whose own deadline expires inside
// HQS reports the timeout; iDQ never starts, because the job budget it
// would run on is already spent.
func TestPortfolioNoFallbackOnDeadline(t *testing.T) {
	ResetEngineStats()
	defer ResetEngineStats()
	s := NewScheduler(Config{Workers: 1, CacheSize: -1})
	defer drainNow(t, s)
	job, err := s.Submit(problem.FromDQBF(pigeonholeDQBF(11)), EnginePortfolio, Limits{Timeout: 100 * time.Millisecond}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	out := job.Outcome()
	if out.Verdict != VerdictUnknown || out.Reason != "timeout" || out.Engine != EngineHQS {
		t.Fatalf("got %v/%s via %q, want UNKNOWN/timeout via hqs", out.Verdict, out.Reason, out.Engine)
	}
	if out.Attempts != 1 || out.Fallbacks != 0 {
		t.Fatalf("attempts/fallbacks = %d/%d, want 1/0", out.Attempts, out.Fallbacks)
	}
	if st := EngineStats(); st[EngineIDQ].Attempts != 0 || st[EngineHQS].Attempts != 1 {
		t.Fatalf("engine stats = %+v, want one hqs attempt and no idq attempt", st)
	}
}

// TestPortfolioTraceSink: in portfolio mode the sink receives the pass
// events of the HQS run that answers. The planted build latency gives any
// concurrently started engine ample time to answer first, so only a serial
// schedule reports HQS here.
func TestPortfolioTraceSink(t *testing.T) {
	withFaults(t, "pipeline.build:latency:latency=300ms", 1)
	rec := trace.NewRecorder(0)
	out, err := RunTracedProblem(problem.FromDQBF(xorLinkedDQBF()), EnginePortfolio, budget.WithTimeout(30*time.Second), rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != VerdictSat || out.Engine != EngineHQS {
		t.Fatalf("got %v via %q, want SAT via hqs", out.Verdict, out.Engine)
	}
	stages := map[string]bool{}
	passes := map[string]bool{}
	for _, ev := range rec.Events() {
		stages[ev.Stage] = true
		passes[ev.Pass] = true
	}
	if !stages["hqs"] || !stages["qbf"] || !passes["build"] || !passes["elimset"] {
		t.Fatalf("trace stages %v passes %v, want the full HQS schedule", stages, passes)
	}
}

// TestCertificateFailureIsError: a SAT verdict whose Skolem certificate
// fails verification must surface as ERROR, never as a silent SAT. Outside
// a scheduler every engine is checked, the portfolio's arms included.
func TestCertificateFailureIsError(t *testing.T) {
	withFaults(t, "service.certify:error", 1)
	for _, eng := range Engines {
		out, err := RunTracedProblem(problem.FromDQBF(paperExample1()), eng, budget.New(budget.Limits{}), nil)
		if err != nil {
			t.Fatalf("%s: RunTracedProblem: %v", eng, err)
		}
		if out.Verdict != VerdictError {
			t.Fatalf("%s: verdict = %v, want ERROR on certificate rejection", eng, out.Verdict)
		}
		if !strings.Contains(out.Error, "certificate") {
			t.Fatalf("%s: error text = %q, want certificate rejection", eng, out.Error)
		}
	}
}

// TestSchedulerMetersRetriesAndErrors checks the per-job accounting the
// scheduler exports: injected dispatch errors must show up as Errors, and
// transient engine faults as Retries, with every job still terminal.
func TestSchedulerMetersRetriesAndErrors(t *testing.T) {
	withFaults(t, "sched.dispatch:error:every=2", 3)
	s := NewScheduler(Config{
		Workers:        1,
		DefaultTimeout: 5 * time.Second,
		CacheSize:      -1, // every job must really dispatch
		Retry:          RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond},
	})
	defer drainNow(t, s)

	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(problem.FromDQBF(unsatExample()), EngineIDQ, Limits{}, "")
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
	}
	st := s.Stats()
	if st.Errors != 3 {
		t.Fatalf("stats.Errors = %d, want 3 (dispatch fault fires every 2nd job)", st.Errors)
	}
	if st.Solved != 3 {
		t.Fatalf("stats.Solved = %d, want 3", st.Solved)
	}
	for _, j := range jobs {
		out := j.Outcome()
		if out.Verdict == VerdictError && !strings.Contains(out.Error, "dispatch failed") {
			t.Fatalf("error job has unexpected error text %q", out.Error)
		}
	}
}

// TestVerdictErrorJSONRoundTrip extends the verdict JSON coverage to the new
// ERROR verdict and the failure fields of Outcome.
func TestVerdictErrorJSONRoundTrip(t *testing.T) {
	out := Outcome{
		Verdict:    VerdictError,
		Engine:     EngineHQS,
		Reason:     "error",
		Error:      "engine hqs panicked: boom",
		PanicStack: "goroutine 1 [running]:\n...",
		Attempts:   4,
		Fallbacks:  2,
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"verdict":"ERROR"`) {
		t.Fatalf("marshalled outcome = %s", data)
	}
	var back Outcome
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Verdict != VerdictError || back.Error != out.Error || back.Attempts != 4 || back.Fallbacks != 2 {
		t.Fatalf("round trip mangled outcome: %+v", back)
	}
}
