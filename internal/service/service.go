// Package service turns the batch DQBF solvers into a long-running solver
// service: it provides cancellable engine runners over a shared budget, a
// portfolio mode that races HQS, the iDQ baseline, the definition-extraction
// engine, and the expansion reference — cancelling the losers, with
// per-engine win/attempt counters answering which arm actually produces
// verdicts — a bounded worker-pool scheduler with a job queue and per-job
// limits, and an LRU result cache keyed by a canonical hash of the parsed
// formula.
//
// The package is also the failure-containment boundary of the stack: every
// engine attempt runs under recover (a panicking solver core becomes an
// Error verdict with the stack captured, never a dead worker), transient
// failures are retried with exponential backoff and jitter, failed engines
// fall back along a chain ending in the iDQ baseline, and SAT verdicts
// backed by Skolem certificates are verified before they are reported.
//
// The package is the substrate of the hqsd daemon (cmd/hqsd) but is equally
// usable in-process; every entry point is safe for concurrent use.
package service

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/defex"
	"repro/internal/dqbf"
	"repro/internal/expand"
	"repro/internal/faults"
	"repro/internal/idq"
	"repro/internal/pqe"
	"repro/internal/problem"
	"repro/internal/trace"
)

// Engine selects which solver core decides a job.
type Engine string

const (
	// EngineHQS is the paper's elimination-based solver (internal/core).
	EngineHQS Engine = "hqs"
	// EngineIDQ is the instantiation-based baseline (internal/idq).
	EngineIDQ Engine = "idq"
	// EngineDefex is the definition-extraction engine (internal/defex).
	EngineDefex Engine = "defex"
	// EngineExpand is the eager full-expansion reference engine
	// (internal/expand).
	EngineExpand Engine = "expand"
	// EnginePortfolio races the engines and cancels the losers. Because every
	// engine is sound, the reported verdict is deterministic even though the
	// winning engine may vary from run to run.
	EnginePortfolio Engine = "portfolio"
)

// Engines lists every selectable engine (portfolio arms first).
var Engines = []Engine{EngineHQS, EngineIDQ, EngineDefex, EngineExpand, EnginePortfolio}

// ParseEngine maps a user-supplied engine name to an Engine; the empty
// string selects the portfolio.
func ParseEngine(s string) (Engine, error) {
	switch Engine(s) {
	case EngineHQS, EngineIDQ, EngineDefex, EngineExpand, EnginePortfolio:
		return Engine(s), nil
	case "":
		return EnginePortfolio, nil
	default:
		return "", fmt.Errorf("service: unknown engine %q (want hqs, idq, defex, expand, or portfolio)", s)
	}
}

// EngineCounters are the per-engine attempt/win totals of the process.
type EngineCounters struct {
	// Attempts counts engine runs started (portfolio arms count for the arm's
	// engine AND one attempt for the portfolio row itself).
	Attempts int64 `json:"attempts"`
	// Wins counts definitive verdicts the engine itself produced; the
	// portfolio row never wins — its verdicts are credited to the winning arm.
	Wins int64 `json:"wins"`
}

// engineMeters holds the process-global per-engine counters; index by the
// engine constants above. Atomic because portfolio arms run concurrently.
var engineMeters = map[Engine]*struct{ attempts, wins atomic.Int64 }{
	EngineHQS:       {},
	EngineIDQ:       {},
	EngineDefex:     {},
	EngineExpand:    {},
	EnginePortfolio: {},
}

// EngineStats snapshots the process-wide per-engine attempt/win counters —
// the answer to "which portfolio arm actually produces the verdicts".
func EngineStats() map[Engine]EngineCounters {
	out := make(map[Engine]EngineCounters, len(engineMeters))
	for eng, m := range engineMeters {
		out[eng] = EngineCounters{Attempts: m.attempts.Load(), Wins: m.wins.Load()}
	}
	return out
}

// ResetEngineStats zeroes the per-engine counters (tests, benchmark runs).
func ResetEngineStats() {
	for _, m := range engineMeters {
		m.attempts.Store(0)
		m.wins.Store(0)
	}
}

// FormatEngineStats renders the counters as a stable one-line-per-engine
// table in the fixed Engines order.
func FormatEngineStats(stats map[Engine]EngineCounters) string {
	var b strings.Builder
	for _, eng := range Engines {
		c := stats[eng]
		if c.Attempts == 0 && c.Wins == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s attempts=%-6d wins=%d\n", eng, c.Attempts, c.Wins)
	}
	return b.String()
}

// Verdict is the four-valued answer of a budgeted solve.
type Verdict int

const (
	// VerdictUnknown means no verdict was reached (timeout, cancellation,
	// or resource-out).
	VerdictUnknown Verdict = iota
	// VerdictSat means the DQBF is satisfiable.
	VerdictSat
	// VerdictUnsat means the DQBF is unsatisfiable.
	VerdictUnsat
	// VerdictError means the solve failed rather than ran out of budget: an
	// engine panicked, an oracle returned an injected or internal error, or
	// a Skolem certificate failed verification. Error outcomes are never
	// cached and are produced only after retries and fallbacks were
	// exhausted.
	VerdictError
)

func (v Verdict) String() string {
	switch v {
	case VerdictSat:
		return "SAT"
	case VerdictUnsat:
		return "UNSAT"
	case VerdictError:
		return "ERROR"
	default:
		return "UNKNOWN"
	}
}

// MarshalJSON renders the verdict as its string form ("SAT", ...).
func (v Verdict) MarshalJSON() ([]byte, error) {
	return []byte(`"` + v.String() + `"`), nil
}

// UnmarshalJSON parses the string form produced by MarshalJSON.
func (v *Verdict) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"SAT"`:
		*v = VerdictSat
	case `"UNSAT"`:
		*v = VerdictUnsat
	case `"UNKNOWN"`:
		*v = VerdictUnknown
	case `"ERROR"`:
		*v = VerdictError
	default:
		return fmt.Errorf("service: bad verdict %s", data)
	}
	return nil
}

// Outcome is the result of one budgeted solve.
type Outcome struct {
	// Verdict is the answer (Unknown when the budget stopped the solve,
	// Error when the solve failed).
	Verdict Verdict `json:"verdict"`
	// Engine is the engine that produced the verdict; in portfolio mode the
	// race winner. Empty when no engine reached a verdict.
	Engine Engine `json:"engine,omitempty"`
	// Reason explains the outcome: "solved", "timeout", "cancelled",
	// "budget" (conflict/decision cap), "memout" (node/instantiation cap),
	// or "error" (engine failure; see Error).
	Reason string `json:"reason"`
	// Error describes the failure behind a VerdictError outcome.
	Error string `json:"error,omitempty"`
	// PanicStack is the captured goroutine stack when the failure was a
	// panic, preserved in the job record for postmortems.
	PanicStack string `json:"panic_stack,omitempty"`
	// FromCache marks a result served from the scheduler's in-memory LRU.
	FromCache bool `json:"from_cache,omitempty"`
	// FromStore marks a result served from the persistent on-disk store
	// (its certificate, when present, was re-verified before serving).
	FromStore bool `json:"from_store,omitempty"`
	// Attempts counts engine runs performed for this outcome, including
	// retries and fallback runs (0 for cache hits, otherwise >= 1).
	Attempts int `json:"attempts,omitempty"`
	// Fallbacks counts how far the outcome fell down the engine fallback
	// chain (0 = the requested engine answered).
	Fallbacks int `json:"fallbacks,omitempty"`
	// Conflicts and Decisions are the CDCL totals metered into the job's
	// budget across every oracle call of every engine involved.
	Conflicts int64 `json:"conflicts"`
	Decisions int64 `json:"decisions"`
	// Cert is the verified Skolem certificate backing a SAT verdict, carried
	// so the scheduler's persistent store can write it next to the result
	// (and re-verify it on every future load). Nil for UNSAT, for engines
	// that emitted none, and for uncertified HQS/defex runs. Not part
	// of the JSON surface — certificates are large and internal.
	Cert *cert.Certificate `json:"-"`
}

// RunTracedProblem decides an ingested problem (any formula kind, from any
// input format) with the given engine under budget b (nil means unlimited).
// It performs exactly one attempt — retries and fallbacks are the
// scheduler's job — but panics are still isolated into a VerdictError
// outcome. Outside a scheduler there is no certification setting, so every
// engine's SAT answer must survive the independent certificate checker
// before it is reported. The problem is not modified. Conflict/decision
// meters are read from b, so callers wanting per-call totals should pass a
// fresh budget per call.
//
// Every pipeline pass the HQS engine executes (in portfolio mode, the HQS
// arm) emits one structured trace.Event to sink; a nil sink disables
// tracing. PQE problems are not engine jobs — route them through SolvePQE.
func RunTracedProblem(p *problem.Problem, eng Engine, b *budget.Budget, sink trace.Sink) (Outcome, error) {
	if _, err := ParseEngine(string(eng)); err != nil {
		return Outcome{}, err
	}
	if p.Formula == nil {
		return Outcome{}, fmt.Errorf("service: %s problem has no formula (use SolvePQE for PQE queries)", p.Kind)
	}
	out := runGuarded(p, eng, b, sink, true)
	out.Attempts = 1
	out.Conflicts = b.ConflictsUsed()
	out.Decisions = b.DecisionsUsed()
	return out, nil
}

// runGuarded executes one engine attempt with panic isolation: a panic
// anywhere in the engine (or injected by a fault plan) is converted into a
// VerdictError outcome carrying the message and captured stack. certify
// makes the HQS and defex engines extract a Skolem certificate and have
// their SAT answers checked; iDQ and expand answers are always checked.
func runGuarded(p *problem.Problem, eng Engine, b *budget.Budget, sink trace.Sink, certify bool) (out Outcome) {
	if m := engineMeters[eng]; m != nil {
		m.attempts.Add(1)
		defer func() {
			// A win is a definitive verdict produced by this engine itself;
			// the portfolio's verdicts carry the winning arm's name and were
			// already credited there.
			if (out.Verdict == VerdictSat || out.Verdict == VerdictUnsat) && out.Engine == eng {
				m.wins.Add(1)
			}
		}()
	}
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{
				Verdict:    VerdictError,
				Engine:     eng,
				Reason:     "error",
				Error:      fmt.Sprintf("engine %s panicked: %v", eng, r),
				PanicStack: string(debug.Stack()),
			}
		}
	}()
	switch eng {
	case EngineHQS:
		return runHQS(p, b, sink, certify)
	case EngineIDQ:
		return runIDQ(p.Formula, b)
	case EngineDefex:
		return runDefex(p.Formula, b, sink, certify)
	case EngineExpand:
		return runExpand(p.Formula, b)
	default:
		return runPortfolio(p, b, sink, certify)
	}
}

// reasonFromErr maps a budget stop reason to an Outcome.Reason.
func reasonFromErr(err error) string {
	switch {
	case err == nil:
		return "cancelled"
	case errors.Is(err, budget.ErrDeadline):
		return "timeout"
	case errors.Is(err, budget.ErrCancelled):
		return "cancelled"
	case errors.Is(err, budget.ErrConflicts), errors.Is(err, budget.ErrDecisions):
		return "budget"
	default:
		return "cancelled"
	}
}

func runHQS(p *problem.Problem, b *budget.Budget, sink trace.Sink, certify bool) Outcome {
	f := p.Formula
	opt := core.DefaultOptions()
	opt.Budget = b
	opt.Trace = sink
	opt.Certify = certify
	res := core.New(opt).Solve(p)
	out := Outcome{Engine: EngineHQS}
	switch res.Status {
	case core.Solved:
		if res.Sat {
			return satOutcome(EngineHQS, f, res.Certificate, res.CertErr, opt.Certify)
		}
		out.Reason, out.Verdict = "solved", VerdictUnsat
	case core.Timeout:
		out.Reason = "timeout"
	case core.Memout:
		out.Reason = "memout"
	case core.Cancelled:
		out.Reason = reasonFromErr(b.Err())
	}
	return out
}

func runIDQ(f *dqbf.Formula, b *budget.Budget) Outcome {
	res := idq.New(idq.Options{Budget: b}).Solve(f)
	out := Outcome{Engine: EngineIDQ}
	switch res.Status {
	case idq.Solved:
		if res.Sat {
			return satOutcome(EngineIDQ, f, res.Certificate, nil, true)
		}
		out.Reason, out.Verdict = "solved", VerdictUnsat
	case idq.Timeout:
		out.Reason = "timeout"
	case idq.Memout:
		out.Reason = "memout"
	case idq.Cancelled:
		out.Reason = reasonFromErr(b.Err())
	}
	return out
}

// runDefex runs the definition-extraction engine. Like HQS it extracts AIG
// Skolem certificates, so it shares the HQS trust policy: with certify set
// a SAT verdict must survive the independent checker.
func runDefex(f *dqbf.Formula, b *budget.Budget, sink trace.Sink, certify bool) Outcome {
	opt := defex.DefaultOptions()
	opt.Budget = b
	opt.Trace = sink
	opt.Certify = certify
	res := defex.New(opt).Solve(f)
	out := Outcome{Engine: EngineDefex}
	switch res.Status {
	case defex.Solved:
		if res.Sat {
			return satOutcome(EngineDefex, f, res.Certificate, res.CertErr, opt.Certify)
		}
		out.Reason, out.Verdict = "solved", VerdictUnsat
	case defex.Timeout:
		out.Reason = "timeout"
	case defex.Memout:
		out.Reason = "memout"
	case defex.Cancelled:
		out.Reason = reasonFromErr(b.Err())
	}
	return out
}

// runExpand runs the eager full-expansion reference engine. Its
// certificates are always checked (the iDQ trust policy): the engine exists
// for cross-checking, so an unverified SAT from it has no value.
func runExpand(f *dqbf.Formula, b *budget.Budget) Outcome {
	res, err := expand.New(expand.Options{Budget: b, Certify: true}).Solve(f)
	out := Outcome{Engine: EngineExpand}
	if err != nil {
		switch {
		case errors.Is(err, budget.ErrDeadline):
			out.Reason = "timeout"
		case errors.Is(err, budget.ErrCancelled),
			errors.Is(err, budget.ErrConflicts),
			errors.Is(err, budget.ErrDecisions):
			out.Reason = reasonFromErr(b.Err())
		case errors.Is(err, expand.ErrTooLarge):
			// The expansion refusal is this engine's memory limit.
			out.Reason = "memout"
		default:
			out.Verdict = VerdictError
			out.Reason = "error"
			out.Error = err.Error()
		}
		return out
	}
	if res.Sat {
		return satOutcome(EngineExpand, f, res.Certificate, nil, true)
	}
	out.Reason, out.Verdict = "solved", VerdictUnsat
	return out
}

// satOutcome reports a SAT verdict of engine eng. With check set the
// verdict must first survive the independent certificate checker: the
// certificate is not trusted on the solver's word, and one the checker
// rejects (or that extraction failed to produce) means the engine, or the
// memory under it, is broken, so the honest answer is Error, not a silent
// SAT. iDQ and expand answers are always checked; HQS and defex answers
// when the run certifies. Every check fires the service.certify fault point
// once. The checked certificate rides on the outcome to the store.
func satOutcome(eng Engine, f *dqbf.Formula, c *cert.Certificate, extractErr error, check bool) Outcome {
	if !check {
		return Outcome{Verdict: VerdictSat, Engine: eng, Reason: "solved"}
	}
	err := faults.Fire(faults.CertVerify)
	if err == nil && extractErr != nil {
		err = fmt.Errorf("extraction failed: %w", extractErr)
	}
	if err == nil {
		err = cert.Check(f, c)
	}
	if err != nil {
		return Outcome{
			Verdict: VerdictError,
			Engine:  eng,
			Reason:  "error",
			Error:   fmt.Sprintf("skolem certificate rejected: %v", err),
		}
	}
	return Outcome{Verdict: VerdictSat, Engine: eng, Reason: "solved", Cert: c}
}

// SolvePQE answers a partial-quantifier-elimination query under budget b
// (nil means unlimited) with the same failure containment engine runs get:
// a panic anywhere in the PQE engine becomes an error, never a dead caller.
// On success the returned result's Q satisfies Q ∧ ∃X[G] ≡ ∃X[F ∧ G].
func SolvePQE(sp *problem.PQESplit, b *budget.Budget, sink trace.Sink) (res *pqe.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("pqe engine panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return pqe.Solve(sp, pqe.Options{Budget: b, Trace: sink})
}

// PortfolioArms lists the engines the portfolio races, in the order their
// goroutines are launched.
var PortfolioArms = []Engine{EngineHQS, EngineIDQ, EngineDefex, EngineExpand}

// runPortfolio races the portfolio arms (HQS, iDQ, defex, expand) on child
// budgets of b. The first definitive verdict wins and the losers are
// cancelled; if the parent budget stops first, every child is cancelled.
// Different engines win on different instance families (HQS on
// elimination-friendly prefixes, iDQ on refutable instances, defex on
// definable PEC boxes, expand on tiny universal counts), which is the point
// of keeping them all live behind one interface.
//
// Each arm runs guarded in its own goroutine, so a panicking engine loses
// the race instead of killing the process; the portfolio reports Error only
// when no arm produced a verdict and at least one failed outright.
func runPortfolio(p *problem.Problem, b *budget.Budget, sink trace.Sink, certify bool) Outcome {
	arms := PortfolioArms
	buds := make([]*budget.Budget, len(arms))
	ch := make(chan Outcome, len(arms))
	cancelAll := func() {
		for _, cb := range buds {
			cb.Cancel()
		}
	}
	for i, eng := range arms {
		buds[i] = b.Child()
		// Only the HQS arm gets the per-pass trace sink: sinks need not be
		// safe for concurrent emission from racing pipelines.
		var armSink trace.Sink
		if eng == EngineHQS {
			armSink = sink
		}
		go func(eng Engine, cb *budget.Budget, s trace.Sink) {
			ch <- runGuarded(p, eng, cb, s, certify)
		}(eng, buds[i], armSink)
	}

	var winner *Outcome
	var losers []Outcome
	doneCh := b.Done()
	for n := 0; n < len(arms); {
		select {
		case o := <-ch:
			n++
			if o.Verdict == VerdictSat || o.Verdict == VerdictUnsat {
				if winner == nil {
					o := o
					winner = &o
					// Cancel the losers; keep draining so every goroutine
					// finishes before we fold the meters back.
					cancelAll()
				}
			} else {
				losers = append(losers, o)
			}
		case <-doneCh:
			doneCh = nil
			cancelAll()
		}
	}
	for _, cb := range buds {
		b.AddConflicts(cb.ConflictsUsed())
		b.AddDecisions(cb.DecisionsUsed())
	}
	if winner != nil {
		return *winner
	}
	// Both arms came back empty-handed. If the parent budget stopped the
	// race, report its reason; otherwise merge the arms' outcomes by a fixed
	// priority (resource exhaustion over failure over cancellation) so the
	// report does not depend on arrival order.
	out := Outcome{Verdict: VerdictUnknown, Engine: EnginePortfolio, Reason: "cancelled"}
	if err := b.Err(); err != nil {
		out.Reason = reasonFromErr(err)
		return out
	}
	for _, want := range []string{"timeout", "memout", "budget"} {
		for _, o := range losers {
			if o.Reason == want {
				out.Reason = want
				return out
			}
		}
	}
	for _, o := range losers {
		if o.Verdict == VerdictError {
			out.Verdict = VerdictError
			out.Reason = "error"
			out.Error = o.Error
			out.PanicStack = o.PanicStack
			return out
		}
	}
	return out
}
