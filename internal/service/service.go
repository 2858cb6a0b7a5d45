// Package service turns the batch DQBF solvers into a long-running solver
// service: it provides cancellable engine runners over a shared budget, a
// portfolio mode that is one serial schedule — HQS decides, and the iDQ
// baseline runs only when HQS stops at an engine-local limit — with
// per-engine attempt/win counters answering which engine actually produces
// verdicts, a bounded worker-pool scheduler with a job queue and per-job
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
	// EnginePortfolio is the serial schedule FallbackChain(EnginePortfolio):
	// HQS first, then iDQ only when HQS stops at an engine-local limit
	// (memout, or its own timeout) while the job budget is still open.
	EnginePortfolio Engine = "portfolio"
)

// Engines lists every selectable engine (the four runners first).
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
	// Attempts counts runs of this engine started, portfolio and fallback
	// runs included.
	Attempts int64 `json:"attempts"`
	// Wins counts definitive verdicts the engine produced.
	Wins int64 `json:"wins"`
}

// engineMeters holds the process-global per-engine counters; index by the
// engine constants above. Atomic because the scheduler's workers run
// concurrently.
var engineMeters = map[Engine]*struct{ attempts, wins atomic.Int64 }{
	EngineHQS:    {},
	EngineIDQ:    {},
	EngineDefex:  {},
	EngineExpand: {},
}

// EngineStats snapshots the process-wide per-engine attempt/win counters —
// the answer to "which engine actually produces the verdicts".
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
	// Engine is the engine that produced the outcome; in portfolio mode the
	// last engine of the schedule that ran.
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
// It performs one attempt per engine — retries are the scheduler's job —
// and panics are still isolated into a VerdictError outcome. A named engine
// runs once; the portfolio walks FallbackChain(EnginePortfolio) once and
// moves to the next engine only when classify sends it there (an
// engine-local memout or timeout with b still open). Outside a scheduler
// there is no certification setting, so every engine's SAT answer must
// survive the independent certificate checker before it is reported. The
// problem is not modified. Conflict/decision meters are read from b, so
// callers wanting per-call totals should pass a fresh budget per call.
//
// Every pipeline pass an engine executes emits one structured trace.Event
// to sink; a nil sink disables tracing. PQE problems are not engine jobs —
// route them through SolvePQE.
func RunTracedProblem(p *problem.Problem, eng Engine, b *budget.Budget, sink trace.Sink) (Outcome, error) {
	eng, err := ParseEngine(string(eng))
	if err != nil {
		return Outcome{}, err
	}
	if p.Formula == nil {
		return Outcome{}, fmt.Errorf("service: %s problem has no formula (use SolvePQE for PQE queries)", p.Kind)
	}
	chain := []Engine{eng}
	if eng == EnginePortfolio {
		chain = FallbackChain(eng)
	}
	var out Outcome
	for i, e := range chain {
		out = runGuarded(p, e, b, sink, true)
		out.Attempts, out.Fallbacks = i+1, i
		if classify(out, b) != dispositionFallback {
			break
		}
	}
	out.Conflicts = b.ConflictsUsed()
	out.Decisions = b.DecisionsUsed()
	return out, nil
}

// runGuarded executes one attempt of a single engine (not the portfolio,
// which is a schedule over engines) with panic isolation: a panic anywhere
// in the engine (or injected by a fault plan) is converted into a
// VerdictError outcome carrying the message and captured stack. certify
// makes the HQS and defex engines extract a Skolem certificate and have
// their SAT answers checked; iDQ and expand answers are always checked.
func runGuarded(p *problem.Problem, eng Engine, b *budget.Budget, sink trace.Sink, certify bool) (out Outcome) {
	if m := engineMeters[eng]; m != nil {
		m.attempts.Add(1)
		defer func() {
			if out.Verdict == VerdictSat || out.Verdict == VerdictUnsat {
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
		panic(fmt.Sprintf("service: engine %q has no runner", eng))
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
