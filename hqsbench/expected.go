package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/pec"
	"repro/internal/problem"
	"repro/internal/service"
)

// The reference verdicts of both pools, committed with the benchmark. They
// come from engines other than HQS (see reference); an instance no other
// engine could decide carries HQS's own verdict and the source
// "hqs-unconfirmed", and is counted as flagged in every run. An instance
// nobody decides is recorded as UNKNOWN and never enters a run.
var (
	//go:embed testdata/expected_hard.tsv
	expectedHardTSV []byte
	//go:embed testdata/expected_serve.tsv
	expectedServeTSV []byte
)

// expectation is one committed reference verdict.
type expectation struct {
	Key    string
	Sat    bool
	Source string
	// HQSMS is HQS's median solve time when the table was generated (the
	// hard pool's run-set cutoff reads it); +Inf when HQS did not decide
	// the instance within regenBudget.
	HQSMS float64
}

func (e expectation) flagged() bool { return e.Source == sourceUnconfirmed }

const sourceUnconfirmed = "hqs-unconfirmed"

// loadExpected parses a committed verdict table (name, key, verdict,
// source per line) and checks that it describes exactly the given pool, so
// a change to the generator cannot silently pair inputs with stale verdicts.
func loadExpected(tsv []byte, pool []instance) ([]expectation, error) {
	byName := make(map[string]expectation)
	sc := bufio.NewScanner(bytes.NewReader(tsv))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 5 || (f[2] != "SAT" && f[2] != "UNSAT" && f[2] != "UNKNOWN") {
			return nil, fmt.Errorf("expected verdicts: bad line %q", line)
		}
		ms, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return nil, fmt.Errorf("expected verdicts: bad HQS time in %q", line)
		}
		byName[f[0]] = expectation{Key: f[1], Sat: f[2] == "SAT", Source: f[3], HQSMS: ms}
	}
	if len(byName) != len(pool) {
		return nil, fmt.Errorf("expected verdicts: %d entries for a pool of %d (regenerate with -regen)", len(byName), len(pool))
	}
	out := make([]expectation, len(pool))
	for i, inst := range pool {
		e, ok := byName[inst.Name]
		if !ok || e.Key != inst.Key {
			return nil, fmt.Errorf("expected verdicts: %s missing or generated differently (regenerate with -regen)", inst.Name)
		}
		out[i] = e
	}
	return out, nil
}

// referenceBudget bounds each independent engine run during regeneration.
const referenceBudget = 15 * time.Second

// regenBudget bounds each timing solve of HQS during regeneration.
const regenBudget = 10 * time.Second

// reference decides an instance without HQS: brute force over the black-box
// tables where the PEC problem is small enough; SAT by construction for a
// fault-free instance; otherwise the expand, idq and defex engines in turn
// under referenceBudget each. ok is false when none of them decides.
func reference(inst instance, p *problem.Problem) (sat bool, source string, ok bool) {
	if inst.PEC != nil && len(inst.PEC.Impl.Inputs) <= 12 {
		if sat, err := pec.BruteForceRealizable(inst.PEC); err == nil {
			return sat, "brute", true
		}
	}
	if !inst.Faulty {
		return true, "construction", true
	}
	for _, eng := range []service.Engine{service.EngineExpand, service.EngineIDQ, service.EngineDefex} {
		out, err := service.RunTracedProblem(p, eng, budget.WithTimeout(referenceBudget), nil)
		if err == nil && (out.Verdict == service.VerdictSat || out.Verdict == service.VerdictUnsat) {
			return out.Verdict == service.VerdictSat, string(eng), true
		}
	}
	return false, "", false
}

// timeHQS solves p as hqs_hard does and returns HQS's verdict and median
// time over up to three runs (one when the first is far beyond the hard
// cutoff); ok is false when HQS does not decide within regenBudget.
func timeHQS(p *problem.Problem) (sat bool, ms float64, ok bool) {
	var times []float64
	for i := 0; i < 3; i++ {
		opt := core.DefaultOptions()
		opt.Workers = 1
		opt.Certify = true
		opt.Timeout = regenBudget
		start := time.Now()
		res := core.New(opt).Solve(p)
		if res.Status != core.Solved {
			return false, math.Inf(1), false
		}
		sat = res.Sat
		times = append(times, since(start)*1e3)
		if times[0] > 2*hardCutoffMS {
			break
		}
	}
	return sat, median(times), true
}

// regenerate recomputes the reference verdicts of a pool and writes them as
// a verdict table. A disagreement between HQS and an independent reference
// is a solver bug and stops regeneration.
func regenerate(path string, pool []instance) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# name\tcanonical hash\tverdict\tsource (brute | construction | expand | idq | defex | %s | none)\tHQS ms\n", sourceUnconfirmed)
	for _, inst := range pool {
		p, err := problem.ParseBytes(inst.Body, inst.Format)
		if err != nil {
			return err
		}
		hqsSat, ms, hqsOK := timeHQS(p)
		sat, source, ok := reference(inst, p)
		switch {
		case ok && hqsOK && sat != hqsSat:
			return fmt.Errorf("%s: HQS says sat=%v, %s says sat=%v", inst.Name, hqsSat, source, sat)
		case !ok && hqsOK:
			sat, source = hqsSat, sourceUnconfirmed
		}
		v := "UNKNOWN"
		switch {
		case !ok && !hqsOK:
			source = "none"
		case sat:
			v = "SAT"
		default:
			v = "UNSAT"
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\t%.1f\n", inst.Name, inst.Key, v, source, ms)
		fmt.Fprintf(os.Stderr, "%s %s %s %.1fms\n", inst.Name, v, source, ms)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
