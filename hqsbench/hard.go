package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/problem"
)

const (
	// hardBudget is the per-instance solve budget; an unsolved instance is
	// charged this much (PAR-1).
	hardBudget = 4 * time.Second
	// hardCutoffMS admits a pool instance to the run set when HQS decided it
	// within this time when the reference table was generated: instances
	// beyond it would time out or dominate a run, and a run must finish.
	// Those left out stay listed in the table.
	hardCutoffMS = 500
	// hardPassSeconds is the nominal length of one pass over the run set
	// (5.5–6.7 s on a 2-core Xeon): a 20 s window runs three passes.
	hardPassSeconds = 6
	// setupRepeats is how many times a run builds its fixture to report
	// the median set-up time.
	setupRepeats = 3
)

// hardItem is one hqs_hard input: a pool instance with its variables
// renumbered by an order-preserving, seed-drawn map, so every seed sends
// different bytes with different canonical hashes while HQS, whose
// decisions follow variable order, does the same work.
type hardItem struct {
	name string
	body []byte
	key  string
	exp  expectation
}

// setupHard builds the seed's hqs_hard inputs: the run set of the pool in a
// seed-drawn order, each renumbered.
func setupHard(seed int64) ([]hardItem, error) {
	pool, err := hardPool()
	if err != nil {
		return nil, err
	}
	exps, err := loadExpected(expectedHardTSV, pool)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var items []hardItem
	for _, i := range rng.Perm(len(pool)) {
		if exps[i].HQSMS > hardCutoffMS {
			continue
		}
		p, err := problem.ParseBytes(pool[i].Body, pool[i].Format)
		if err != nil {
			return nil, err
		}
		f := renumbered(p.Formula, rng)
		var buf bytes.Buffer
		if err := f.WriteDQDIMACS(&buf); err != nil {
			return nil, err
		}
		items = append(items, hardItem{
			name: pool[i].Name,
			body: buf.Bytes(),
			key:  problem.CanonicalFormulaHash(f),
			exp:  exps[i],
		})
	}
	return items, nil
}

// hardResult is the outcome of one instance.
type hardResult struct {
	seconds   float64 // time to verdict, PAR-1
	solved    bool
	res       core.Result
	formula   *problem.Problem
	extractMS float64 // solve time outside every HQS pass (SAT only)
	conflicts int64
	decisions int64
}

// solveHard ingests, solves and checks one instance, recording spans when t
// is non-nil, and reports any disagreement with the reference through o.
func solveHard(it hardItem, t *tracer, req int, o *outcome) hardResult {
	var r hardResult
	start := time.Now()
	t.timed(req, 0, "item", func(root int) {
		var p *problem.Problem
		var err error
		t.timed(req, root, "problem.parse", func(int) { p, err = problem.ParseBytes(it.body, problem.FormatDQDIMACS) })
		if err != nil {
			o.fail("%s: parse: %v", it.name, err)
			return
		}
		var key string
		t.timed(req, root, "problem.hash", func(int) { key = problem.CanonicalFormulaHash(p.Formula) })
		if key != it.key {
			o.fail("%s: canonical hash changed between runs of the same input", it.name)
		}
		r.formula = p
		opt := core.DefaultOptions()
		opt.Workers = 1
		opt.Certify = true
		b := budget.New(budget.Limits{Timeout: hardBudget})
		opt.Budget = b
		var sink *passSink
		solveStart := time.Now()
		t.timed(req, root, "core.solve", func(id int) {
			if t != nil {
				sink = &passSink{t: t, req: req, parent: id}
				opt.Trace = sink
			}
			r.res = core.New(opt).Solve(p)
		})
		solveSec := since(solveStart)
		r.conflicts, r.decisions = b.ConflictsUsed(), b.DecisionsUsed()
		if r.res.Status != core.Solved {
			return
		}
		r.solved = true
		if r.res.Sat != it.exp.Sat {
			o.fail("%s: HQS says sat=%v, reference (%s) says sat=%v", it.name, r.res.Sat, it.exp.Source, it.exp.Sat)
			return
		}
		if !r.res.Sat {
			return
		}
		if sink != nil {
			r.extractMS = (solveSec - sink.topWall.Seconds()) * 1e3
		}
		if r.res.Certificate == nil {
			o.fail("%s: SAT without a certificate: %v", it.name, r.res.CertErr)
			return
		}
		t.timed(req, root, "cert.check", func(int) { err = cert.Check(p.Formula, r.res.Certificate) })
		if err != nil {
			o.fail("%s: certificate rejected: %v", it.name, err)
		}
	})
	r.seconds = since(start)
	if !r.solved {
		r.seconds = hardBudget.Seconds()
	}
	return r
}

// hardPass solves every item once and records per-item results.
func hardPass(items []hardItem, t *tracer, o *outcome) []hardResult {
	out := make([]hardResult, len(items))
	for i, it := range items {
		out[i] = solveHard(it, t, i+1, o)
		o.Attempted++
		if !out[i].solved {
			o.Failed++
		}
	}
	return out
}

func runHard(cfg config) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var items []hardItem
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if items, err = setupHard(cfg.Seed); err != nil {
			return nil, err
		}
		setups = append(setups, since(start))
	}
	for _, it := range items {
		if it.exp.flagged() {
			o.Flagged++
		}
	}
	if cfg.Trace {
		return o, hardTraced(items, o)
	}

	// The window is spent in whole passes, their number fixed by the window
	// alone: a count chosen from elapsed time would differ between runs of
	// one seed and change what the medians are taken over.
	window := time.Now()
	var passes [][]hardResult
	for len(passes) < max(1, int(cfg.Seconds/hardPassSeconds)) {
		passes = append(passes, hardPass(items, nil, o))
	}
	wall := since(window)

	perItem := make([]float64, len(items)) // median over passes, ms
	for i := range items {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p[i].seconds*1e3)
		}
		perItem[i] = median(xs)
	}
	var passTotals []float64
	for _, p := range passes {
		t := 0.0
		for _, r := range p {
			t += r.seconds
		}
		passTotals = append(passTotals, t)
	}
	o.set("setup_s", median(setups), setups)
	o.count("peak_rss_mb", peakRSSMB())
	o.set("solve_s_total", sum(perItem)/1e3, passTotals)
	o.set("solve_ms_geomean", geomean(perItem), perItem)
	o.set("latency_ms_p50", median(perItem), perItem)
	o.set("latency_ms_p90", quantile(perItem, 0.9), perItem)
	o.set("requests_per_s", float64(o.Attempted)/wall, passTotals)
	o.set("ok_frac", frac(o.Attempted-o.Failed-o.Mismatches, o.Attempted), nil)
	return o, nil
}

// hardTraced runs one untraced and one traced pass over the same items and
// reports the per-layer metrics of the traced one.
func hardTraced(items []hardItem, o *outcome) error {
	start := time.Now()
	hardPass(items, nil, o)
	untraced := since(start)

	t := newTracer()
	start = time.Now()
	results := hardPass(items, t, o)
	traced := since(start)

	var extract, conflicts, decisions []float64
	var copies, peak int
	var queries, incremental, rebuilds int64
	for i, r := range results {
		conflicts = append(conflicts, float64(r.conflicts))
		decisions = append(decisions, float64(r.decisions))
		copies += r.res.Stats.CopiesMade
		if r.res.Stats.PeakAIGNodes > peak {
			peak = r.res.Stats.PeakAIGNodes
		}
		queries += r.res.Stats.Oracle.Queries
		incremental += r.res.Stats.Oracle.Incremental
		rebuilds += r.res.Stats.Oracle.Rebuilds
		if r.res.Sat && r.res.Certificate != nil {
			extract = append(extract, r.extractMS)
			probeCert(t, i+1, r.formula, r.res.Certificate, o)
		}
	}
	tot := t.totals()
	passMetrics(o, tot, t)
	o.spanMean("problem.parse_ms_mean", tot, "problem.parse")
	o.spanMean("problem.hash_ms_mean", tot, "problem.hash")
	o.spanMean("cert.check_ms_mean", tot, "cert.check")
	o.spanMean("cert.encode_ms_mean", tot, "cert.encode")
	o.spanMean("cert.decode_ms_mean", tot, "cert.decode")
	o.set("cert.extract_ms_mean", mean(extract), extract)
	o.count("core.copies_made", float64(copies))
	o.count("core.peak_aig_nodes", float64(peak))
	o.count("oracle.queries", float64(queries))
	o.count("oracle.incremental_frac", frac(int(incremental), int(queries)))
	o.count("oracle.rebuilds", float64(rebuilds))
	o.count("sat.conflicts", sum(conflicts))
	o.count("sat.decisions", sum(decisions))
	o.count("trace.overhead_frac", (traced-untraced)/untraced)
	o.count("trace.items", float64(len(results)))

	// Accounting: ingest, the top-level HQS passes (their spans include the
	// nested QBF passes) and the certificate check against the item time.
	// What is left is certificate extraction and pipeline glue.
	accounted := durUS(tot, "problem.parse") + durUS(tot, "problem.hash") + durUS(tot, "cert.check")
	for _, p := range hqsPasses {
		accounted += durUS(tot, "pass.hqs."+p)
	}
	o.count("trace.accounted_frac", accounted/durUS(tot, "item"))
	return writeSpans(t, "hqs_hard")
}

// passMetrics reports the per-pass self times, run counts and the sweep
// counters carried by the pass spans.
func passMetrics(o *outcome, tot map[string]*layerTotal, t *tracer) {
	for stage, passes := range map[string][]string{"hqs": hqsPasses, "qbf": qbfPasses} {
		for _, p := range passes {
			name := "pass." + stage + "." + p
			var self float64
			runs := 0
			if lt := tot[name]; lt != nil {
				self, runs = lt.SelfUS/1e6, lt.Runs
			}
			o.count(name+".self_s", self)
			o.count(name+".runs", float64(runs))
		}
	}
	sat := t.counter("pass.hqs.sweep", "satcalls") + t.counter("pass.qbf.sweep", "satcalls")
	merged := t.counter("pass.hqs.sweep", "merged") + t.counter("pass.qbf.sweep", "merged")
	cand := t.counter("pass.hqs.sweep", "candidates") + t.counter("pass.qbf.sweep", "candidates")
	o.count("aig.sweep_sat_calls", float64(sat))
	o.count("aig.sweep_merged", float64(merged))
	o.count("aig.sweep_merge_frac", frac(int(merged), int(cand)))
}

// probeCert times the certificate wire round trip (Encode, then Decode)
// for one certificate and checks the decoded copy still proves the formula.
func probeCert(t *tracer, req int, p *problem.Problem, c *cert.Certificate, o *outcome) {
	var blob []byte
	var err error
	t.timed(req, 0, "cert.encode", func(int) { blob, err = cert.Encode(c) })
	if err != nil {
		o.fail("req %d: certificate encode: %v", req, err)
		return
	}
	var back *cert.Certificate
	t.timed(req, 0, "cert.decode", func(int) { back, err = cert.Decode(blob) })
	if err == nil {
		err = cert.Check(p.Formula, back)
	}
	if err != nil {
		o.fail("req %d: certificate after encode/decode: %v", req, err)
	}
}

// spanMean reports the mean duration, in ms, of the spans named span.
func (o *outcome) spanMean(name string, tot map[string]*layerTotal, span string) {
	lt := tot[span]
	if lt == nil || lt.Runs == 0 {
		o.count(name, 0)
		return
	}
	o.Metrics[name] = measure{Value: lt.DurUS / float64(lt.Runs) / 1e3, Samples: lt.Runs}
}

func durUS(tot map[string]*layerTotal, name string) float64 {
	if lt := tot[name]; lt != nil {
		return lt.DurUS
	}
	return 0
}

func writeSpans(t *tracer, workload string) error {
	path := fmt.Sprintf("%s/spans/%s.jsonl", outDir, workload)
	if err := t.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Println("spans written to", path)
	return nil
}
