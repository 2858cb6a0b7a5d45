// Command hqsbench is the repository benchmark. One invocation runs one
// seeded workload and prints every metric by name, with its unit and sample
// count, then one JSON result line:
//
//	hqsbench --workload hqs_hard --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	hqs_hard    serial in-process ingest + core.Solve (certifying, one sweep
//	            worker) + cert.Check over the hard PEC pool
//	serve_cold  two closed-loop clients POSTing distinct instances to an
//	            in-process hqsd (store on, every request a cache/store miss)
//	serve_warm  the same server after a pre-solve of a working set larger
//	            than the LRU, then Zipf-distributed repeats of it
//
// --trace 0 reports the end-to-end metrics; --trace 1 reruns the workload
// half untraced and half traced and reports the per-layer metrics, the
// tracing overhead, and writes the spans under .bench_build/hqsbench/.
// Every verdict is compared with a committed reference verdict that does not
// come from HQS; a mismatch or a rejected certificate fails the run.
//
// Other modes: -regen rewrites the reference verdict tables,
// -check-attribution plants latency in aig.sweep and checks the per-layer
// report charges it to the sweep passes, and -compare OLD NEW compares two
// saved results (advisory when they come from different hosts).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef declares one reported metric. The end-to-end bounds are the
// share by which a metric's median may worsen before a change counts as a
// regression; BENCHMARK.json carries the same table.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"solve_s_total", "s", "lower", 0.25},
	{"solve_ms_geomean", "ms", "lower", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"latency_ms_p90", "ms", "lower", 0.25},
	{"requests_per_s", "1/s", "higher", 0.25},
	{"ok_frac", "ratio", "higher", 0.02},
}

var hqsPasses = []string{"preprocess", "build", "elimset", "unitpure", "thm2", "thm1", "sweep", "dropsupport", "qbf"}
var qbfPasses = []string{"unitpure", "dropsupport", "sweep", "blockelim", "finalsat"}
var arms = []string{"hqs", "idq", "defex", "expand"}

// perLayer lists the per-layer metrics every traced run reports. A layer a
// workload does not exercise reports 0.
func perLayer() []metricDef {
	d := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	h := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	out := []metricDef{
		d("problem.parse_ms_mean", "ms"),
		d("problem.hash_ms_mean", "ms"),
		d("httpapi.overhead_ms_p50", "ms"),
		d("service.queue_wait_ms_p90", "ms"),
		d("service.engine_ms_p50", "ms"),
		h("service.cache_hit_frac", "ratio"),
		h("service.store_hit_frac", "ratio"),
	}
	for _, a := range arms {
		out = append(out, h("service.arm_win_frac."+a, "ratio"))
	}
	out = append(out,
		d("store.get_ms_mean", "ms"),
		d("store.put_ms_mean", "ms"),
		d("store.entry_bytes_mean", "bytes"),
		d("cert.extract_ms_mean", "ms"),
		d("cert.check_ms_mean", "ms"),
		d("cert.encode_ms_mean", "ms"),
		d("cert.decode_ms_mean", "ms"),
	)
	for _, p := range hqsPasses {
		out = append(out, d("pass.hqs."+p+".self_s", "s"), d("pass.hqs."+p+".runs", "count"))
	}
	for _, p := range qbfPasses {
		out = append(out, d("pass.qbf."+p+".self_s", "s"), d("pass.qbf."+p+".runs", "count"))
	}
	out = append(out,
		d("core.copies_made", "count"),
		d("core.peak_aig_nodes", "count"),
		d("aig.sweep_sat_calls", "count"),
		h("aig.sweep_merged", "count"),
		h("aig.sweep_merge_frac", "ratio"),
		d("oracle.queries", "count"),
		h("oracle.incremental_frac", "ratio"),
		d("oracle.rebuilds", "count"),
		d("sat.conflicts", "count"),
		d("sat.decisions", "count"),
		d("trace.overhead_frac", "ratio"),
		h("trace.accounted_frac", "ratio"),
		d("trace.items", "count"),
	)
	return out
}

// measure is one reported value with its sample count and the spread of
// the samples it summarizes (interquartile range over median; 0 for a
// single sample or a count).
type measure struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Spread  float64 `json:"spread"`
}

// outcome is what a workload run produces.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	Flagged   int // items whose reference verdict no independent engine confirmed
	// Mismatches counts wrong verdicts, rejected certificates and other
	// correctness failures; Problems describes the first few.
	Mismatches int
	Metrics    map[string]measure
	Problems   []string
}

func newOutcome() *outcome { return &outcome{Correct: true, Metrics: make(map[string]measure)} }

func (o *outcome) set(name string, value float64, samples []float64) {
	o.Metrics[name] = measure{Value: value, Samples: len(samples), Spread: spread(samples)}
}

func (o *outcome) count(name string, value float64) {
	o.Metrics[name] = measure{Value: value, Samples: 1}
}

func (o *outcome) fail(format string, args ...any) {
	o.Correct = false
	o.Mismatches++
	if len(o.Problems) < 20 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// config is one run's parameters.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
}

// report is the full record of one run, saved for -compare.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Host      host               `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Flagged   int                `json:"flagged"`
	Metrics   map[string]measure `json:"metrics"`
}

// outDir holds everything a run writes, inside the checkout and ignored by
// git.
const outDir = ".bench_build/hqsbench"

func main() {
	var cfg config
	var traceFlag int
	var regen string
	var checkAttr, compare bool
	flag.StringVar(&cfg.Workload, "workload", "", "hqs_hard | serve_cold | serve_warm")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 15, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced per-layer run")
	flag.StringVar(&regen, "regen", "", "recompute a committed reference verdict table: hard | serve")
	flag.BoolVar(&checkAttr, "check-attribution", false, "plant aig.sweep latency and check the per-layer report attributes it")
	flag.BoolVar(&compare, "compare", false, "compare two saved results: -compare OLD.json NEW.json")
	flag.Parse()
	cfg.Trace = traceFlag == 1

	var err error
	switch {
	case regen != "":
		err = regenTable(regen)
	case checkAttr:
		err = checkAttribution(os.Stdout, 24)
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
		} else {
			err = compareResults(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	default:
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqsbench:", err)
		os.Exit(1)
	}
}

func regenTable(which string) error {
	build, path := hardPool, "hqsbench/testdata/expected_hard.tsv"
	switch which {
	case "hard":
	case "serve":
		build, path = servePool, "hqsbench/testdata/expected_serve.tsv"
	default:
		return fmt.Errorf("-regen %q: want hard or serve", which)
	}
	pool, err := build()
	if err != nil {
		return err
	}
	return regenerate(path, pool)
}

func run(cfg config) error {
	var out *outcome
	var err error
	switch cfg.Workload {
	case "hqs_hard":
		out, err = runHard(cfg)
	case "serve_cold":
		out, err = runServe(cfg, false)
	case "serve_warm":
		out, err = runServe(cfg, true)
	default:
		return fmt.Errorf("unknown workload %q (want hqs_hard, serve_cold or serve_warm)", cfg.Workload)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer()
	}
	rep := report{
		Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, Host: fingerprint(),
		Correct: out.Correct, Attempted: out.Attempted, Failed: out.Failed, Flagged: out.Flagged,
		Metrics: make(map[string]measure, len(defs)),
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := make(map[string]jsonMetric, len(defs))
	fmt.Printf("host: nproc=%d gomaxprocs=%d %s %q\n", rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.CPUModel)
	fmt.Printf("%s seed=%d trace=%v: attempted=%d failed=%d flagged(unconfirmed reference)=%d correct=%v\n",
		cfg.Workload, cfg.Seed, cfg.Trace, out.Attempted, out.Failed, out.Flagged, out.Correct)
	for _, p := range out.Problems {
		fmt.Println("  MISMATCH:", p)
	}
	for _, d := range defs {
		// A layer the workload does not exercise has no samples (or a NaN
		// statistic over none) and reports 0.
		m, ok := out.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m = measure{}
		}
		m.Unit = d.Unit
		rep.Metrics[d.Name] = m
		final[d.Name] = jsonMetric{Value: m.Value, Unit: d.Unit}
		fmt.Printf("  %-34s %14.6g %-6s n=%-6d spread=%.4f\n", d.Name, m.Value, d.Unit, m.Samples, m.Spread)
	}
	if err := saveReport(rep); err != nil {
		fmt.Fprintln(os.Stderr, "hqsbench: saving report:", err)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, final})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func saveReport(rep report) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s_seed%d_trace%d.json", rep.Workload, rep.Seed, map[bool]int{false: 0, true: 1}[rep.Trace])
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// compareResults prints NEW/OLD per metric for two saved reports. A metric
// that worsened beyond its end-to-end bound is marked; the whole comparison
// is advisory when the two host fingerprints differ.
func compareResults(w *os.File, oldPath, newPath string) error {
	load := func(path string) (report, error) {
		var r report
		data, err := os.ReadFile(path)
		if err != nil {
			return r, err
		}
		return r, json.Unmarshal(data, &r)
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("results are from different workloads or trace modes")
	}
	advisory := a.Host != b.Host
	bounds := make(map[string]metricDef)
	for _, d := range endToEnd {
		bounds[d.Name] = d
	}
	names := make([]string, 0, len(b.Metrics))
	for n := range b.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	worse := 0
	for _, n := range names {
		old, ok := a.Metrics[n]
		if !ok || old.Value == 0 {
			continue
		}
		ratio := b.Metrics[n].Value / old.Value
		mark := ""
		if d, ok := bounds[n]; ok {
			if (d.Better == "lower" && ratio > 1+d.Bound) || (d.Better == "higher" && ratio < 1-d.Bound) {
				mark = "  WORSE beyond bound"
				worse++
			}
		}
		fmt.Fprintf(w, "%-34s %12.6g -> %-12.6g x%.3f%s\n", n, old.Value, b.Metrics[n].Value, ratio, mark)
	}
	switch {
	case advisory:
		fmt.Fprintf(w, "ADVISORY: different hosts (%+v vs %+v); ratios are not a verdict\n", a.Host, b.Host)
	case worse > 0:
		fmt.Fprintf(w, "%d metric(s) worse beyond bound (single runs; compare medians of repeated runs before concluding)\n", worse)
	default:
		fmt.Fprintln(w, "no metric worse beyond its bound")
	}
	return nil
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
