package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/faults"
)

// plantedLatency is the sleep the attribution check adds to every
// aig.sweep call.
const plantedLatency = 100 * time.Millisecond

// checkAttribution is the benchmark's self-check of its per-layer report.
// It runs the n quickest hqs_hard items traced twice, once as they are and
// once with an existing faults latency rule on aig.sweep, which fires inside
// the sweep passes' timed span. The report must charge the added time to
// pass.*.sweep.self_s: the sweep passes must gain 90–110% of the planted
// time, and every other pass together move by at most 10% of it. Quick
// items keep the run-to-run noise of the sweep passes' own time small next
// to the planted time.
func checkAttribution(w io.Writer, n int) error {
	items, err := setupHard(1)
	if err != nil {
		return err
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].exp.HQSMS < items[j].exp.HQSMS })
	if n < len(items) {
		items = items[:n]
	}
	pass := func() (map[string]*layerTotal, error) {
		t, o := newTracer(), newOutcome()
		hardPass(items, t, o)
		if !o.Correct || o.Failed > 0 {
			return nil, fmt.Errorf("attribution check: solves failed: %v", o.Problems)
		}
		return t.totals(), nil
	}
	base, err := pass()
	if err != nil {
		return err
	}
	plan := faults.NewPlan(1, faults.Rule{Point: faults.AIGSweep, Action: faults.ActLatency, Latency: plantedLatency})
	faults.Activate(plan)
	planted, err := pass()
	faults.Deactivate()
	if err != nil {
		return err
	}
	// A sleep overshoots its nominal length by the host's timer slack, so
	// the planted time per fire is a measured sleep, not the rule's value.
	var sleeps []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		time.Sleep(plantedLatency)
		sleeps = append(sleeps, since(start))
	}
	added := float64(plan.Fires(faults.AIGSweep)) * median(sleeps)
	if added == 0 {
		return fmt.Errorf("attribution check: aig.sweep never fired")
	}

	self := func(tot map[string]*layerTotal, name string) float64 {
		if lt := tot[name]; lt != nil {
			return lt.SelfUS / 1e6
		}
		return 0
	}
	var names []string
	for name := range planted {
		if len(name) > 5 && name[:5] == "pass." {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var sweep, other float64
	fmt.Fprintf(w, "planted %v at aig.sweep, %d fires, %.3fs added\n", plantedLatency, plan.Fires(faults.AIGSweep), added)
	fmt.Fprintf(w, "%-26s %10s %10s %10s\n", "span", "base s", "planted s", "delta s")
	for _, name := range names {
		d := self(planted, name) - self(base, name)
		fmt.Fprintf(w, "%-26s %10.4f %10.4f %+10.4f\n", name, self(base, name), self(planted, name), d)
		if name == "pass.hqs.sweep" || name == "pass.qbf.sweep" {
			sweep += d
		} else {
			other += math.Abs(d)
		}
	}
	fmt.Fprintf(w, "sweep self time gained %.3fs of %.3fs planted (%.1f%%); other passes moved %.3fs (%.1f%%)\n",
		sweep, added, 100*sweep/added, other, 100*other/added)
	if sweep < 0.9*added || sweep > 1.1*added || other > 0.1*added {
		return fmt.Errorf("attribution check FAILED: planted latency not charged to pass.*.sweep.self_s")
	}
	fmt.Fprintln(w, "attribution check passed")
	return nil
}
