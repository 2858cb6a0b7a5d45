package pipeline_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/aig"
	"repro/internal/faults"
	"repro/internal/pipeline"

	// Imported for their init-time pass registrations, so the test sees the
	// full pass inventory of both pipelines.
	_ "repro/internal/core"
	_ "repro/internal/qbf"
)

// expectedPasses is the pass inventory of the two pipelines; a new pass must
// be registered (and thereby fault-injectable) to show up in PassNames.
var expectedPasses = []string{
	"blockelim", "build", "dropsupport", "elimset", "finalsat",
	"preprocess", "qbf", "sweep", "thm1", "thm2", "unitpure",
}

func TestPassRegistryComplete(t *testing.T) {
	names := pipeline.PassNames()
	got := make(map[string]bool, len(names))
	for _, n := range names {
		got[n] = true
	}
	for _, want := range expectedPasses {
		if !got[want] {
			t.Errorf("pass %q not registered", want)
		}
	}
}

// TestEveryPassInjectable asserts, for every registered pass, that its
// "pipeline.<pass>" fault point is accepted by the spec parser and that an
// armed plan actually fires at it — i.e. the whole pipeline is chaos-testable
// per pass, with no silent gaps.
func TestEveryPassInjectable(t *testing.T) {
	defer faults.Deactivate()
	for _, name := range pipeline.PassNames() {
		spec := fmt.Sprintf("pipeline.%s:error", name)
		plan, err := faults.ParseSpec(spec, 1)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", spec, err)
			continue
		}
		faults.Activate(plan)
		if err := faults.Fire(pipeline.FaultPoint(name)); err == nil {
			t.Errorf("pass %s: armed fault point did not fire", name)
		}
		faults.Deactivate()
	}
}

// TestRunnerFaultMapping asserts the Runner's error contract at the fault
// seam: an injected hard error surfaces as a pass failure naming the pass,
// an injected spurious Unknown unwinds as ErrCancelled, and in both cases
// the pass body never runs.
func TestRunnerFaultMapping(t *testing.T) {
	defer faults.Deactivate()
	newRunner := func() (*pipeline.Runner, *int) {
		g := aig.New()
		st := &pipeline.State{G: g, Matrix: aig.True}
		ran := 0
		return pipeline.NewRunner(st, nil, "test"), &ran
	}
	pass := func(ran *int) pipeline.Pass {
		return pipeline.NewPass("unitpure", func(st *pipeline.State) (pipeline.Result, error) {
			*ran++
			return pipeline.Result{}, nil
		})
	}

	r, ran := newRunner()
	plan, err := faults.ParseSpec("pipeline.unitpure:error", 1)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	faults.Activate(plan)
	if _, err := r.Run(pass(ran)); err == nil || errors.Is(err, pipeline.ErrCancelled) {
		t.Fatalf("injected error: got %v, want hard pass failure", err)
	}
	if *ran != 0 {
		t.Fatal("pass body ran despite injected error")
	}

	r, ran = newRunner()
	plan, err = faults.ParseSpec("pipeline.unitpure:unknown", 1)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	faults.Activate(plan)
	if _, err := r.Run(pass(ran)); !errors.Is(err, pipeline.ErrCancelled) {
		t.Fatalf("injected unknown: got %v, want ErrCancelled", err)
	}
	if *ran != 0 {
		t.Fatal("pass body ran despite injected unknown")
	}
}

// TestRunnerChargesInjectedLatency asserts that latency injected at a pass's
// fault point is charged to that pass's wall time, not only to the solve.
func TestRunnerChargesInjectedLatency(t *testing.T) {
	defer faults.Deactivate()
	const lat = 20 * time.Millisecond
	plan, err := faults.ParseSpec(fmt.Sprintf("pipeline.sweep:latency:latency=%s", lat), 1)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	faults.Activate(plan)
	r := pipeline.NewRunner(&pipeline.State{G: aig.New(), Matrix: aig.True}, nil, "test")
	pass := pipeline.NewPass("sweep", func(st *pipeline.State) (pipeline.Result, error) {
		return pipeline.Result{}, nil
	})
	if _, err := r.Run(pass); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r.Total("sweep").Wall; got < lat {
		t.Fatalf("sweep wall = %v, want >= injected latency %v", got, lat)
	}
}
