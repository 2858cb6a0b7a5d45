package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dqbf"
)

func smallGen() GenOptions {
	return GenOptions{Count: 4, Seed: 42, MaxWidth: 3}
}

func quickRun() RunOptions {
	opt := DefaultRunOptions()
	opt.Timeout = 1500 * time.Millisecond
	opt.IDQMaxInstantiations = 200_000
	return opt
}

func TestGenerateFamilies(t *testing.T) {
	for _, f := range Families {
		insts, err := Generate(f, smallGen())
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(insts) != 4 {
			t.Fatalf("%s: %d instances", f, len(insts))
		}
		for _, inst := range insts {
			if err := inst.Formula.Validate(); err != nil {
				t.Fatalf("%s %s: invalid formula: %v", f, inst.Name, err)
			}
			if inst.Universals == 0 || len(inst.Formula.Exist) == 0 {
				t.Fatalf("%s %s: degenerate prefix", f, inst.Name)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(FamilyAdder, smallGen())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(FamilyAdder, smallGen())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name ||
			len(a[i].Formula.Matrix.Clauses) != len(b[i].Formula.Matrix.Clauses) {
			t.Fatalf("instance %d differs between generations", i)
		}
	}
}

func TestSomeInstancesTrulyDQBF(t *testing.T) {
	// A benchmark set without non-linear prefixes would not exercise DQBF
	// at all; require at least one cyclic instance per multi-box family.
	insts, err := Generate(FamilyAdder, GenOptions{Count: 10, Seed: 7, MaxWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	cyclic := 0
	for _, inst := range insts {
		if dqbf.IsCyclic(inst.Formula) {
			cyclic++
		}
	}
	if cyclic == 0 {
		t.Fatal("no instance with a non-linear prefix generated")
	}
}

func TestCampaignShape(t *testing.T) {
	// A small campaign must reproduce the paper's qualitative result: HQS
	// solves at least as many instances as iDQ, the solvers never disagree,
	// and both verdict classes occur.
	insts, err := GenerateAll(smallGen())
	if err != nil {
		t.Fatal(err)
	}
	var all []Instance
	for _, f := range Families {
		all = append(all, insts[f]...)
	}
	c := Run(all, quickRun())
	if d := c.Disagreements(); len(d) != 0 {
		t.Fatalf("solver disagreements on %v", d)
	}
	rows := TableI(c)
	total := rows[len(rows)-1]
	if total.Family != "total" {
		t.Fatal("missing total row")
	}
	if total.HQS.Solved < total.IDQ.Solved {
		t.Fatalf("HQS solved %d < iDQ %d — paper shape violated",
			total.HQS.Solved, total.IDQ.Solved)
	}
	if total.HQS.Solved == 0 {
		t.Fatal("HQS solved nothing")
	}
	if total.HQS.SatCount == 0 || total.HQS.UnsatCnt == 0 {
		t.Fatalf("need both SAT and UNSAT instances, got %d/%d",
			total.HQS.SatCount, total.HQS.UnsatCnt)
	}
	// Table renders.
	s := FormatTableI(rows)
	if !strings.Contains(s, "adder") || !strings.Contains(s, "total") {
		t.Fatalf("table missing rows:\n%s", s)
	}
	// Fig. 4 data covers every instance.
	pts := Figure4(c)
	if len(pts) != len(all) {
		t.Fatalf("scatter has %d points for %d instances", len(pts), len(all))
	}
	csv := FormatFigure4CSV(pts)
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != len(all)+1 {
		t.Fatal("CSV row count wrong")
	}
	// Stats are populated.
	st := ComputeStats(c)
	if st.HQSSolvedUnder1s <= 0 {
		t.Fatalf("stats: under-1s fraction = %v", st.HQSSolvedUnder1s)
	}
}

func TestDisagreements(t *testing.T) {
	// Only a pair both solvers decided with different verdicts counts; a
	// verdict against a timeout is no disagreement.
	res := func(name string, s SolverName, o Outcome, sat bool) RunResult {
		return RunResult{Instance: name, Solver: s, Outcome: o, Sat: sat}
	}
	c := &Campaign{
		HQS: map[string]RunResult{
			"agree":  res("agree", SolverHQS, OutcomeSolved, true),
			"differ": res("differ", SolverHQS, OutcomeSolved, false),
			"idq-to": res("idq-to", SolverHQS, OutcomeSolved, true),
		},
		IDQ: map[string]RunResult{
			"agree":  res("agree", SolverIDQ, OutcomeSolved, true),
			"differ": res("differ", SolverIDQ, OutcomeSolved, true),
			"idq-to": res("idq-to", SolverIDQ, OutcomeTimeout, false),
		},
		Order: []Instance{{Name: "agree"}, {Name: "differ"}, {Name: "idq-to"}},
	}
	if d := c.Disagreements(); len(d) != 1 || d[0] != "differ" {
		t.Fatalf("Disagreements = %v, want [differ]", d)
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeSolved.String() != "solved" || OutcomeTimeout.String() != "TO" || OutcomeMemout.String() != "MO" {
		t.Fatal("Outcome.String broken")
	}
}

func TestScalingStudy(t *testing.T) {
	opt := quickRun()
	pts, err := ScalingStudy(FamilyPecXor, []int{2, 3}, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	for _, p := range pts {
		if p.Instances != 2 {
			t.Fatalf("instances = %d", p.Instances)
		}
		if p.HQSSolved < p.IDQSolved {
			t.Fatalf("width %d: HQS solved fewer than iDQ", p.Width)
		}
	}
	out := FormatScaling(FamilyPecXor, pts, opt.Timeout)
	if !strings.Contains(out, "width") {
		t.Fatal("missing header")
	}
}

func TestAblationRunner(t *testing.T) {
	insts, err := Generate(FamilyPecXor, GenOptions{Count: 3, Seed: 5, MaxWidth: 3})
	if err != nil {
		t.Fatal(err)
	}
	variants := AblationVariants()[:2] // default + greedy
	rows := RunAblation(insts, variants, time.Second, 1_000_000)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if r.Solved+r.Timeouts+r.Memouts != len(insts) {
			t.Fatalf("row %q does not account for all instances: %+v", r.Name, r)
		}
		if r.Solved == 0 {
			t.Fatalf("row %q solved nothing", r.Name)
		}
	}
	if !strings.Contains(FormatAblation(rows, len(insts)), "variant") {
		t.Fatal("missing ablation header")
	}
}

func TestAblationVariantsComplete(t *testing.T) {
	names := map[string]bool{}
	for _, v := range AblationVariants() {
		names[v.Name] = true
	}
	for _, want := range []string{
		"default(maxsat)", "elimset=greedy", "elimset=all", "order=reverse",
		"unitpure=off", "sweep=off", "preprocess=off",
	} {
		if !names[want] {
			t.Fatalf("missing variant %q", want)
		}
	}
}

func TestExtensionFamilies(t *testing.T) {
	for _, f := range ExtensionFamilies {
		insts, err := Generate(f, GenOptions{Count: 3, Seed: 8, MaxWidth: 3})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, inst := range insts {
			if err := inst.Formula.Validate(); err != nil {
				t.Fatalf("%s %s: %v", f, inst.Name, err)
			}
		}
		c := Run(insts, quickRun())
		if d := c.Disagreements(); len(d) != 0 {
			t.Fatalf("%s: disagreements %v", f, d)
		}
		row := TableI(c)[0]
		if row.HQS.Solved == 0 {
			t.Fatalf("%s: HQS solved nothing", f)
		}
	}
}
