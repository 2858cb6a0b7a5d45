package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/circuit"
	"repro/internal/pec"
	"repro/internal/problem"
)

// instance is one benchmark input: the request body a client would send,
// the PEC problem it encodes (for the brute-force reference verdict), and
// its canonical hash as the program computes it after ingestion.
type instance struct {
	Name   string
	Format problem.Format
	Body   []byte
	// PEC is the partial-equivalence problem behind a DQDIMACS/QDIMACS body;
	// nil for BENCH miters, whose free signals become existentials over all
	// inputs and so ask a different (QBF) question than the PEC problem.
	PEC *pec.Problem
	// Faulty records whether a fault was injected outside the boxes; a
	// fault-free instance is realizable by construction (the cut gates
	// themselves fill the boxes).
	Faulty bool
	Key    string
}

// hardStrata are the (family, width) cells of the hqs_hard pool: the regime
// where HQS spends seconds per instance. Runtime is not monotone in width,
// so every cell holds several seeds.
var hardStrata = []struct {
	family string
	widths []int
}{
	{"adder", []int{7, 8, 9, 10}},
	{"comp", []int{6, 7, 8, 9}},
	{"C432", []int{6, 7, 8, 9}},
}

// serveFamilies are the seven Table I families plus the BENCH circuit
// family; every eighth serve instance is a BENCH miter.
var serveFamilies = []string{"adder", "bitcell", "lookahead", "pec_xor", "z4", "comp", "C432", "circuit"}

// specImpl builds a family's specification, its complete implementation and
// the names of the gates that may become black boxes.
func specImpl(family string, width int) (spec, impl *circuit.Circuit, cuttable []string) {
	switch family {
	case "adder", "circuit":
		spec, impl = circuit.RippleCarryAdder(width), circuit.CarryLookaheadAdder(width)
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("p%d", i), fmt.Sprintf("g%d", i))
		}
	case "bitcell", "lookahead":
		spec, impl = circuit.ArbiterLookahead(width+1), circuit.ArbiterBitcell(width+1)
		if family == "lookahead" {
			spec, impl = impl, spec
		}
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("g%d", i+1))
		}
	case "pec_xor":
		spec = circuit.XorChain(width + 2)
		impl = spec.Clone()
		for i := 1; i < width+2; i++ {
			cuttable = append(cuttable, fmt.Sprintf("t%d", i))
		}
	case "z4":
		spec, impl = circuit.Z4Adder(), circuit.CarryLookaheadAdder(2)
		cuttable = []string{"p0", "p1", "g0", "g1"}
	case "comp":
		spec = circuit.Comparator(width)
		impl = spec.Clone()
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("eq%d", i), fmt.Sprintf("gtb%d", i))
		}
	case "C432":
		spec = circuit.PriorityController(width)
		impl = spec.Clone()
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("act%d", i))
		}
	default:
		panic("hqsbench: unknown family " + family)
	}
	return spec, impl, cuttable
}

// makePEC cuts nBoxes single-gate black boxes at random cuttable positions
// of the (optionally faulted) implementation. The boxes never cover the
// faulted gate, so they cannot simply absorb the fault (a faulty instance
// is usually, not always, unrealizable).
func makePEC(family string, width, nBoxes int, faulty bool, rng *rand.Rand) (*pec.Problem, error) {
	spec, impl, cuttable := specImpl(family, width)
	faultName := ""
	if faulty {
		var id int
		impl, id = impl.RandomFault(rng)
		faultName = impl.Name(id)
	}
	var groups [][]int
	for _, pi := range rng.Perm(len(cuttable)) {
		if len(groups) == nBoxes {
			break
		}
		if cuttable[pi] == faultName {
			continue
		}
		id := impl.Signal(cuttable[pi])
		if id < 0 {
			continue
		}
		switch impl.Gates[id].Type {
		case circuit.InputGate, circuit.FreeGate:
			continue
		}
		groups = append(groups, []int{id})
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("no cuttable gate in %s width %d", family, width)
	}
	cut, boxes, err := pec.CutBoxes(impl, groups)
	if err != nil {
		return nil, err
	}
	return &pec.Problem{Spec: spec, Impl: cut, Boxes: boxes}, nil
}

// encode serializes a PEC problem in the requested format (QDIMACS falls
// back to DQDIMACS when the prefix is not linear) and records the canonical
// hash the program will compute after ingesting the body.
func encode(name string, p *pec.Problem, faulty bool, want problem.Format) (instance, error) {
	inst := instance{Name: name, PEC: p, Faulty: faulty}
	var buf bytes.Buffer
	if want == problem.FormatBENCH {
		miter, err := circuit.Miter(p.Spec, p.Impl)
		if err != nil {
			return inst, err
		}
		if err := miter.WriteBench(&buf); err != nil {
			return inst, err
		}
		inst.PEC = nil
		inst.Format = problem.FormatBENCH
	} else {
		f, err := p.ToDQBF()
		if err != nil {
			return inst, err
		}
		inst.Format = problem.FormatDQDIMACS
		if want == problem.FormatQDIMACS && f.WriteQDIMACS(&buf) == nil {
			inst.Format = problem.FormatQDIMACS
		} else {
			buf.Reset()
			if err := f.WriteDQDIMACS(&buf); err != nil {
				return inst, err
			}
		}
	}
	inst.Body = buf.Bytes()
	parsed, err := problem.ParseBytes(inst.Body, inst.Format)
	if err != nil {
		return inst, fmt.Errorf("%s: re-parsing own body: %w", name, err)
	}
	inst.Key = parsed.CanonicalHash()
	return inst, nil
}

// hardSeedsPerCell is the number of seeds drawn per (family, width) cell of
// the hqs_hard pool.
const hardSeedsPerCell = 5

// hardPool builds the fixed hqs_hard pool: every stratum width with
// hardSeedsPerCell seeds, two black boxes, alternating realizable and
// faulty. The pool is fixed so its reference verdicts can be committed; a
// run's --seed renumbers and reorders it (see setupHard).
func hardPool() ([]instance, error) {
	var out []instance
	for _, st := range hardStrata {
		for _, w := range st.widths {
			for s := 0; s < hardSeedsPerCell; s++ {
				rng := rand.New(rand.NewSource(int64(1_000_003*len(st.family) + 7919*w + s)))
				faulty := s%2 == 1
				p, err := makePEC(st.family, w, 2, faulty, rng)
				if err != nil {
					return nil, err
				}
				inst, err := encode(fmt.Sprintf("%s_w%d_s%d", st.family, w, s), p, faulty, problem.FormatDQDIMACS)
				if err != nil {
					return nil, err
				}
				out = append(out, inst)
			}
		}
	}
	return out, nil
}

// servePoolSize is the number of distinct instances in the serve pool.
const servePoolSize = 1600

// servePool builds the fixed pool of laptop-scale Table I instances the
// serve workloads draw from: families rotate, widths 2–5, one or two black
// boxes, about three quarters faulty. Bodies rotate between DQDIMACS and
// QDIMACS (where the prefix is linear); the circuit family is sent as a
// BENCH miter. Instances whose canonical hash repeats an earlier one are
// skipped, so every pool entry is distinct as the server sees it.
func servePool() ([]instance, error) {
	seen := make(map[string]bool, servePoolSize)
	out := make([]instance, 0, servePoolSize)
	for i := 0; len(out) < servePoolSize; i++ {
		if i > 20*servePoolSize {
			return nil, fmt.Errorf("serve pool: only %d distinct instances", len(out))
		}
		family := serveFamilies[i%len(serveFamilies)]
		rng := rand.New(rand.NewSource(int64(20150309 + i)))
		width := 2 + rng.Intn(4)
		if family == "z4" {
			width = 2
		}
		nBoxes, faulty := 1+rng.Intn(2), rng.Intn(4) != 0
		p, err := makePEC(family, width, nBoxes, faulty, rng)
		if err != nil {
			return nil, err
		}
		format := problem.FormatDQDIMACS
		switch {
		case family == "circuit":
			format = problem.FormatBENCH
		case i%2 == 1:
			format = problem.FormatQDIMACS
		}
		inst, err := encode(fmt.Sprintf("%s_w%d_%04d", family, width, i), p, faulty, format)
		if err != nil {
			return nil, err
		}
		if seen[inst.Key] {
			continue
		}
		seen[inst.Key] = true
		out = append(out, inst)
	}
	return out, nil
}

// stratumSize is the number of cost-adjacent pool instances per stratum in
// stratifiedOrder.
const stratumSize = 4

// stratifiedOrder is a serve run's request order over the pool. The pool,
// sorted by reference HQS solve time, is cut into strata of stratumSize
// cost-adjacent instances; the seed shuffles each stratum, and the order
// sweeps the strata stratumSize times, taking the next member of every
// stratum per sweep, in a stratum order fixed across seeds. Every seed thus
// sends different instances, yet any prefix of whole sweeps has the same
// cost profile, so a few heavy instances cannot make one seed's cold run
// slower than another's, and serve_warm's most popular ranks always come
// from the same strata.
func stratifiedOrder(cost []float64, seed int64) []int {
	byCost := make([]int, len(cost))
	for i := range byCost {
		byCost[i] = i
	}
	sort.SliceStable(byCost, func(a, b int) bool { return cost[byCost[a]] < cost[byCost[b]] })
	var strata [][]int
	for lo := 0; lo < len(byCost); lo += stratumSize {
		strata = append(strata, byCost[lo:min(lo+stratumSize, len(byCost))])
	}
	rng := rand.New(rand.NewSource(seed))
	for _, g := range strata {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	// A fixed, seed-independent stratum order decorrelates a request's
	// position (and so its warm popularity) from its cost.
	sweep := rand.New(rand.NewSource(1)).Perm(len(strata))
	order := make([]int, 0, len(cost))
	for k := 0; k < stratumSize; k++ {
		for _, s := range sweep {
			if k < len(strata[s]) {
				order = append(order, strata[s][k])
			}
		}
	}
	return order
}
