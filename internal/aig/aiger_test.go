package aig

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cnf"
)

func TestAAGRoundTripSimple(t *testing.T) {
	g := New()
	x, y := g.Input(3), g.Input(7)
	out := g.Or(g.And(x, y), g.Xor(x, y)) // = x ∨ y
	var buf bytes.Buffer
	if err := g.WriteAAG(&buf, out); err != nil {
		t.Fatal(err)
	}
	g2, outs, err := ReadAAG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outputs = %v", outs)
	}
	// Variables preserved via symbol table.
	for bits := 0; bits < 4; bits++ {
		a := map[cnf.Var]bool{3: bits&1 != 0, 7: bits&2 != 0}
		want := g.Eval(out, func(v cnf.Var) bool { return a[v] })
		got := g2.Eval(outs[0], func(v cnf.Var) bool { return a[v] })
		if got != want {
			t.Fatalf("round trip differs at %02b", bits)
		}
	}
}

func TestAAGRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	vs := []cnf.Var{1, 2, 3, 4}
	for iter := 0; iter < 50; iter++ {
		g := New()
		r1 := randomAIG(g, rng, vs, 10)
		r2 := randomAIG(g, rng, vs, 6)
		var buf bytes.Buffer
		if err := g.WriteAAG(&buf, r1, r2); err != nil {
			t.Fatal(err)
		}
		g2, outs, err := ReadAAG(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 2 {
			t.Fatalf("outputs = %v", outs)
		}
		for bits := 0; bits < 16; bits++ {
			a := map[cnf.Var]bool{}
			for i, v := range vs {
				a[v] = bits&(1<<i) != 0
			}
			read := func(v cnf.Var) bool { return a[v] }
			if g.Eval(r1, read) != g2.Eval(outs[0], read) ||
				g.Eval(r2, read) != g2.Eval(outs[1], read) {
				t.Fatalf("iter %d: round trip differs at %04b", iter, bits)
			}
		}
	}
}

func TestAAGConstantOutputs(t *testing.T) {
	g := New()
	var buf bytes.Buffer
	if err := g.WriteAAG(&buf, True, False); err != nil {
		t.Fatal(err)
	}
	_, outs, err := ReadAAG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] != True || outs[1] != False {
		t.Fatalf("outs = %v", outs)
	}
}

func TestReadAAGKnownFile(t *testing.T) {
	// AND of two inputs, standard AIGER toy example.
	src := `aag 3 2 0 1 1
2
4
6
6 2 4
`
	g, outs, err := ReadAAG(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	and := outs[0]
	tests := []struct{ a, b, want bool }{
		{false, false, false}, {true, false, false}, {false, true, false}, {true, true, true},
	}
	for _, tc := range tests {
		got := g.Eval(and, func(v cnf.Var) bool {
			if v == 1 {
				return tc.a
			}
			return tc.b
		})
		if got != tc.want {
			t.Fatalf("AND(%v,%v) = %v", tc.a, tc.b, got)
		}
	}
}

func TestReadAAGErrors(t *testing.T) {
	cases := []string{
		"",
		"aig 1 1 0 0 0\n",
		"aag 1 1 0 0\n",
		"aag 1 1 1 0 0\n2\n",                  // latches unsupported
		"aag 1 1 0 0 0\n3\n",                  // odd input literal
		"aag 2 1 0 1 0\n2\n6\n",               // output exceeds maxvar
		"aag 2 1 0 1 1\n2\n4\n4 2",            // malformed AND line
		"aag 2 1 0 1 0\n2\n4\n",               // output uses undefined variable
		"aag 0 1 0 1 0\n2\n2\n",               // input beyond maxvar
		"aag 1 1 0 1 1\n2\n4\n4 2 2\n",        // and beyond maxvar
		"aig 1 1 0 1 0\n2\n",                  // binary flavor
		"aag 3 1 0 1 1\n2\n4\n4 6 2\n",        // and input never defined
		"aag 3 1 0 1 2\n2\n4\n4 6 2\n6 2 2\n", // and input defined later
	}
	for _, src := range cases {
		if _, _, err := ReadAAG(strings.NewReader(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// TestWriteAAGBytesPinned pins the exact bytes WriteAAG emits for a small
// graph. The output is the certificate wire and store encoding, so a change
// here is a format change.
func TestWriteAAGBytesPinned(t *testing.T) {
	g := New()
	x, y := g.Input(3), g.Input(7)
	var buf bytes.Buffer
	if err := g.WriteAAG(&buf, g.Xor(x, y), g.And(x, y.Not()), True); err != nil {
		t.Fatal(err)
	}
	const want = "aag 5 2 0 3 3\n2\n4\n11\n6\n1\n6 2 5\n8 3 4\n10 7 9\n" +
		"i0 v3\ni1 v7\nc\nwritten by repro/internal/aig\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteAAG bytes changed:\ngot  %q\nwant %q", got, want)
	}
}
