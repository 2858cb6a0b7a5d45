package problem

import (
	"bytes"
	"testing"

	"repro/internal/aig"
)

// FuzzAIGERReader drives the AIGER reader (both flavors) with arbitrary
// bytes. The invariants: parsing never panics; any accepted input
// serializes to the normalized ascii form, which re-parses and re-serializes
// byte-identically (read/write fixpoint); and the DQBF encoding of an
// accepted circuit passes Validate whenever the encoding succeeds.
func FuzzAIGERReader(f *testing.F) {
	seeds := [][]byte{
		[]byte("aag 3 2 0 1 1\n2\n4\n6\n6 4 2\ni0 a_x\no0 out\n"),
		[]byte("aig 3 2 0 1 1\n6\n\x02\x02\ni0 a_x\no0 out\n"),
		[]byte("aag 0 0 0 0 0\n"),
		[]byte("aag 1 1 0 2 0\n2\n1\n0\n"),
		[]byte("aag 5 2 0 1 3\n2\n4\n10\n6 2 4\n8 3 5\n10 7 9\nc\nfree-form comment\n"),
		[]byte("agg 1 1 0 0 0\n2\n"),
		[]byte("aig 2 1 0 0 1\n\xff\xff\xff\xff\xff\xff\x01\x00"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		af, err := aig.Parse(data)
		if err != nil {
			return // rejected cleanly
		}
		var norm bytes.Buffer
		if err := af.WriteAAG(&norm); err != nil {
			t.Fatalf("WriteAAG on accepted input: %v", err)
		}
		af2, err := aig.Parse(norm.Bytes())
		if err != nil {
			t.Fatalf("normalized form rejected: %v\ninput: %q\nnormalized: %q", err, data, norm.Bytes())
		}
		var again bytes.Buffer
		if err := af2.WriteAAG(&again); err != nil {
			t.Fatalf("WriteAAG on normalized form: %v", err)
		}
		if !bytes.Equal(norm.Bytes(), again.Bytes()) {
			t.Fatalf("read/write fixpoint violated:\nfirst:  %q\nsecond: %q", norm.Bytes(), again.Bytes())
		}
		p, err := aigerToProblem(af)
		if err != nil {
			return // encoding may reject (e.g. pathological quantifier splits)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("encoded problem fails validation: %v\ninput: %q", err, data)
		}
		if p.CanonicalHash() == "" {
			t.Fatal("empty canonical hash")
		}
	})
}
