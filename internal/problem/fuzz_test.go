package problem

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

// parseHints are the format hints FuzzParseBytes drives ParseBytes with:
// autodetection and every text reader.
var parseHints = []Format{"", FormatDQDIMACS, FormatQDIMACS, FormatBENCH, FormatPQE}

// FuzzParseBytes drives the text decoders (QDIMACS/DQDIMACS, BENCH and the
// PQE dialect, each by hint and by autodetection) with arbitrary bytes. The
// invariants: parsing never panics, and an accepted input parses again to
// the same canonical hash — the key the result cache and the store share.
// The seeds are the package's example inputs and the DQDIMACS reader's
// committed corpus.
func FuzzParseBytes(f *testing.F) {
	for _, s := range []string{dqdimacsExample, qdimacsExample, benchExample, pqeExample} {
		for h := range parseHints {
			f.Add([]byte(s), uint8(h))
		}
	}
	seeds, _ := filepath.Glob("../dqbf/testdata/fuzz/FuzzDQDIMACSReader/*") // constant pattern: no error
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// Corpus files hold one line: []byte("...").
		line := strings.TrimSpace(strings.SplitN(string(raw), "\n", 2)[1])
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add([]byte(data), uint8(0))
	}
	if data, err := os.ReadFile("../../examples/example1.dqdimacs"); err == nil {
		f.Add(data, uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, h uint8) {
		hint := parseHints[int(h)%len(parseHints)]
		p, err := ParseBytes(data, hint)
		if err != nil {
			return // rejected cleanly
		}
		again, err := ParseBytes(data, hint)
		if err != nil {
			t.Fatalf("accepted input rejected on the second parse: %v", err)
		}
		if k1, k2 := p.CanonicalHash(), again.CanonicalHash(); k1 != k2 || k1 == "" {
			t.Fatalf("hint %q: canonical hash %q then %q\ninput: %q", hint, k1, k2, data)
		}
	})
}
