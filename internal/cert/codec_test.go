package cert_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/dqbf"
	"repro/internal/idq"
)

// TestCodecRoundTrip encodes and decodes certificates of real SAT instances
// and asserts the decoded certificate still passes the independent checker —
// the property the cluster coordinator relies on when it ships per-cube
// certificates over the wire.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for i := 0; i < 40 && checked < 10; i++ {
		f := dqbf.RandomFormula(rng, 2, 4, 4)
		res := idq.New(idq.Options{}).Solve(f)
		if res.Status != idq.Solved || !res.Sat || res.Certificate == nil {
			continue
		}
		ac := res.Certificate
		if err := cert.Check(f, ac); err != nil {
			t.Fatalf("instance %d: original certificate rejected: %v", i, err)
		}
		blob, err := cert.Encode(ac)
		if err != nil {
			t.Fatalf("instance %d: Encode: %v", i, err)
		}
		dec, err := cert.Decode(blob)
		if err != nil {
			t.Fatalf("instance %d: Decode: %v", i, err)
		}
		if len(dec.Funcs) != len(ac.Funcs) {
			t.Fatalf("instance %d: decoded %d functions, want %d", i, len(dec.Funcs), len(ac.Funcs))
		}
		if err := cert.Check(f, dec); err != nil {
			t.Fatalf("instance %d: decoded certificate rejected: %v", i, err)
		}
		// Determinism: equal certificates encode to equal bytes.
		blob2, err := cert.Encode(dec)
		if err != nil {
			t.Fatalf("instance %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("instance %d: re-encoding changed the bytes:\n%q\n%q", i, blob, blob2)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no satisfiable instance produced a certificate to round-trip")
	}
}

// garbageBlobs are certificate blobs Decode must reject: bad header, bad
// version, truncated blobs, cone/variable count mismatches, and AIGER bodies
// whose literals exceed the declared maximum variable.
var garbageBlobs = []string{
	"",
	"skolem\n",
	"skolem 1\n",
	"skolem 2 0\naag 0 0 0 0 0\n",
	"skolem 1 2 3\naag 0 0 0 0 0\n",
	"skolem 1 1 3 4\naag 0 0 0 1 0\n0\n",
	"skolem 1 -1\n",
	"skolem 1 1 0\naag 0 0 0 1 0\n0\n",
	"skolem 1 0 not-an-aag\n",
	"skolem 1 1 3\naag 0 1 0 1 0\n2\n2\n",
	"skolem 1 1 3\naag 1 1 0 1 1\n2\n4\n4 2 2\n",
	"skolem 1 1 4294967299\naag 0 0 0 1 0\n0\n",
}

// TestDecodeRejectsGarbage pins the failure modes: every garbage blob must
// error, not panic.
func TestDecodeRejectsGarbage(t *testing.T) {
	for _, bad := range garbageBlobs {
		if _, err := cert.Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%q) accepted garbage", bad)
		}
	}
}

// FuzzCertDecode drives Decode — the reader of certificates arriving from
// cluster workers and the store — with arbitrary bytes. The invariants:
// decoding never panics, and an accepted blob re-encodes to a normal form
// that survives Decode→Encode byte-identically.
func FuzzCertDecode(f *testing.F) {
	for _, s := range garbageBlobs {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := cert.Decode(data)
		if err != nil {
			return
		}
		b1, err := cert.Encode(c)
		if err != nil {
			t.Fatalf("Encode of an accepted blob: %v", err)
		}
		c2, err := cert.Decode(b1)
		if err != nil {
			t.Fatalf("normal form rejected: %v\ninput: %q\nnormal: %q", err, data, b1)
		}
		b2, err := cert.Encode(c2)
		if err != nil {
			t.Fatalf("Encode of the normal form: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("Encode→Decode→Encode not a fixpoint:\nfirst:  %q\nsecond: %q", b1, b2)
		}
	})
}
