package service

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/problem"
)

// solveOn submits paperExample1 with eng to a fresh one-worker scheduler
// with the given certification setting and waits for the outcome.
func solveOn(t *testing.T, certify bool, eng Engine) Outcome {
	t.Helper()
	s := NewScheduler(Config{Workers: 1, Certify: certify, Retry: RetryPolicy{BaseDelay: time.Millisecond}})
	defer drainNow(t, s)
	j, err := s.Submit(problem.FromDQBF(paperExample1()), eng, Limits{Timeout: 30 * time.Second}, "")
	if err != nil {
		t.Fatal(err)
	}
	return waitDone(t, j)
}

// TestCertifyHQSValidCertificate: on a scheduler with Certify set, an HQS
// SAT verdict only reaches the caller after the extracted Skolem certificate
// passes the independent checker, which runs once.
func TestCertifyHQSValidCertificate(t *testing.T) {
	// A no-op latency rule counts the checks without failing them.
	plan := withFaults(t, "service.certify:latency:latency=1ns", 1)
	out := solveOn(t, true, EngineHQS)
	if out.Verdict != VerdictSat || out.Cert == nil {
		t.Fatalf("verdict = %v, cert = %v; want SAT with a validated certificate (error: %s)", out.Verdict, out.Cert, out.Error)
	}
	if n := plan.Snapshot()[faults.CertVerify].Hits; n != 1 {
		t.Fatalf("%d certificate checks, want 1", n)
	}
}

// TestCertifyHQSRejectionIsError: on a scheduler with Certify set, a fault
// injected at the service.certify point must turn the HQS SAT into ERROR —
// and since every engine down the fallback chain is checked too, the job
// ends in ERROR, never a silent SAT.
func TestCertifyHQSRejectionIsError(t *testing.T) {
	withFaults(t, "service.certify:error", 1)
	out := solveOn(t, true, EngineHQS)
	if out.Verdict != VerdictError {
		t.Fatalf("verdict = %v, want ERROR on certificate rejection", out.Verdict)
	}
	if !strings.Contains(out.Error, "certificate") {
		t.Fatalf("error text = %q, want certificate rejection", out.Error)
	}
}

// TestCertifyOffSkipsCheck: on a scheduler without Certify the HQS path must
// not consult the certificate checker at all — an armed certify fault must
// not fire.
func TestCertifyOffSkipsCheck(t *testing.T) {
	plan := withFaults(t, "service.certify:error", 1)
	out := solveOn(t, false, EngineHQS)
	if out.Verdict != VerdictSat {
		t.Fatalf("verdict = %v, want SAT (uncertified HQS must not hit the certify point)", out.Verdict)
	}
	if n := plan.Snapshot()[faults.CertVerify].Hits; n != 0 {
		t.Fatalf("%d certificate checks, want 0", n)
	}
}
