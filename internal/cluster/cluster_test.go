package cluster

import (
	"testing"
	"time"
)

// TestZeroRetryPolicyBackoff: a coordinator built with the zero retry policy
// takes the service defaults once, in New — two rounds, 5ms before the
// first failover round, doubling up to the 250ms ceiling.
func TestZeroRetryPolicyBackoff(t *testing.T) {
	c, err := New(Config{Workers: []string{"http://a"}})
	if err != nil {
		t.Fatal(err)
	}
	p := c.cfg.Retry
	if p.MaxAttempts != 2 {
		t.Fatalf("MaxAttempts = %d, want 2", p.MaxAttempts)
	}
	for round, want := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		if got := backoff(p, round); got != want {
			t.Fatalf("backoff(round %d) = %v, want %v", round, got, want)
		}
	}
	for _, round := range []int{6, 10, 70} {
		if got := backoff(p, round); got != 250*time.Millisecond {
			t.Fatalf("backoff(round %d) = %v, want the 250ms ceiling", round, got)
		}
	}
}
