package remote

import (
	"testing"
	"time"
)

// Backoff is a pure function of (Seed, index, attempt): exponential with
// jitter in [d/2, d], capped, and zero without a base.
func TestBackoffSchedule(t *testing.T) {
	p := RetryPolicy{Max: 5, Base: 10 * time.Millisecond, Cap: 40 * time.Millisecond, Seed: 3}
	for attempt := 1; attempt <= 4; attempt++ {
		full := p.Base << uint(attempt-1)
		if full > p.Cap {
			full = p.Cap
		}
		d := p.Backoff(9, attempt)
		if d < full/2 || d > full {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d, full/2, full)
		}
		if d != p.Backoff(9, attempt) {
			t.Errorf("attempt %d: backoff is not deterministic", attempt)
		}
	}
	if d := (RetryPolicy{Max: 2}).Backoff(0, 1); d != 0 {
		t.Errorf("zero-base backoff = %v, want 0", d)
	}
	if a, b := p.Backoff(1, 1), p.Backoff(2, 1); a == b {
		t.Errorf("distinct jobs share jitter %v; schedules would retry in lockstep", a)
	}
}
