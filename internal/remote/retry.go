package remote

import (
	"math/rand"
	"time"
)

// RetryPolicy bounds how a client retries a daemon's transient answers
// (429/503). The backoff schedule is a pure function of (Seed, index,
// attempt), so the same policy always produces the same delays — retry
// behaviour is as reproducible as the simulation itself.
type RetryPolicy struct {
	// Max is the maximum number of attempts per request, including the
	// first; values below 2 mean no retries.
	Max int
	// Base is the backoff before the second attempt; it doubles with
	// every further attempt. Zero means retry immediately.
	Base time.Duration
	// Cap bounds a single delay; zero means uncapped.
	Cap time.Duration
	// Seed drives the jitter stream.
	Seed int64
}

// Backoff returns the delay before retrying stream index after its
// attempt-th failed attempt (attempt ≥ 1): exponential in the attempt
// with deterministic jitter in [d/2, d], the spread that keeps streams
// failing at the same moment from retrying in lockstep.
func (p RetryPolicy) Backoff(index, attempt int) time.Duration {
	if p.Base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 20 { // 2^20× base is already beyond any real Cap
		shift = 20
	}
	d := p.Base << uint(shift)
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	const mix = int64(-0x61c8864680b583eb) // golden-ratio multiplier, as a signed 64-bit constant
	rng := rand.New(rand.NewSource(p.Seed ^ int64(index)*mix ^ int64(attempt)<<32))
	half := int64(d / 2)
	return time.Duration(half + rng.Int63n(half+1))
}
