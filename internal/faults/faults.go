// Package faults injects deterministic, seedable faults into trace
// streams for robustness testing: bit-flip corruption, truncation and
// injected panics. Wrapping the same reader with the same Config always
// produces the same faulted stream, so a failure found under injection
// reproduces exactly.
package faults

import (
	"errors"
	"fmt"
	"math/rand"

	"dirsim/internal/trace"
)

// ErrTruncated is the error a truncating reader returns in place of a
// clean end-of-trace. It is deliberately not io.EOF, so the job fails and
// is reported rather than passing off a short trace as a whole one.
var ErrTruncated = errors.New("faults: trace truncated")

// Config selects which faults to inject. The zero value injects nothing
// (Wrap returns the reader unchanged). All randomness comes from Seed:
// the same Config over the same input yields the same faulted stream.
type Config struct {
	// Seed drives every probabilistic knob below.
	Seed int64
	// CorruptProb is the per-reference probability of flipping one
	// random bit of the reference — usually an address bit (silently
	// perturbing sharing patterns), occasionally a CPU bit (which the
	// simulator detects as a cache index out of range). Models bit rot
	// in stored traces.
	CorruptProb float64
	// TruncateAfter, when positive, ends the stream with ErrTruncated
	// after that many references — a partially written trace file.
	TruncateAfter int
	// PanicAfter, when positive, panics after that many references —
	// the blunt failure mode the runner's per-job recovery must contain.
	PanicAfter int
}

// enabled reports whether cfg injects any fault at all.
func (c Config) enabled() bool {
	return c.CorruptProb > 0 || c.TruncateAfter > 0 || c.PanicAfter > 0
}

// Wrap returns rd with cfg's faults injected, or rd itself when the
// config is inert.
func Wrap(rd trace.Reader, cfg Config) trace.Reader {
	if !cfg.enabled() {
		return rd
	}
	return &reader{rd: rd, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// reader applies Config to an underlying stream.
type reader struct {
	rd  trace.Reader
	cfg Config
	rng *rand.Rand
	n   int // references delivered so far
}

// Next implements trace.Reader.
func (r *reader) Next() (trace.Ref, error) {
	if r.cfg.PanicAfter > 0 && r.n >= r.cfg.PanicAfter {
		panic(fmt.Sprintf("faults: injected panic after %d refs", r.n))
	}
	if r.cfg.TruncateAfter > 0 && r.n >= r.cfg.TruncateAfter {
		return trace.Ref{}, fmt.Errorf("faults: after %d refs: %w", r.n, ErrTruncated)
	}
	ref, err := r.rd.Next()
	if err != nil {
		return trace.Ref{}, err
	}
	if r.cfg.CorruptProb > 0 && r.rng.Float64() < r.cfg.CorruptProb {
		ref = r.corrupt(ref)
	}
	r.n++
	return ref, nil
}

// corrupt flips one random bit: 7 times in 8 an address bit (a silent
// data fault), 1 in 8 a CPU bit (a structural fault the simulator's
// cache-range check catches).
func (r *reader) corrupt(ref trace.Ref) trace.Ref {
	if r.rng.Intn(8) == 0 {
		ref.CPU ^= 1 << uint(r.rng.Intn(8))
	} else {
		ref.Addr ^= 1 << uint(r.rng.Intn(48))
	}
	return ref
}
