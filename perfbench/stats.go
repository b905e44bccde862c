package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples than this is one outlier,
// not a percentile.
const minBeyond = 10

// latencies collects request latencies in milliseconds. A failed request
// is recorded as failed rather than timed: it counts as beyond any limit.
type latencies struct {
	ms     []float64
	failed int
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d.Nanoseconds())/1e6) }

func (l *latencies) merge(o latencies) {
	l.ms = append(l.ms, o.ms...)
	l.failed += o.failed
}

// count is every request attempted, timed or failed.
func (l *latencies) count() int { return len(l.ms) + l.failed }

// median is the median of the timed samples (0 when there are none).
func (l *latencies) median() float64 { return median(l.ms) }

// tail returns the highest percentile with at least minBeyond samples
// beyond it, the value there, and whether the sample supports one at all.
// Failed requests sort above every timed one, so each failure pushes the
// reported tail one rank up.
func (l *latencies) tail() (pct, value float64, ok bool) {
	return tailOf(l.ms, l.failed)
}

// tailOf implements the tail rule over timed samples plus failed ones
// that rank beyond all of them. With n samples in all, the reported value
// is the (n-minBeyond)-th smallest, so exactly minBeyond samples are
// greater than it; the percentile printed beside it is the share of
// samples at or below it. It fails when that rank is a failed request
// (the tail is then unbounded) or n <= minBeyond.
func tailOf(timed []float64, failed int) (pct, value float64, ok bool) {
	n := len(timed) + failed
	rank := n - minBeyond // 1-based rank of the reported sample
	if rank < 1 || rank > len(timed) {
		return 0, 0, false
	}
	s := append([]float64(nil), timed...)
	sort.Float64s(s)
	return 100 * float64(rank) / float64(n), s[rank-1], true
}

// median returns the median of xs without reordering it (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianDur is median over durations, in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// tally counts what a workload attempted and what went wrong. Every
// failed, refused (429/503) or incorrect answer is one failure; the
// first few reasons are kept for the report. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

func newTally() *tally { return &tally{} }

// attempt counts one request or check.
func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records one failure with its reason.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// failErr is fail for a request that returned an error.
func (t *tally) failErr(what string, err error) { t.fail("%s: %v", what, err) }

// check counts one correctness check and records a failure when err is
// non-nil.
func (t *tally) check(what string, err error) {
	t.attempt()
	if err != nil {
		t.failErr(what, err)
	}
}

// merge adds a finished tally's counts and reasons to t.
func (t *tally) merge(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	t.reasons = append(t.reasons, o.reasons...)
}

// frac is failed ÷ attempted (0 when nothing was attempted).
func (t *tally) frac() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
