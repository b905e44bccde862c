package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"

	"dirsim/internal/atomicio"
	"dirsim/internal/otrace"
)

// benchService is the span service name of the benchmark's own client.
const benchService = "perfbench"

// benchSpans bounds the benchmark's own span ring, far above what one
// traced run records so the ring never wraps.
const benchSpans = 1 << 17

// daemonSpanNames are the fabric spans dirsimd records with a tracer
// set; each gets a self-time median and a count.
var daemonSpanNames = []string{"job", "queue", "chunk", "cell-cache", "peer-fetch", "simulate", "cache-serve"}

// spanSet is a traced run's spans: the benchmark's own, recorded around
// every timed call, and every daemon's. A nil *spanSet records nothing,
// which is how untraced runs use it.
type spanSet struct {
	tracer *otrace.Tracer
	store  *otrace.Store
	mu     sync.Mutex
	stores []*otrace.Store
}

func newSpanSet() *spanSet {
	st := otrace.NewStore(benchSpans)
	return &spanSet{tracer: otrace.New(benchService, nowNanos, st, nil), store: st}
}

// start opens a root span of the given trace; inert when s is nil.
func (s *spanSet) start(trace, name string) otrace.Active {
	if s == nil {
		return otrace.Active{}
	}
	return s.tracer.Start(otrace.Root(trace), name)
}

// tracerOrNil is the benchmark's tracer, nil when untraced.
func (s *spanSet) tracerOrNil() *otrace.Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// addDaemon keeps a stopped daemon's span store for the merged file.
func (s *spanSet) addDaemon(d *daemon) {
	if s == nil || d.store == nil {
		return
	}
	s.mu.Lock()
	s.stores = append(s.stores, d.store)
	s.mu.Unlock()
}

// all returns every span, deduplicated and in canonical order. It fails
// when a ring wrapped, since lost spans would leave orphans behind.
func (s *spanSet) all() ([]otrace.Span, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var spans []otrace.Span
	for i, st := range append([]*otrace.Store{s.store}, s.stores...) {
		if st.Added() > uint64(len(st.Spans())) {
			return nil, fmt.Errorf("span store %d wrapped: %d spans added, %d kept", i, st.Added(), len(st.Spans()))
		}
		spans = append(spans, st.Spans()...)
	}
	return otrace.Dedup(spans), nil
}

// services counts the distinct services among spans.
func services(spans []otrace.Span) int {
	seen := map[string]bool{}
	for _, sp := range spans {
		seen[sp.Service] = true
	}
	return len(seen)
}

// writeAndCheck writes spans as NDJSON to path and validates the file
// with the tracecheck binary, requiring minServices distinct services.
func writeAndCheck(ctx context.Context, spans []otrace.Span, path, tracecheck string, minServices int) error {
	var buf bytes.Buffer
	if err := otrace.WriteNDJSON(&buf, spans); err != nil {
		return err
	}
	if err := atomicio.WriteFile(path, buf.Bytes()); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, tracecheck, "-format", "spans", "-min-services", fmt.Sprint(minServices), path)
	out, err := cmd.CombinedOutput()
	fmt.Printf("tracecheck: %s", out)
	if err != nil {
		return fmt.Errorf("tracecheck %s: %v", filepath.Base(path), err)
	}
	return nil
}

// selfTimes returns, per span name, each span's self time in
// milliseconds: its duration minus the part of it that its children
// (in any service) cover.
func selfTimes(spans []otrace.Span) map[string][]float64 {
	children := map[string][]otrace.Span{}
	for _, sp := range spans {
		if sp.Parent != "" {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := map[string][]float64{}
	for _, sp := range spans {
		self := sp.End - sp.Start - covered(sp.Start, sp.End, children[sp.ID()])
		out[sp.Name] = append(out[sp.Name], float64(self)/1e6)
	}
	return out
}

// covered is how much of [start, end) the union of the children's
// intervals covers.
func covered(start, end int64, kids []otrace.Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
