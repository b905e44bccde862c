// Package obs provides lightweight observability for long simulation
// runs: atomic counters and gauges the orchestration layer updates while
// engines churn through references, an expvar-style JSON snapshot, and a
// throttle for progress callbacks.
//
// The package is deliberately clock-free. Internal packages must stay
// deterministic (the nondeterm lint rule bans time.Now under internal/),
// so anything that needs wall-clock time — refs/sec, throttling
// intervals — takes the clock as an injected func or an elapsed duration
// from the caller; the cmd/ layer passes time.Now.
package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is a set of counters shared by every worker of a run. All
// methods are safe for concurrent use; the hot-path counters are plain
// atomics so instrumentation stays cheap enough to leave on.
type Metrics struct {
	refs      atomic.Uint64
	jobsDone  atomic.Uint64
	jobsTotal atomic.Uint64
	failures  atomic.Uint64
	panics    atomic.Uint64

	mu      sync.Mutex
	engines map[string]*EngineTally

	hmu   sync.Mutex
	hists map[string]*Histogram

	nmu      sync.Mutex
	counters map[string]uint64
	gauges   map[string]uint64
}

// EngineTally accumulates one scheme's work across all jobs of a run.
type EngineTally struct {
	// Refs is the number of references the scheme's engines processed.
	Refs uint64 `json:"refs"`
	// Transactions counts references that put an operation on the bus.
	Transactions uint64 `json:"transactions"`
	// BusOps is the total number of bus operations emitted.
	BusOps uint64 `json:"bus_ops"`
}

// add accumulates other into t.
func (t *EngineTally) add(other EngineTally) {
	t.Refs += other.Refs
	t.Transactions += other.Transactions
	t.BusOps += other.BusOps
}

// NewMetrics returns an empty metric set.
func NewMetrics() *Metrics {
	return &Metrics{engines: map[string]*EngineTally{}}
}

// AddRefs records n more simulated references.
func (m *Metrics) AddRefs(n uint64) { m.refs.Add(n) }

// Refs returns the references simulated so far.
func (m *Metrics) Refs() uint64 { return m.refs.Load() }

// AddJobs grows the total-jobs gauge by n.
func (m *Metrics) AddJobs(n int) { m.jobsTotal.Add(uint64(n)) }

// JobDone records one completed job.
func (m *Metrics) JobDone() { m.jobsDone.Add(1) }

// AddFailure records one failed job.
func (m *Metrics) AddFailure() { m.failures.Add(1) }

// AddPanic records one panic the runner recovered into an error.
func (m *Metrics) AddPanic() { m.panics.Add(1) }

// AddEngine accumulates one finished engine run into the per-scheme
// tallies.
func (m *Metrics) AddEngine(scheme string, t EngineTally) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.engines == nil {
		m.engines = map[string]*EngineTally{}
	}
	cur, ok := m.engines[scheme]
	if !ok {
		cur = &EngineTally{}
		m.engines[scheme] = cur
	}
	cur.add(t)
}

// AddCounter adds n to the named dynamic counter. Named counters are
// for events whose name set is configuration-dependent (per-tenant
// rejections, cluster peering outcomes) — the fixed-field atomics stay
// the hot path. Names must already be in the Prometheus alphabet; the
// exposition renders them as dirsim_<name>_total.
func (m *Metrics) AddCounter(name string, n uint64) {
	m.nmu.Lock()
	defer m.nmu.Unlock()
	if m.counters == nil {
		m.counters = map[string]uint64{}
	}
	m.counters[name] += n
}

// CounterValue reads one named counter (absent reads zero).
func (m *Metrics) CounterValue(name string) uint64 {
	m.nmu.Lock()
	defer m.nmu.Unlock()
	return m.counters[name]
}

// SetGauge sets the named gauge to v — a level, not an accumulation
// (cache bytes per tenant, queue occupancy). Rendered as dirsim_<name>.
func (m *Metrics) SetGauge(name string, v uint64) {
	m.nmu.Lock()
	defer m.nmu.Unlock()
	if m.gauges == nil {
		m.gauges = map[string]uint64{}
	}
	m.gauges[name] = v
}

// GaugeValue reads one named gauge (absent reads zero).
func (m *Metrics) GaugeValue(name string) uint64 {
	m.nmu.Lock()
	defer m.nmu.Unlock()
	return m.gauges[name]
}

// NamedValue is one named counter or gauge inside a Snapshot.
type NamedValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// namedSnapshot copies a name→value map into a name-sorted slice.
func namedSnapshot(src map[string]uint64) []NamedValue {
	if len(src) == 0 {
		return nil
	}
	out := make([]NamedValue, 0, len(src))
	for name, v := range src {
		out = append(out, NamedValue{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot is a point-in-time copy of the counters, ready to render or
// marshal. Engines are sorted by scheme name so output is deterministic.
type Snapshot struct {
	Refs       uint64              `json:"refs"`
	JobsDone   uint64              `json:"jobs_done"`
	JobsTotal  uint64              `json:"jobs_total"`
	Failures   uint64              `json:"failures"`
	Panics     uint64              `json:"panics"`
	Engines    []EngineSnapshot    `json:"engines,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
	Counters   []NamedValue        `json:"counters,omitempty"`
	Gauges     []NamedValue        `json:"gauges,omitempty"`
}

// EngineSnapshot is one scheme's tally inside a Snapshot.
type EngineSnapshot struct {
	Scheme string `json:"scheme"`
	EngineTally
}

// Merge accumulates a snapshot of another metric set into m. The daemon
// gives each job its own Metrics for per-job progress streams, then folds
// the finished job into the server-wide counters with Merge.
func (m *Metrics) Merge(s Snapshot) {
	m.refs.Add(s.Refs)
	m.jobsDone.Add(s.JobsDone)
	m.jobsTotal.Add(s.JobsTotal)
	m.failures.Add(s.Failures)
	m.panics.Add(s.Panics)
	for _, e := range s.Engines {
		m.AddEngine(e.Scheme, e.EngineTally)
	}
	for _, h := range s.Histograms {
		m.Histogram(h.Name).merge(h)
	}
	for _, c := range s.Counters {
		m.AddCounter(c.Name, c.Value)
	}
	// Gauges are levels owned by one process; merging adopts the
	// incoming level rather than summing.
	for _, g := range s.Gauges {
		m.SetGauge(g.Name, g.Value)
	}
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Refs:      m.refs.Load(),
		JobsDone:  m.jobsDone.Load(),
		JobsTotal: m.jobsTotal.Load(),
		Failures:  m.failures.Load(),
		Panics:    m.panics.Load(),
	}
	m.mu.Lock()
	if len(m.engines) > 0 {
		s.Engines = make([]EngineSnapshot, 0, len(m.engines))
	}
	for name, t := range m.engines {
		s.Engines = append(s.Engines, EngineSnapshot{Scheme: name, EngineTally: *t})
	}
	m.mu.Unlock()
	sort.Slice(s.Engines, func(i, j int) bool { return s.Engines[i].Scheme < s.Engines[j].Scheme })
	s.Histograms = m.histSnapshots()
	m.nmu.Lock()
	s.Counters = namedSnapshot(m.counters)
	s.Gauges = namedSnapshot(m.gauges)
	m.nmu.Unlock()
	return s
}

// RefsPerSec converts the snapshot's reference count into a rate over the
// given elapsed wall-clock time (measured by the caller).
func (s Snapshot) RefsPerSec(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.Refs) / elapsed.Seconds()
}

// String renders the snapshot as JSON, satisfying expvar.Var so a Metrics
// can be published on a debug endpoint with expvar.Publish.
func (m *Metrics) String() string {
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Throttle coalesces high-frequency progress events: Ready reports true
// at most once per interval, under the injected clock. It is safe for
// concurrent use; concurrent callers race for the single slot per
// interval and all others see false.
type Throttle struct {
	interval int64
	now      func() int64
	last     atomic.Int64
}

// NewThrottle returns a throttle with the given minimum interval between
// Ready=true results. now reports the current time in nanoseconds
// (callers outside internal/ typically pass time.Now().UnixNano via a
// closure); a non-positive interval makes every call ready.
func NewThrottle(interval time.Duration, now func() int64) *Throttle {
	t := &Throttle{interval: int64(interval), now: now}
	t.last.Store(-1)
	return t
}

// Ready reports whether enough time has passed since the last Ready=true
// call. The first call is always ready.
func (t *Throttle) Ready() bool {
	if t.interval <= 0 {
		return true
	}
	n := t.now()
	last := t.last.Load()
	if last >= 0 && n-last < t.interval {
		return false
	}
	return t.last.CompareAndSwap(last, n)
}
