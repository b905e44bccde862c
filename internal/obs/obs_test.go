package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricsCountersAndSnapshot(t *testing.T) {
	m := NewMetrics()
	m.AddJobs(3)
	m.AddRefs(1000)
	m.AddRefs(500)
	m.JobDone()
	m.AddFailure()
	m.AddPanic()
	m.AddEngine("Dir0B", EngineTally{Refs: 1000, Transactions: 40, BusOps: 55})
	m.AddEngine("Dragon", EngineTally{Refs: 1000, Transactions: 30, BusOps: 35})
	m.AddEngine("Dir0B", EngineTally{Refs: 500, Transactions: 20, BusOps: 25})

	s := m.Snapshot()
	if s.Refs != 1500 || s.JobsDone != 1 || s.JobsTotal != 3 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Failures != 1 || s.Panics != 1 {
		t.Fatalf("resilience counters = %+v", s)
	}
	if len(s.Engines) != 2 {
		t.Fatalf("engines = %+v", s.Engines)
	}
	// Sorted by scheme name.
	if s.Engines[0].Scheme != "Dir0B" || s.Engines[1].Scheme != "Dragon" {
		t.Fatalf("engine order = %+v", s.Engines)
	}
	if s.Engines[0].Refs != 1500 || s.Engines[0].Transactions != 60 || s.Engines[0].BusOps != 80 {
		t.Fatalf("Dir0B tally = %+v", s.Engines[0])
	}
	if got := s.RefsPerSec(3 * time.Second); got != 500 {
		t.Errorf("RefsPerSec = %v", got)
	}
	if got := s.RefsPerSec(0); got != 0 {
		t.Errorf("RefsPerSec(0) = %v", got)
	}
}

func TestMetricsString(t *testing.T) {
	m := NewMetrics()
	m.AddRefs(7)
	m.AddEngine("WTI", EngineTally{Refs: 7})
	var s Snapshot
	if err := json.Unmarshal([]byte(m.String()), &s); err != nil {
		t.Fatalf("String() is not JSON: %v", err)
	}
	if s.Refs != 7 || len(s.Engines) != 1 || s.Engines[0].Scheme != "WTI" {
		t.Fatalf("round-tripped snapshot = %+v", s)
	}
	if !strings.Contains(m.String(), `"refs":7`) {
		t.Errorf("String() = %s", m.String())
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.AddRefs(1)
				m.AddEngine("X", EngineTally{Refs: 1})
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Refs != 8000 || s.Engines[0].Refs != 8000 {
		t.Fatalf("lost updates: %+v", s)
	}
}

// Snapshot is read live by the daemon's /metrics endpoint while workers
// update the counters: taking snapshots concurrently with every mutation
// path must be race-free (this test is what `go test -race` exercises).
func TestSnapshotRaceFree(t *testing.T) {
	m := NewMetrics()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.AddJobs(1)
				m.AddRefs(3)
				m.AddFailure()
				m.AddPanic()
				m.AddEngine("Dir0B", EngineTally{Refs: 3, Transactions: 1, BusOps: 2})
				m.JobDone()
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := m.Snapshot()
				if s.JobsDone > s.JobsTotal {
					t.Error("snapshot shows more jobs done than submitted")
					return
				}
				_ = m.String()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	s := m.Snapshot()
	if s.Refs != 6000 || s.JobsTotal != 2000 || s.Engines[0].BusOps != 4000 {
		t.Fatalf("lost updates: %+v", s)
	}
}

func TestMerge(t *testing.T) {
	job := NewMetrics()
	job.AddJobs(2)
	job.JobDone()
	job.AddRefs(100)
	job.AddFailure()
	job.AddEngine("Dragon", EngineTally{Refs: 100, Transactions: 5, BusOps: 7})

	global := NewMetrics()
	global.AddRefs(1)
	global.AddEngine("Dragon", EngineTally{Refs: 1})
	global.Merge(job.Snapshot())

	s := global.Snapshot()
	if s.Refs != 101 || s.JobsTotal != 2 || s.JobsDone != 1 || s.Failures != 1 {
		t.Fatalf("merged counters = %+v", s)
	}
	if len(s.Engines) != 1 || s.Engines[0].Refs != 101 || s.Engines[0].BusOps != 7 {
		t.Fatalf("merged engines = %+v", s.Engines)
	}
}

func TestThrottle(t *testing.T) {
	var now int64
	th := NewThrottle(100, func() int64 { return now })
	if !th.Ready() {
		t.Fatal("first call should be ready")
	}
	now = 50
	if th.Ready() {
		t.Fatal("ready again inside the interval")
	}
	now = 120
	if !th.Ready() {
		t.Fatal("not ready after the interval elapsed")
	}
	if th.Ready() {
		t.Fatal("ready twice at the same instant")
	}

	always := NewThrottle(0, func() int64 { return 0 })
	for i := 0; i < 3; i++ {
		if !always.Ready() {
			t.Fatal("zero interval must always be ready")
		}
	}
}
