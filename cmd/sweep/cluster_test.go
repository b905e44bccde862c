package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dirsim/internal/cluster"
	"dirsim/internal/runner"
	"dirsim/internal/server"
)

// startFleet brings up n clustered dirsimd services on httptest
// listeners sharing one static membership, and returns the path of the
// membership file a -cluster sweep reads.
func startFleet(t *testing.T, n int) string {
	t.Helper()
	// Unstarted servers pin the addresses before server.New needs them.
	tss := make([]*httptest.Server, n)
	mem := cluster.Membership{Key: "sweep-test"}
	for i := range tss {
		tss[i] = httptest.NewUnstartedServer(nil)
		mem.Peers = append(mem.Peers, cluster.Peer{Addr: "http://" + tss[i].Listener.Addr().String()})
	}
	src := cluster.StaticSource(mem)
	for _, ts := range tss {
		s, err := server.New(server.Config{
			Workers: 2, Executors: 2,
			ClusterSource:   src,
			ClusterSelfAddr: ts.Listener.Addr().String(),
			ClusterHTTP:     &http.Client{Timeout: 10 * time.Second},
			ClusterHealth:   cluster.NewHealth(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.Start(ctx)
		ts.Config.Handler = s.Handler()
		ts.Start()
		t.Cleanup(func() {
			ts.Close()
			if err := s.Drain(context.Background()); err != nil {
				t.Errorf("drain: %v", err)
			}
			cancel()
		})
	}
	data, err := json.Marshal(mem)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "peers.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A clustered sweep emits a CSV byte-identical to the local run of the
// same grid, whatever the fleet size, and its manifest records a clean
// slate: a fleet run succeeds whole or fails the command.
func TestSweepClusterMatchesLocal(t *testing.T) {
	o := options{
		workloads: "pero,pops", schemes: "dir0b,berkeley", cpus: "2,4",
		refs: 8_000, seeds: 2, parallel: 2,
	}
	var local strings.Builder
	if err := run(context.Background(), &local, o); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		c := o
		c.cluster = startFleet(t, n)
		c.manifest = filepath.Join(t.TempDir(), "failures.json")
		var clustered strings.Builder
		if err := run(context.Background(), &clustered, c); err != nil {
			t.Fatalf("%d-member fleet: %v", n, err)
		}
		if local.String() != clustered.String() {
			t.Errorf("%d-member fleet CSV differs from local:\n--- local\n%s--- cluster\n%s", n, local.String(), clustered.String())
		}
		data, err := os.ReadFile(c.manifest)
		if err != nil {
			t.Fatal(err)
		}
		var man runner.Manifest
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatalf("manifest is not valid JSON: %v", err)
		}
		if man.Command != "sweep" || man.Total != 8 || man.Succeeded != 8 || man.Failed != 0 || len(man.Failures) != 0 {
			t.Errorf("%d-member fleet manifest = %+v, want 8 of 8 succeeded", n, man)
		}
	}
}

// -remote ships the whole grid to the daemon as one sweep spec: one job
// submission, not one per cell. A single daemon runs a sweep job several
// cells wide, which a one-worker stream of single-cell jobs does not.
func TestSweepRemoteIsOneRequest(t *testing.T) {
	s, err := server.New(server.Config{Workers: 4, Executors: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	var posts atomic.Int64
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			posts.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		if err := s.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
		cancel()
	})
	var out strings.Builder
	err = run(context.Background(), &out, options{
		workloads: "pero,pops", schemes: "dir0b,dragon", cpus: "2,4",
		refs: 4_000, seeds: 2, parallel: 2, remote: ts.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "\n"); got != 9 { // header + 4 cells × 2 schemes
		t.Errorf("remote CSV has %d lines:\n%s", got, out.String())
	}
	if n := posts.Load(); n != 1 {
		t.Errorf("remote sweep posted %d jobs, want 1", n)
	}
}

// A traced -resume run reruns only the failed jobs, and each job's trace
// process keeps its global grid index as pid (and its label), not its
// position among the jobs that were rerun.
func TestSweepResumeTracePidsAreGridIndices(t *testing.T) {
	// Grid: 1 workload × 3 cpu counts × 2 seeds = 6 jobs; jobs 1 (cpus 2)
	// and 4 (cpus 8) fail and are rerun.
	dir := t.TempDir()
	base := options{
		workloads: "pops", schemes: "dir0b,dragon", cpus: "2,4,8",
		refs: 6_000, seeds: 2, parallel: 2,
		checkpoint: filepath.Join(dir, "ck.json"),
	}
	faulty := base
	faulty.faultPanic = "1,4"
	var partial strings.Builder
	if err := run(context.Background(), &partial, faulty); err == nil {
		t.Fatal("faulty sweep succeeded")
	}

	resumed := base
	resumed.resume = true
	resumed.traceOut = filepath.Join(dir, "resume.json")
	resumed.traceSample = 64
	resumed.spans = true
	var full strings.Builder
	if err := run(context.Background(), &full, resumed); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(resumed.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	labels := map[int]string{}
	events := map[int]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			labels[e.Pid], _ = e.Args["name"].(string)
			continue
		}
		events[e.Pid]++
	}
	if len(labels) != 2 || !strings.Contains(labels[1], "cpus 2") || !strings.Contains(labels[4], "cpus 8") {
		t.Errorf("trace processes = %v, want pids 1 (cpus 2) and 4 (cpus 8)", labels)
	}
	if len(events) != 2 || events[1] == 0 || events[4] == 0 {
		t.Errorf("trace events per pid = %v, want events under pids 1 and 4 only", events)
	}
}

// A cancelled clustered sweep fails like a cancelled local one; it must
// not commit a partial CSV and a clean manifest as a finished run.
func TestSweepClusterCancelled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers.json")
	if err := os.WriteFile(path, []byte(`{"peers":[{"addr":"http://127.0.0.1:1"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, &out, options{
		workloads: "pero", schemes: "dir0b", cpus: "4", refs: 1_000, seeds: 2,
		parallel: 1, cluster: path,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
