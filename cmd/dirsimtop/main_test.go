package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dirsim/internal/cluster"
	"dirsim/internal/obs"
	"dirsim/internal/spec"
)

func snapshotWithRefs(refs uint64) *obs.Snapshot {
	return &obs.Snapshot{
		Refs: refs, JobsDone: 3, JobsTotal: 4, Failures: 1,
		Counters: []obs.NamedValue{
			{Name: "cluster_hedge_fired", Value: 2},
			{Name: "cluster_hedge_win", Value: 1},
		},
	}
}

func TestRenderRatesAndDownPeers(t *testing.T) {
	clock := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	var out bytes.Buffer
	tp := &top{out: &out, now: func() time.Time { return clock }}

	doc := spec.ClusterMetricsDoc{Peers: []spec.PeerMetrics{
		{Addr: "http://a", Self: true, Up: true, Metrics: snapshotWithRefs(1000)},
		{Addr: "http://b", Up: false, Error: "connection refused"},
	}}
	tp.render(doc)
	first := out.String()
	if !strings.Contains(first, "http://a (self)") {
		t.Fatalf("self row missing:\n%s", first)
	}
	if !strings.Contains(first, "2 members, 1 up") {
		t.Fatalf("fleet summary wrong:\n%s", first)
	}
	if !strings.Contains(first, "connection refused") {
		t.Fatalf("down peer's error not shown:\n%s", first)
	}
	// No previous frame: rate is unknowable, not zero.
	if !strings.Contains(first, "-") {
		t.Fatalf("first frame should render '-' rates:\n%s", first)
	}

	// 10s later the self peer processed 500 more refs → 50/s.
	clock = clock.Add(10 * time.Second)
	doc.Peers[0].Metrics = snapshotWithRefs(1500)
	out.Reset()
	tp.render(doc)
	second := out.String()
	if !strings.Contains(second, "50/s") {
		t.Fatalf("rate from refs delta missing:\n%s", second)
	}
}

func TestRenderRestartResetsRate(t *testing.T) {
	clock := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	var out bytes.Buffer
	tp := &top{out: &out, now: func() time.Time { return clock }}
	doc := spec.ClusterMetricsDoc{Peers: []spec.PeerMetrics{
		{Addr: "http://a", Up: true, Metrics: snapshotWithRefs(1000)},
	}}
	tp.render(doc)

	// A restarted daemon's counter goes backwards; the rate must not
	// underflow to an enormous uint64 figure.
	clock = clock.Add(10 * time.Second)
	doc.Peers[0].Metrics = snapshotWithRefs(10)
	out.Reset()
	tp.render(doc)
	if got := out.String(); !strings.Contains(got, " - ") || strings.Contains(got, "/s") {
		t.Fatalf("backwards counter should render '-' rate:\n%s", got)
	}
}

func TestFrameFetchesFederatedDoc(t *testing.T) {
	doc := spec.ClusterMetricsDoc{Peers: []spec.PeerMetrics{
		{Addr: "http://a", Self: true, Up: true, Metrics: snapshotWithRefs(7)},
		{Addr: "http://b", Up: true, Metrics: snapshotWithRefs(9)},
	}}
	var gotKey string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/metrics" {
			http.NotFound(w, r)
			return
		}
		gotKey = r.Header.Get(cluster.KeyHeader)
		json.NewEncoder(w).Encode(doc)
	}))
	defer srv.Close()

	var out bytes.Buffer
	tp := &top{
		addr: srv.URL, key: "fleet-secret", http: srv.Client(),
		now: func() time.Time { return time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC) },
		out: &out,
	}
	if err := tp.frame(context.Background()); err != nil {
		t.Fatal(err)
	}
	if gotKey != "fleet-secret" {
		t.Fatalf("cluster key header = %q, want fleet-secret", gotKey)
	}
	for _, want := range []string{"http://a (self)", "http://b", "2 members, 2 up", "refs 16"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("frame output missing %q:\n%s", want, out.String())
		}
	}
}

func TestFrameReportsHTTPError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"bad cluster key"}`, http.StatusForbidden)
	}))
	defer srv.Close()
	tp := &top{addr: srv.URL, http: srv.Client(), now: time.Now, out: &bytes.Buffer{}}
	err := tp.frame(context.Background())
	if err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("want 403 error, got %v", err)
	}
}
