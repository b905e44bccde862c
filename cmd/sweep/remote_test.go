package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"dirsim/internal/server"
)

// startDaemon brings up a real dirsimd service behind httptest and
// returns its base URL.
func startDaemon(t *testing.T) string {
	t.Helper()
	s, err := server.New(server.Config{Workers: 4, Executors: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
		cancel()
	})
	return ts.URL
}

// A remote run must emit a CSV byte-identical to the local run of the
// same grid: same canonical scheme names, same row order, same float
// formatting — the remote stats price through the identical cost model.
func TestSweepRemoteMatchesLocal(t *testing.T) {
	o := options{
		workloads: "pero,pops", schemes: "dir0b,berkeley", cpus: "2,4",
		refs: 8_000, seeds: 2,
	}
	var local strings.Builder
	if err := run(context.Background(), &local, o); err != nil {
		t.Fatal(err)
	}
	o.remote = startDaemon(t)
	var remote strings.Builder
	if err := run(context.Background(), &remote, o); err != nil {
		t.Fatal(err)
	}
	if local.String() != remote.String() {
		t.Errorf("remote CSV differs from local:\n--- local\n%s--- remote\n%s", local.String(), remote.String())
	}
}

// Fault-injection and checkpoint flags configure local execution and must
// refuse to combine with -remote rather than being silently ignored.
func TestSweepRemoteRejectsLocalOnlyFlags(t *testing.T) {
	base := options{workloads: "pero", schemes: "dir0b", cpus: "2", refs: 1_000, seeds: 1,
		remote: "http://127.0.0.1:1"}
	cases := []func(*options){
		func(o *options) { o.faultCorrupt = 0.1 },
		func(o *options) { o.faultTruncate = 10 },
		func(o *options) { o.faultPanic = "0" },
		func(o *options) { o.faultJobs = "0" },
		func(o *options) { o.checkpoint = "ck.json" },
		func(o *options) { o.resume = true },
	}
	for i, mutate := range cases {
		o := base
		mutate(&o)
		var out strings.Builder
		err := run(context.Background(), &out, o)
		if err == nil || !strings.Contains(err.Error(), "-remote") {
			t.Errorf("case %d: err = %v, want -remote combination error", i, err)
		}
	}
}

// A dead daemon is a whole-command failure, not a silent empty CSV.
func TestSweepRemoteDaemonUnreachable(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), &out, options{
		workloads: "pero", schemes: "dir0b", cpus: "2", refs: 1_000, seeds: 1,
		remote: "http://127.0.0.1:1",
	})
	if err == nil {
		t.Fatal("unreachable daemon succeeded")
	}
	if strings.Count(out.String(), "\n") > 1 {
		t.Errorf("failed remote run emitted rows:\n%s", out.String())
	}
}
