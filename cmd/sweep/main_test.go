package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dirsim/internal/runner"
)

func TestSweepGrid(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), &out, options{
		workloads: "pero", schemes: "dir0b,dragon", cpus: "4,8", refs: 10_000, seeds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Header + 2 cpus × 2 schemes.
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out.String())
	}
	if lines[0] != "workload,cpus,scheme,refs,seeds,cycles_per_ref_mean,cycles_per_ref_ci95" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "PERO,4,Dir0B,10000,2,") {
		t.Errorf("row = %q", lines[1])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != 6 {
			t.Errorf("ragged row %q", l)
		}
	}
}

// Row order and content must not depend on the worker count, and the
// -progress stream must carry job counts without touching stdout.
func TestSweepParallelMatchesSequentialAndProgress(t *testing.T) {
	var seq strings.Builder
	if err := run(context.Background(), &seq, options{
		workloads: "pero,pops", schemes: "dir0b,dragon", cpus: "2,4", refs: 8_000, seeds: 2,
	}); err != nil {
		t.Fatal(err)
	}
	var par, prog strings.Builder
	if err := run(context.Background(), &par, options{
		workloads: "pero,pops", schemes: "dir0b,dragon", cpus: "2,4", refs: 8_000, seeds: 2,
		parallel: 4, progress: true, progressW: &prog,
	}); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("parallel CSV differs from sequential:\n%s\nvs\n%s", par.String(), seq.String())
	}
	if !strings.Contains(prog.String(), "jobs") {
		t.Errorf("progress output missing: %q", prog.String())
	}
	if strings.Contains(par.String(), "jobs ") {
		t.Error("progress leaked into the CSV stream")
	}
}

func TestSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, &out, options{workloads: "pero", schemes: "dir0b", cpus: "4", refs: 50_000, seeds: 2})
	if err == nil {
		t.Fatal("cancelled sweep succeeded")
	}
}

func TestSweepErrors(t *testing.T) {
	var out strings.Builder
	ctx := context.Background()
	if err := run(ctx, &out, options{workloads: "bogus", schemes: "dir0b", cpus: "4", refs: 100, seeds: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(ctx, &out, options{workloads: "pero", schemes: "bogus", cpus: "4", refs: 100, seeds: 1}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run(ctx, &out, options{workloads: "pero", schemes: "dir0b", cpus: "x", refs: 100, seeds: 1}); err == nil {
		t.Error("bad cpu list accepted")
	}
	if err := run(ctx, &out, options{workloads: "pero", schemes: "dir0b", cpus: "4", refs: 0, seeds: 1}); err == nil {
		t.Error("zero refs accepted")
	}
	if err := run(ctx, &out, options{workloads: "pero", schemes: "dir0b", cpus: "4", refs: 100, seeds: 0}); err == nil {
		t.Error("zero seeds accepted")
	}
	if err := run(ctx, &out, options{workloads: "pero", schemes: "dir0b", cpus: "4", refs: 100, seeds: 1, resume: true}); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
	if err := run(ctx, &out, options{workloads: "pero", schemes: "dir0b", cpus: "4", refs: 100, seeds: 1, faultJobs: "x"}); err == nil {
		t.Error("bad -fault-jobs accepted")
	}
}

// The acceptance scenario end to end: a sweep with an injected panic and
// a truncated trace still finishes, streams the surviving cells, records
// the two failures in the manifest and checkpoint — and a clean -resume
// run replays only the failed cells, producing output byte-identical to a
// run that never saw a fault.
func TestFaultySweepManifestAndResume(t *testing.T) {
	// Grid: 1 workload × 3 cpu counts × 2 seeds = 6 jobs in 3 cells.
	// Cell 0 = jobs 0,1 (2 cpus), cell 1 = jobs 2,3 (4 cpus), cell 2 =
	// jobs 4,5 (8 cpus).
	base := options{
		workloads: "pops", schemes: "dir0b,dragon", cpus: "2,4,8",
		refs: 6_000, seeds: 2, parallel: 2,
	}
	ctx := context.Background()

	var clean strings.Builder
	if err := run(ctx, &clean, base); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ckPath := filepath.Join(dir, "sweep.ck.json")
	manPath := filepath.Join(dir, "failures.json")
	faulty := base
	faulty.checkpoint = ckPath
	faulty.manifest = manPath
	faulty.faultPanic = "1"     // job 1 panics mid-trace → cell 0 fails
	faulty.faultTruncate = 3000 // job 2's trace truncates → cell 1 fails
	faulty.faultJobs = "2"

	var partial strings.Builder
	err := run(ctx, &partial, faulty)
	if !errors.Is(err, errDegraded) {
		t.Fatalf("want errDegraded, got %v", err)
	}
	// Only the unfaulted cell's rows survive.
	cleanLines := strings.Split(strings.TrimSpace(clean.String()), "\n")
	partialLines := strings.Split(strings.TrimSpace(partial.String()), "\n")
	if len(cleanLines) != 7 { // header + 3 cells × 2 schemes
		t.Fatalf("clean run has %d lines:\n%s", len(cleanLines), clean.String())
	}
	if len(partialLines) != 3 { // header + 1 cell × 2 schemes
		t.Fatalf("partial run has %d lines:\n%s", len(partialLines), partial.String())
	}
	for i, l := range partialLines[1:] {
		if l != cleanLines[5+i] {
			t.Errorf("surviving row %q differs from clean row %q", l, cleanLines[5+i])
		}
	}

	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man runner.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if man.Command != "sweep" || man.Total != 6 || man.Failed != 2 || man.Succeeded != 4 {
		t.Errorf("manifest counts = %+v, want 2 of 6 failed", man)
	}
	labels := map[int]string{}
	for _, f := range man.Failures {
		labels[f.Index] = f.Label
	}
	if !strings.Contains(labels[1], "cpus 2") || !strings.Contains(labels[2], "cpus 4") {
		t.Errorf("failure labels = %v, want jobs 1 (cpus 2) and 2 (cpus 4)", labels)
	}

	// Resume without faults: only the 2 failed jobs rerun, and the final
	// CSV is byte-identical to the clean run.
	resumed := base
	resumed.checkpoint = ckPath
	resumed.resume = true
	var full strings.Builder
	if err := run(ctx, &full, resumed); err != nil {
		t.Fatal(err)
	}
	if full.String() != clean.String() {
		t.Errorf("resumed output differs from clean run:\n%s\nvs\n%s", full.String(), clean.String())
	}
}

// A checkpoint from one grid must not silently seed a different grid.
func TestResumeRejectsMismatchedGrid(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "ck.json")
	o := options{
		workloads: "pero", schemes: "dir0b", cpus: "2",
		refs: 2_000, seeds: 1, checkpoint: ckPath,
	}
	var out strings.Builder
	if err := run(context.Background(), &out, o); err != nil {
		t.Fatal(err)
	}
	o.refs = 4_000
	o.resume = true
	err := run(context.Background(), &out, o)
	if err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("mismatched grid accepted: %v", err)
	}
}
