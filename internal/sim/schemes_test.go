package sim

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/coherence"
	"dirsim/internal/flight"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

// schemeSets are the scheme lists RunSchemes is checked on: the whole
// registry, plus subsets that change which engine, if any, the priced
// schemes take their Stats from.
var schemeSets = [][]string{
	coherence.EngineNames(),
	{"wti"},
	// A snoopy basis for a snoopy scheme.
	{"mesi", "writeonce"},
	{"tang"},
	// No multiple-readers/single-writer basis: WTI must be simulated.
	{"dir1nb", "wti"},
	// Aliases keep the caller's order and the engines' names.
	{"twobit", "berkeley", "fullmap", "tang", "illinois", "goodman"},
	// Under a sparse directory Dir0B is no basis for WTI.
	{"dir0b", "wti"},
	// Limited-pointer broadcast schemes alone, together, and beside the
	// two-bit scheme and the full-map and coded-set directories.
	{"dir1b"},
	{"dir2b", "dir4b"},
	{"dir0b", "dir16b"},
	{"dir0b", "berkeley", "dir1b", "dir2b", "dirnnb", "codedset"},
}

// schemesRun is one trace and machine RunSchemes is checked on.
type schemesRun struct {
	name string
	tr   trace.Slice
	cfg  coherence.Config
	opts Options
}

// schemesRuns are the equivalence configurations over the equivalence
// traces, plus a 16-CPU POPS trace on 16 infinite caches, where sharer
// counts reach every Dir_iB pointer budget up to 16, and on 16 small
// finite caches, whose evictions shrink sharer sets between writes.
func schemesRuns(t *testing.T) []schemesRun {
	t.Helper()
	traces := equivalenceTraces(t)
	workloads := make([]string, 0, len(traces))
	for w := range traces {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	var runs []schemesRun
	for _, w := range workloads {
		for _, c := range equivalenceCases() {
			runs = append(runs, schemesRun{w + "/" + c.name, traces[w], c.cfg, c.opts})
		}
	}
	gen := tracegen.POPS(25_000)
	gen.CPUs = 16
	wide, err := tracegen.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	return append(runs,
		schemesRun{"pops16/inf16", wide, coherence.Config{Caches: 16}, Options{}},
		schemesRun{"pops16/finite16", wide, coherence.Config{Caches: 16, FiniteSets: 16, FiniteWays: 2}, Options{}},
	)
}

// TestRunSchemesMatchesRun is the differential check on RunSchemes: for
// every scheme set, trace and machine in schemesRuns, and worker count,
// its results equal Run's over freshly built engines — names, Stats (as
// JSON and field by field) and cost-model adjustment — and no two results
// share Stats storage.
func TestRunSchemesMatchesRun(t *testing.T) {
	pip := bus.Pipelined()
	for _, c := range schemesRuns(t) {
		for _, parallel := range []int{1, 2} {
			opts := c.opts
			opts.Parallel = parallel
			for _, names := range schemeSets {
				where := c.name + "/" + strings.Join(names, ",")
				engines := make([]coherence.Engine, len(names))
				for i, n := range names {
					engines[i] = must(coherence.NewByName(n, c.cfg))
				}
				want, err := Run(context.Background(), trace.NewSliceReader(c.tr), engines, opts)
				if err != nil {
					t.Fatalf("%s: Run: %v", where, err)
				}
				got, err := RunSchemes(context.Background(), trace.NewSliceReader(c.tr), names, c.cfg, opts)
				if err != nil {
					t.Fatalf("%s: RunSchemes: %v", where, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d results, want %d", where, len(got), len(want))
				}
				for i := range want {
					g, x := got[i], want[i]
					if g.Scheme != x.Scheme {
						t.Errorf("%s/%d: scheme %q, want %q", where, i, g.Scheme, x.Scheme)
					}
					gj, _ := json.Marshal(g.Stats)
					xj, _ := json.Marshal(x.Stats)
					if string(gj) != string(xj) {
						t.Errorf("%s/%s: Stats differ\n got  %s\n want %s", where, x.Scheme, gj, xj)
					} else if !reflect.DeepEqual(g.Stats, x.Stats) {
						t.Errorf("%s/%s: Stats differ outside their JSON", where, x.Scheme)
					}
					if g.Model(pip) != x.Model(pip) {
						t.Errorf("%s/%s: cost model adjustment differs", where, x.Scheme)
					}
				}
				assertNoSharedStats(t, where, got)
			}
		}
	}
}

// assertNoSharedStats fails when two results share a Stats value or the
// backing array of its PerCache or InvalFanout slices.
func assertNoSharedStats(t *testing.T, where string, rs []Result) {
	t.Helper()
	for i := range rs {
		for j := i + 1; j < len(rs); j++ {
			a, b := rs[i].Stats, rs[j].Stats
			switch {
			case a == b:
				t.Errorf("%s: %s and %s share one Stats", where, rs[i].Scheme, rs[j].Scheme)
			case len(a.PerCache) > 0 && len(b.PerCache) > 0 && &a.PerCache[0] == &b.PerCache[0]:
				t.Errorf("%s: %s and %s share PerCache", where, rs[i].Scheme, rs[j].Scheme)
			case len(a.InvalFanout.Counts) > 0 && len(b.InvalFanout.Counts) > 0 &&
				&a.InvalFanout.Counts[0] == &b.InvalFanout.Counts[0]:
				t.Errorf("%s: %s and %s share InvalFanout", where, rs[i].Scheme, rs[j].Scheme)
			}
		}
	}
}

// TestRunSchemesTracedKeepsEveryTrack checks that a traced RunSchemes
// gives every scheme its own flight track with sampled events on it, the
// schemes that share a state-change model included.
func TestRunSchemesTracedKeepsEveryTrack(t *testing.T) {
	names := []string{"dir0b", "berkeley", "dirnnb", "tang", "wti", "writeonce", "mesi"}
	rec := flight.New(flight.Options{Sample: 1})
	rs, err := RunSchemes(context.Background(), trace.NewSliceReader(sharingTrace2()),
		names, coherence.Config{Caches: 2}, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	perTrack := map[string]int{}
	for _, e := range rec.Events() {
		perTrack[rec.TrackName(e.Track)]++
	}
	for _, r := range rs {
		if perTrack[r.Scheme] == 0 {
			t.Errorf("%s: no events on its flight track (tracks %v)", r.Scheme, rec.Tracks())
		}
	}
	if len(rec.Tracks()) != len(names)+1 {
		t.Errorf("tracks %v, want driver plus one per scheme", rec.Tracks())
	}
}

// TestPricingBases pins which engines RunSchemes simulates: 9 of the 17
// registered schemes, and the bases each scheme set above resolves to.
func TestPricingBases(t *testing.T) {
	build := func(cfg coherence.Config, names ...string) []coherence.Engine {
		engines := make([]coherence.Engine, len(names))
		for i, n := range names {
			engines[i] = must(coherence.NewByName(n, cfg))
		}
		return engines
	}
	inf, sparse := coherence.Config{Caches: 4}, coherence.Config{Caches: 4, DirEntries: 128}
	finite := coherence.Config{Caches: 4, FiniteSets: 64, FiniteWays: 2}
	simulated := 0
	for i, b := range pricingBases(build(inf, coherence.EngineNames()...)) {
		if b == i {
			simulated++
		}
	}
	if simulated != 9 {
		t.Errorf("registry: %d engines simulated, want 9", simulated)
	}
	for _, tc := range []struct {
		cfg   coherence.Config
		names []string
		want  []int
	}{
		{inf, []string{"wti"}, []int{0}},
		{inf, []string{"mesi", "writeonce"}, []int{0, 0}},
		{inf, []string{"tang"}, []int{0}},
		{inf, []string{"dir1nb", "wti"}, []int{0, 1}},
		{inf, []string{"twobit", "berkeley", "fullmap", "tang", "illinois", "goodman"}, []int{2, 2, 2, 2, 2, 2}},
		{inf, []string{"dir0b", "wti"}, []int{0, 0}},
		{sparse, []string{"dir0b", "wti"}, []int{0, 1}},
		{inf, []string{"wti", "tang", "dirnnb"}, []int{2, 2, 2}},
		{inf, []string{"dir1b"}, []int{0}},
		{inf, []string{"dir2b", "dir4b"}, []int{0, 0}},
		{inf, []string{"dir0b", "dir16b"}, []int{0, 0}},
		{inf, []string{"dir0b", "berkeley", "dir1b", "dir2b", "dirnnb", "codedset"}, []int{4, 4, 4, 4, 4, 5}},
		{inf, []string{"dir1b", "dir2b", "dir3b", "dir4b", "dir8b", "dir16b"}, []int{0, 0, 0, 0, 0, 0}},
		{finite, []string{"dir0b", "berkeley", "dir1b", "dirnnb"}, []int{2, 2, 2, 3}},
		{sparse, []string{"dir0b", "berkeley", "dir1b", "dirnnb"}, []int{0, 0, 2, 3}},
		{inf, []string{"dir1nb", "dir2nb", "dir0b", "dir2b"}, []int{0, 1, 2, 2}},
	} {
		if got := pricingBases(build(tc.cfg, tc.names...)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v (DirEntries %d): bases %v, want %v", tc.names, tc.cfg.DirEntries, got, tc.want)
		}
	}
}

// TestRunSchemesVerifyAccounting checks all 17 registry results of one
// RunSchemes over a POPS trace, priced and simulated alike, against the
// independent per-event operation tables of PerEventOps wherever a scheme
// has one.
func TestRunSchemesVerifyAccounting(t *testing.T) {
	gen := must(tracegen.New(tracegen.POPS(60_000)))
	rs, err := RunSchemes(context.Background(), gen, coherence.EngineNames(), cfg4(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tabled := 0
	for _, r := range rs {
		if _, ok := PerEventOps(r.Scheme); ok {
			tabled++
		}
		if err := VerifyAccounting(r); err != nil {
			t.Error(err)
		}
	}
	if len(rs) != 17 || tabled != 8 {
		t.Errorf("%d results, %d with a per-event table; want 17 and 8", len(rs), tabled)
	}
}
