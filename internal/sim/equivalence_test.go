package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dirsim/internal/coherence"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

// The equivalence harness freezes the observable outcome of every engine —
// full Stats plus the canonical protocol-state key over every data block the
// trace touches — as SHA-256 digests in testdata/equivalence.json. The
// goldens were generated from the original map-keyed engines, so any
// representation change (block-id interning, struct-of-arrays state, the
// intrusive LRU) that perturbs results by even one counter fails here.
// testdata/equivalence_stats.json holds a second digest per engine over
// the scheme name and Stats alone, so a change to how a state key is
// rendered, which refreshes the first file, is seen to leave every
// result as it was. Regenerate both with `go test ./internal/sim -run
// TestEngineEquivalenceGoldens -update` — but only when a behaviour
// change is intended and understood.

const (
	equivalenceGoldenFile      = "testdata/equivalence.json"
	equivalenceStatsGoldenFile = "testdata/equivalence_stats.json"
)

// equivalenceCases pairs machine configurations with driver options,
// covering the paper's infinite-cache mode, first-reference pricing,
// finite set-associative caches (LRU order), sparse directories (entry
// eviction order) and warm-up windows.
func equivalenceCases() []struct {
	name string
	cfg  coherence.Config
	opts Options
} {
	return []struct {
		name string
		cfg  coherence.Config
		opts Options
	}{
		{"inf4", coherence.Config{Caches: 4}, Options{}},
		{"inf8", coherence.Config{Caches: 8}, Options{}},
		{"inf4-firstcosts", coherence.Config{Caches: 4}, Options{IncludeFirstRefCosts: true}},
		{"finite4", coherence.Config{Caches: 4, FiniteSets: 64, FiniteWays: 2}, Options{}},
		{"sparse4", coherence.Config{Caches: 4, DirEntries: 128}, Options{}},
		{"warmup4", coherence.Config{Caches: 4}, Options{WarmupRefs: 7000}},
	}
}

// equivalenceTraces returns the deterministic workloads the digests cover.
func equivalenceTraces(t *testing.T) map[string]trace.Slice {
	t.Helper()
	pops, err := tracegen.Generate(tracegen.POPS(25_000))
	if err != nil {
		t.Fatal(err)
	}
	pero, err := tracegen.Generate(tracegen.PERO(25_000))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]trace.Slice{"pops": pops, "pero": pero}
}

// dataBlocks returns every distinct data block the trace touches, ascending.
func dataBlocks(tr trace.Slice, blockBytes int) []uint64 {
	seen := map[uint64]bool{}
	for _, r := range tr {
		if r.Kind == trace.Instr {
			continue
		}
		seen[trace.Block(r.Addr, blockBytes)] = true
	}
	out := make([]uint64, 0, len(seen))
	for b := range seen {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// engineDigest hashes everything a run makes observable: the scheme name,
// the full Stats (JSON, fixed field order) and the Inspector's canonical
// state key over the given blocks. statsOnly hashes the scheme name and
// the Stats alone.
func engineDigest(t *testing.T, r Result, eng coherence.Engine, blocks []uint64) (all, statsOnly string) {
	t.Helper()
	stats, err := json.Marshal(r.Stats)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "scheme=%s\nstats=%s\n", r.Scheme, stats)
	statsOnly = hex.EncodeToString(h.Sum(nil))
	insp, ok := eng.(coherence.Inspector)
	if !ok {
		t.Fatalf("%s: engine does not implement Inspector", r.Scheme)
	}
	fmt.Fprintf(h, "state=%s\n", insp.StateKey(blocks))
	return hex.EncodeToString(h.Sum(nil)), statsOnly
}

// nextOnlyReader hides a reader's concrete type behind the bare Reader
// interface, so Run cannot take any in-memory fast path.
type nextOnlyReader struct{ trace.Reader }

// unboundEngine hides an engine's IndexedEngine methods behind the bare
// Engine interface, so Run cannot bind it to the decoder's block-id table
// and must drive it through Access, which interns inside the engine.
type unboundEngine struct{ coherence.Engine }

// driverShapes are the ways of driving Run that must all reproduce the
// same per-engine digests: the goldens pin results, not the driver that
// produced them. The first is the shape the goldens were generated with —
// one engine per Run over an in-memory trace, the fused single-engine
// loop.
var driverShapes = []struct {
	name      string
	together  bool // all engines in one Run, else one Run per engine
	parallel  int
	streaming bool // read through nextOnlyReader
	unbound   bool // wrap each engine in unboundEngine
}{
	{name: "per-engine"},
	{name: "all-engines-parallel1", together: true, parallel: 1},
	{name: "all-engines-parallel4", together: true, parallel: 4},
	{name: "per-engine-streaming", streaming: true},
	{name: "per-engine-unbound", unbound: true},
	// replay's shape: every engine in one Run over a streaming reader,
	// fanned out to two workers.
	{name: "all-engines-streaming-parallel2", together: true, parallel: 2, streaming: true},
	// Three workers split 17 engines unevenly.
	{name: "all-engines-parallel3", together: true, parallel: 3},
}

// computeEquivalenceDigests runs every registered engine over every
// workload × configuration, driven in shape driverShapes[s], and returns
// engineDigest's two digest maps, each keyed "workload/config/scheme".
func computeEquivalenceDigests(t *testing.T, s int) (digests, statsDigests map[string]string) {
	t.Helper()
	shape := driverShapes[s]
	traces := equivalenceTraces(t)
	workloads := make([]string, 0, len(traces))
	for w := range traces {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	schemes := coherence.EngineNames()
	digests, statsDigests = map[string]string{}, map[string]string{}
	for _, w := range workloads {
		tr := traces[w]
		blocks := dataBlocks(tr, trace.DefaultBlockBytes)
		for _, c := range equivalenceCases() {
			engines := make([]coherence.Engine, len(schemes))
			runs := make([][]coherence.Engine, len(schemes))
			for i, scheme := range schemes {
				eng, err := coherence.NewByName(scheme, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				engines[i], runs[i] = eng, []coherence.Engine{eng}
				if shape.unbound {
					runs[i] = []coherence.Engine{unboundEngine{eng}}
				}
			}
			if shape.together {
				runs = [][]coherence.Engine{engines}
			}
			opts := c.opts
			opts.Parallel = shape.parallel
			var results []Result
			for _, run := range runs {
				var rd trace.Reader = trace.NewSliceReader(tr)
				if shape.streaming {
					rd = nextOnlyReader{rd}
				}
				rs, err := Run(context.Background(), rd, run, opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", shape.name, w, c.name, err)
				}
				results = append(results, rs...)
			}
			for i, scheme := range schemes {
				if err := engines[i].CheckInvariants(); err != nil {
					t.Fatalf("%s/%s/%s/%s: %v", shape.name, w, c.name, scheme, err)
				}
				key := w + "/" + c.name + "/" + scheme
				digests[key], statsDigests[key] = engineDigest(t, results[i], engines[i], blocks)
			}
		}
	}
	return digests, statsDigests
}

// TestEngineEquivalenceGoldens asserts that every engine still produces
// bitwise-identical results to the original sequential map-keyed
// implementation, across all 17 schemes and every configuration class,
// however Run is driven.
func TestEngineEquivalenceGoldens(t *testing.T) {
	files := []string{equivalenceGoldenFile, equivalenceStatsGoldenFile}
	if *updateGolden {
		got, gotStats := computeEquivalenceDigests(t, 0)
		for i, digests := range []map[string]string{got, gotStats} {
			data, err := json.MarshalIndent(digests, "", "\t")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(files[i]), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[i], append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %d digests to %s", len(digests), files[i])
		}
		return
	}
	want := make([]map[string]string, len(files))
	for i, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("read goldens (regenerate with -update): %v", err)
		}
		if err := json.Unmarshal(data, &want[i]); err != nil {
			t.Fatal(err)
		}
	}
	for s, shape := range driverShapes {
		t.Run(shape.name, func(t *testing.T) {
			got, gotStats := computeEquivalenceDigests(t, s)
			for i, got := range []map[string]string{got, gotStats} {
				if len(want[i]) != len(got) {
					t.Errorf("%s has %d digests, run produced %d", files[i], len(want[i]), len(got))
				}
				var bad []string
				for k, w := range want[i] {
					if g, ok := got[k]; !ok {
						bad = append(bad, k+" (missing from run)")
					} else if g != w {
						bad = append(bad, k)
					}
				}
				sort.Strings(bad)
				if len(bad) > 0 {
					t.Errorf("%d of %d digests in %s diverge from the seed results:\n  %s",
						len(bad), len(want[i]), files[i], strings.Join(bad, "\n  "))
				}
			}
		})
	}
}
