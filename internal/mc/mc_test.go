package mc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dirsim/internal/coherence"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// TestAllEnginesSound is the headline property: every scheme NewByName can
// build survives exhaustive reachable-state exploration of the 2-cache /
// 1-block universe with zero invariant violations.
func TestAllEnginesSound(t *testing.T) {
	for _, name := range coherence.EngineNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := ExploreScheme(name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("%s: %d violations, first: %v", name, len(res.Violations), res.Violations[0])
			}
			if res.Truncated {
				t.Fatalf("%s: exploration truncated at %d nodes", name, res.Nodes)
			}
			if res.Nodes < 2 {
				t.Fatalf("%s: implausibly small graph (%d nodes)", name, res.Nodes)
			}
			if res.Transitions != res.Nodes*4 { // 2 caches × {read, write} × 1 block
				t.Fatalf("%s: %d transitions for %d nodes, want %d",
					name, res.Transitions, res.Nodes, res.Nodes*4)
			}
		})
	}
}

// TestTwoBlockUniverse re-runs a directory and a snoopy scheme over two
// blocks, where cross-block state (pointer budgets, store entries) can
// interact.
func TestTwoBlockUniverse(t *testing.T) {
	for _, name := range []string{"dir1nb", "dir0b", "mesi", "moesi", "dragon"} {
		res, err := ExploreScheme(name, Options{Blocks: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("%s: %v", name, res.Violations[0])
		}
		one, err := ExploreScheme(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Nodes <= one.Nodes {
			t.Fatalf("%s: 2-block graph (%d nodes) not larger than 1-block (%d)",
				name, res.Nodes, one.Nodes)
		}
	}
}

// TestAbstractCoverage pins the protocol semantics the coverage report
// makes visible: which sharing configurations each scheme can reach.
func TestAbstractCoverage(t *testing.T) {
	cases := []struct {
		scheme          string
		wantUnreachable []string
	}{
		// Dir1NB's single pointer forbids any two-cache copy.
		{"dir1nb", []string{"{0,1}/clean", "{0,1}/written"}},
		// Invalidation protocols share clean copies but a written block
		// lives in exactly one cache.
		{"dirnnb", []string{"{0,1}/written"}},
		{"dir0b", []string{"{0,1}/written"}},
		{"wti", []string{"{0,1}/written"}},
		{"mesi", []string{"{0,1}/written"}},
		// MOESI's Owned state and Dragon's shared-stale blocks allow
		// dirty sharing: the whole universe is reachable.
		{"moesi", nil},
		{"dragon", nil},
		// Firefly writes shared updates through to memory, so a block
		// held by both caches is never stale.
		{"firefly", []string{"{0,1}/written"}},
	}
	for _, c := range cases {
		res, err := ExploreScheme(c.scheme, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Join(res.Unreachable, " ")
		want := strings.Join(c.wantUnreachable, " ")
		if got != want {
			t.Errorf("%s: unreachable = %q, want %q (reached %q)",
				c.scheme, got, want, strings.Join(res.Reached, " "))
		}
		if len(res.Reached)+len(res.Unreachable) != 7 {
			t.Errorf("%s: abstract universe %d+%d states, want 7",
				c.scheme, len(res.Reached), len(res.Unreachable))
		}
	}
}

// buggyEngine violates its invariant as soon as both caches have written:
// the model checker must find the 2-step counterexample.
type buggyEngine struct {
	wrote [2]bool
	stats coherence.Stats
}

func (e *buggyEngine) Name() string            { return "Buggy" }
func (e *buggyEngine) Caches() int             { return 2 }
func (e *buggyEngine) Stats() *coherence.Stats { return &e.stats }
func (e *buggyEngine) ResetStats()             {}
func (e *buggyEngine) Access(c int, kind trace.Kind, block uint64, first bool) events.Type {
	if kind == trace.Write {
		e.wrote[c] = true
	}
	return events.ReadHit
}
func (e *buggyEngine) CheckInvariants() error {
	if e.wrote[0] && e.wrote[1] {
		return fmt.Errorf("both caches wrote")
	}
	return nil
}
func (e *buggyEngine) StateKey(blocks []uint64) string {
	return fmt.Sprintf("%v", e.wrote)
}
func (e *buggyEngine) Truth(block uint64) ([]int, bool) { return nil, false }

func TestShortestCounterexample(t *testing.T) {
	res, err := Explore(func() (coherence.Engine, error) { return &buggyEngine{}, nil }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("violation not found")
	}
	v := res.Violations[0]
	if len(v.Path) != 2 {
		t.Fatalf("counterexample %v has %d steps, want the shortest (2)", v, len(v.Path))
	}
	for _, a := range v.Path {
		if a.Kind != trace.Write {
			t.Fatalf("counterexample step %v is not a write", a)
		}
	}
}

// flakyEngine keys its state off a per-construction serial number, so a
// replay never reproduces the same key: the determinism cross-check must
// flag it.
type flakyEngine struct {
	serial int
	stats  coherence.Stats
}

func (e *flakyEngine) Name() string            { return "Flaky" }
func (e *flakyEngine) Caches() int             { return 2 }
func (e *flakyEngine) Stats() *coherence.Stats { return &e.stats }
func (e *flakyEngine) ResetStats()             {}
func (e *flakyEngine) Access(c int, kind trace.Kind, block uint64, first bool) events.Type {
	return events.ReadHit
}
func (e *flakyEngine) CheckInvariants() error { return nil }
func (e *flakyEngine) StateKey(blocks []uint64) string {
	return fmt.Sprintf("serial%d", e.serial)
}
func (e *flakyEngine) Truth(block uint64) ([]int, bool) { return nil, false }

func TestDeterminismCheck(t *testing.T) {
	serial := 0
	mk := func() (coherence.Engine, error) {
		serial++
		return &flakyEngine{serial: serial}, nil
	}
	res, err := Explore(mk, Options{MaxNodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v.Err.Error(), "nondeterministic") {
			found = true
		}
	}
	if !found {
		t.Fatalf("determinism violation not detected: %v", res.Violations)
	}
}

// TestUniverseArithmetic pins the abstract universe size formula.
func TestUniverseArithmetic(t *testing.T) {
	if got := len(abstractUniverse(2)); got != 7 {
		t.Fatalf("2-cache universe has %d states, want 7", got)
	}
	if got := len(abstractUniverse(3)); got != 15 {
		t.Fatalf("3-cache universe has %d states, want 15", got)
	}
}

func TestOptionsValidate(t *testing.T) {
	if _, err := ExploreScheme("dir0b", Options{Caches: 99}); err == nil {
		t.Fatal("oversized universe accepted")
	}
	if _, err := ExploreScheme("no-such-scheme", Options{}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestExploreNUMA explores the message-level NUMA family under both home
// policies. Its ground truth is Dir_nNB's, and under interleaving its
// graphs equal DirnNB's in testdata/graphs.golden; under first-touch the
// key also carries each block's assigned home, so the graph is larger.
// The counts pin how StateKey folds the states, as TestStateGraphGolden
// does for the registry schemes.
func TestExploreNUMA(t *testing.T) {
	for _, tc := range []struct {
		policy       coherence.HomePolicy
		opts         Options
		nodes, edges int
	}{
		{coherence.Interleaved, Options{Caches: 2, Blocks: 1}, 6, 21},
		{coherence.Interleaved, Options{Caches: 2, Blocks: 2}, 36, 227},
		{coherence.Interleaved, Options{Caches: 3, Blocks: 2}, 121, 1176},
		{coherence.FirstTouch, Options{Caches: 2, Blocks: 1}, 9, 30},
		{coherence.FirstTouch, Options{Caches: 2, Blocks: 2}, 81, 476},
		{coherence.FirstTouch, Options{Caches: 3, Blocks: 2}, 625, 5724},
	} {
		res, err := Explore(func() (coherence.Engine, error) {
			return coherence.NewNUMA(coherence.NUMAConfig{Nodes: tc.opts.Caches, Policy: tc.policy})
		}, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s %dx%d", tc.policy, tc.opts.Caches, tc.opts.Blocks)
		if len(res.Violations) != 0 || res.Truncated {
			t.Fatalf("%s: %d violations, truncated %v", name, len(res.Violations), res.Truncated)
		}
		if res.Nodes != tc.nodes || res.Edges != tc.edges {
			t.Errorf("%s: %d nodes, %d edges; want %d, %d", name, res.Nodes, res.Edges, tc.nodes, tc.edges)
		}
	}
}

// TestHolderOrderUnobservable shows that the order in which a full-map
// directory learned a block's holders is not state: DirnNB and Tang,
// brought to the same holders in every order, give equal Stats and equal
// ground truth under every continuation of up to three references, and
// so must give equal state keys.
func TestHolderOrderUnobservable(t *testing.T) {
	const caches = 3
	var actions []Action
	for c := 0; c < caches; c++ {
		for _, k := range []trace.Kind{trace.Read, trace.Write} {
			actions = append(actions, Action{Cache: c, Kind: k, Block: 1})
		}
	}
	var continuations [][]Action
	var extend func(prefix []Action)
	extend = func(prefix []Action) {
		continuations = append(continuations, prefix)
		if len(prefix) == 3 {
			return
		}
		for _, a := range actions {
			extend(append(append([]Action(nil), prefix...), a))
		}
	}
	extend(nil)
	type outcome struct {
		stats      coherence.Stats
		truth, key string
	}
	// run reads block 1 into the caches of order, in that order, then
	// counts only the continuation.
	run := func(name string, order []int, cont []Action) outcome {
		e, err := coherence.NewByName(name, coherence.Config{Caches: caches})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range order {
			e.Access(c, trace.Read, 1, i == 0)
		}
		insp := e.(coherence.Inspector)
		key := insp.StateKey([]uint64{1})
		e.ResetStats()
		for _, a := range cont {
			e.Access(a.Cache, a.Kind, a.Block, false)
		}
		holders, dirty := insp.Truth(1)
		return outcome{stats: *e.Stats(), truth: fmt.Sprint(holders, dirty), key: key}
	}
	for _, name := range []string{"dirnnb", "tang"} {
		for _, group := range [][][]int{
			{{0, 1}, {1, 0}},
			{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}},
		} {
			for _, cont := range continuations {
				want := run(name, group[0], cont)
				for _, order := range group[1:] {
					got := run(name, order, cont)
					if !reflect.DeepEqual(got.stats, want.stats) || got.truth != want.truth {
						t.Fatalf("%s: holders read in order %v then %v: stats %+v, truth %s; in order %v: stats %+v, truth %s",
							name, order, cont, got.stats, got.truth, group[0], want.stats, want.truth)
					}
					if got.key != want.key {
						t.Fatalf("%s: holders read in order %v key %q, in order %v %q", name, order, got.key, group[0], want.key)
					}
				}
			}
		}
	}
}
