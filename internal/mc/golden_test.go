package mc

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dirsim/internal/coherence"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/graphs.golden")

// TestStateGraphGolden pins the shape of every engine's reachable state
// graph over five small universes. The equivalence digests pin what the
// engines do on traces; this pins how StateKey folds their states, so a
// key that merges two states (hiding behaviour from the checker) or splits
// one (inflating the graph) shows up as a changed line. Refresh with
// `go test ./internal/mc -run StateGraphGolden -update`, but only for a
// change to an engine's state-change model that is intended.
func TestStateGraphGolden(t *testing.T) {
	universes := []Options{{Caches: 2, Blocks: 1}, {Caches: 2, Blocks: 2}, {Caches: 3, Blocks: 2}, {Caches: 4, Blocks: 1}, {Caches: 5, Blocks: 1}}
	names := coherence.EngineNames()
	lines := make([]string, len(universes)*len(names))
	// The group returns once its parallel explorations have finished.
	t.Run("explore", func(t *testing.T) {
		for u, opts := range universes {
			for n, name := range names {
				u, n, name, opts := u, n, name, opts
				t.Run(fmt.Sprintf("%dx%d/%s", opts.Caches, opts.Blocks, name), func(t *testing.T) {
					t.Parallel()
					res, err := ExploreScheme(name, opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Violations) != 0 || res.Truncated {
						t.Fatalf("%d violations, truncated %v", len(res.Violations), res.Truncated)
					}
					lines[u*len(names)+n] = fmt.Sprintf("%dx%d %s nodes=%d edges=%d transitions=%d depth=%d unreachable=[%s]",
						opts.Caches, opts.Blocks, res.Engine, res.Nodes, res.Edges, res.Transitions, res.Depth,
						strings.Join(res.Unreachable, " "))
				})
			}
		}
	})
	if t.Failed() {
		return
	}
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "graphs.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("%s differs at line %d:\n got: %q\nwant: %q", golden, i+1, gl, wl)
			return
		}
	}
}
