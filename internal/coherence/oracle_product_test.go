package coherence_test

import (
	"fmt"
	"testing"

	"dirsim/internal/coherence"
	"dirsim/internal/mc"
)

// TestOracleProduct is the package's exhaustive classification check. The
// model checker explores every engine paired with its independent oracle
// (coherence.WithOracle) over six small universes: every reachable
// (engine, oracle) state is visited and every reference from it is
// classified by both, so a divergence anywhere in the reachable graph
// surfaces as a violation with a shortest counterexample path. The
// product graph must have the bare engine's exact node and edge counts:
// the oracle's state is then a function of the engine's, so pairing
// hides none of the engine's states and adds none.
func TestOracleProduct(t *testing.T) {
	universes := []mc.Options{
		{Caches: 2, Blocks: 1}, {Caches: 2, Blocks: 2}, {Caches: 3, Blocks: 1},
		{Caches: 3, Blocks: 2}, {Caches: 4, Blocks: 1}, {Caches: 5, Blocks: 1},
	}
	type engineCase struct {
		name string
		mk   func(caches int) (coherence.Engine, error)
	}
	var cases []engineCase
	var unpaired []string
	for _, name := range coherence.EngineNames() {
		name := name
		e, err := coherence.NewByName(name, coherence.Config{Caches: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := coherence.WithOracle(e); !ok {
			unpaired = append(unpaired, e.Name())
			continue
		}
		cases = append(cases, engineCase{e.Name(), func(caches int) (coherence.Engine, error) {
			return coherence.NewByName(name, coherence.Config{Caches: caches})
		}})
	}
	// Limited-pointer no-broadcast directories evict copies to make room,
	// and the competitive scheme self-invalidates on a counter: neither
	// state-change model has an oracle.
	if fmt.Sprint(unpaired) != "[Dir2NB Competitive4]" {
		t.Fatalf("registry engines without an oracle: %v, want [Dir2NB Competitive4]", unpaired)
	}
	for _, policy := range []coherence.HomePolicy{coherence.Interleaved, coherence.FirstTouch} {
		policy := policy
		cases = append(cases, engineCase{fmt.Sprintf("NUMA(%s)", policy), func(caches int) (coherence.Engine, error) {
			return coherence.NewNUMA(coherence.NUMAConfig{Nodes: caches, Policy: policy})
		}})
	}
	if len(cases) != 17 {
		t.Fatalf("%d cases, want 17", len(cases))
	}

	// One subtest per universe, one per engine beneath it: 2x1 is the
	// single-block space the sequence enumeration covered, 2x2 the
	// two-block one.
	for _, opts := range universes {
		opts := opts
		t.Run(fmt.Sprintf("%dx%d", opts.Caches, opts.Blocks), func(t *testing.T) {
			t.Parallel()
			for _, c := range cases {
				c := c
				t.Run(c.name, func(t *testing.T) {
					t.Parallel()
					product, err := mc.Explore(func() (coherence.Engine, error) {
						e, err := c.mk(opts.Caches)
						if err != nil {
							return nil, err
						}
						paired, _ := coherence.WithOracle(e)
						return paired, nil
					}, opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(product.Violations) != 0 {
						t.Fatalf("%d violations, first: %v", len(product.Violations), product.Violations[0])
					}
					if product.Truncated {
						t.Fatalf("exploration truncated at %d nodes", product.Nodes)
					}
					bare, err := mc.Explore(func() (coherence.Engine, error) { return c.mk(opts.Caches) }, opts)
					if err != nil {
						t.Fatal(err)
					}
					if product.Nodes != bare.Nodes || product.Edges != bare.Edges {
						t.Fatalf("product graph %d nodes, %d edges; bare engine %d, %d",
							product.Nodes, product.Edges, bare.Nodes, bare.Edges)
					}
				})
			}
		})
	}
}
