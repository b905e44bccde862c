// Package mc is an explicit-state model checker for the coherence engines:
// it performs a breadth-first exploration of the reachable protocol-state
// graph over a small fixed universe of caches and blocks, checking every
// engine invariant at every reachable state.
//
// Enumerating reference *sequences* to a fixed depth revisits the same
// handful of states many times and sees nothing past its depth. mc instead
// enumerates *states*: a node is the engine's canonical protocol state
// (coherence.Inspector.StateKey — ground truth plus directory memory)
// combined with the set of blocks already referenced (the `first` flag is
// part of the transition function), and an edge is one classified memory
// reference. The visited set makes the
// exploration exhaustive over the reachable graph regardless of depth, the
// way the BedRock-style protocol verifications validate coherence
// protocols by state-space search rather than sampling. Explore takes any
// inspectable engine, so internal/coherence's tests also explore each
// engine paired with its independent oracle, a product whose invariant
// check includes the two classifying every reference alike.
//
// Because engines are deterministic and not clonable, nodes are
// re-materialised by replaying the shortest action path from the initial
// state; BFS guarantees those paths are minimal, so every reported
// violation comes with a shortest counterexample trace.
package mc

import (
	"fmt"
	"sort"
	"strings"

	"dirsim/internal/coherence"
	"dirsim/internal/trace"
)

// Action is one edge label: a classified reference issued to the engine.
type Action struct {
	Cache int
	Kind  trace.Kind
	Block uint64
}

// String renders the action as "c0 write b1".
func (a Action) String() string {
	return fmt.Sprintf("c%d %s b%d", a.Cache, a.Kind, a.Block)
}

// Options sizes the explored universe.
type Options struct {
	// Caches is the number of caches (default 2).
	Caches int
	// Blocks is the number of distinct blocks referenced (default 1).
	// Blocks are numbered 1..Blocks.
	Blocks int
	// MaxNodes caps the exploration (default 1 << 16); Result.Truncated
	// reports whether the cap was hit.
	MaxNodes int
}

func (o Options) withDefaults() Options {
	if o.Caches == 0 {
		o.Caches = 2
	}
	if o.Blocks == 0 {
		o.Blocks = 1
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 1 << 16
	}
	return o
}

func (o Options) validate() error {
	if o.Caches < 1 || o.Caches > 8 {
		return fmt.Errorf("mc: cache count %d out of range [1,8]", o.Caches)
	}
	if o.Blocks < 1 || o.Blocks > 8 {
		return fmt.Errorf("mc: block count %d out of range [1,8]", o.Blocks)
	}
	if o.MaxNodes < 1 {
		return fmt.Errorf("mc: MaxNodes %d must be positive", o.MaxNodes)
	}
	return nil
}

// Violation is an invariant failure (or determinism failure) together with
// the shortest reference sequence that provokes it from the initial state.
type Violation struct {
	Path []Action
	Err  error
}

func (v Violation) String() string {
	steps := make([]string, len(v.Path))
	for i, a := range v.Path {
		steps[i] = a.String()
	}
	return fmt.Sprintf("after [%s]: %v", strings.Join(steps, ", "), v.Err)
}

// Result summarises one engine's reachable state graph.
type Result struct {
	// Engine is the scheme name.
	Engine string
	// Caches and Blocks echo the explored universe.
	Caches, Blocks int
	// Nodes is the number of distinct reachable states (including the
	// initial state), Edges the number of distinct state-to-state
	// transitions, and Transitions the total number of (state, action)
	// pairs explored (= Nodes × actions when not truncated).
	Nodes, Edges, Transitions int
	// Depth is the eccentricity of the initial state: the longest
	// shortest-path distance to any reachable state.
	Depth int
	// Violations lists invariant and determinism failures, each with a
	// shortest counterexample path. Empty means the engine is sound over
	// this universe.
	Violations []Violation
	// Reached lists the abstract per-block sharing configurations
	// (holder set × clean/written) observed at some reachable state,
	// sorted; Unreachable lists the rest of the abstract universe. A
	// configuration a protocol can never enter — {0,1}/written under an
	// exclusive scheme, say — is protocol semantics made visible.
	Reached, Unreachable []string
	// Truncated reports whether MaxNodes stopped the exploration early.
	Truncated bool
}

// node is one reachable state, addressed by the action path that first
// discovered it (parent chain), which BFS keeps shortest.
type node struct {
	parent int // index of the discovering node, -1 for the root
	via    int // action index taken from parent
	depth  int
	seen   uint64 // bitmask of blocks already referenced (block i → bit i-1)
}

// Explore builds engines with mk and explores their reachable state graph.
// The engine must implement coherence.Inspector.
func Explore(mk func() (coherence.Engine, error), opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}

	probe, err := mk()
	if err != nil {
		return nil, err
	}
	if _, ok := probe.(coherence.Inspector); !ok {
		return nil, fmt.Errorf("mc: engine %s does not implement coherence.Inspector", probe.Name())
	}
	if probe.Caches() < opts.Caches {
		return nil, fmt.Errorf("mc: engine %s simulates %d caches, universe needs %d",
			probe.Name(), probe.Caches(), opts.Caches)
	}

	blocks := make([]uint64, opts.Blocks)
	for i := range blocks {
		blocks[i] = uint64(i + 1)
	}
	var actions []Action
	for c := 0; c < opts.Caches; c++ {
		for _, k := range []trace.Kind{trace.Read, trace.Write} {
			for _, b := range blocks {
				actions = append(actions, Action{Cache: c, Kind: k, Block: b})
			}
		}
	}

	res := &Result{Engine: probe.Name(), Caches: opts.Caches, Blocks: opts.Blocks}

	// pathTo reconstructs the shortest action path to node i.
	nodes := []node{}
	pathTo := func(i int) []Action {
		var rev []int
		for n := i; nodes[n].parent >= 0; n = nodes[n].parent {
			rev = append(rev, nodes[n].via)
		}
		path := make([]Action, len(rev))
		for j := range rev {
			path[j] = actions[rev[len(rev)-1-j]]
		}
		return path
	}
	// replay materialises a fresh engine in the state path leads to.
	replay := func(path []Action) (coherence.Engine, error) {
		e, err := mk()
		if err != nil {
			return nil, err
		}
		var seen uint64
		for _, a := range path {
			bit := uint64(1) << (a.Block - 1)
			e.Access(a.Cache, a.Kind, a.Block, seen&bit == 0)
			seen |= bit
		}
		return e, nil
	}

	reached := map[string]bool{}
	observe := func(e coherence.Engine) {
		insp := e.(coherence.Inspector)
		for _, b := range blocks {
			holders, dirty := insp.Truth(b)
			reached[abstractState(holders, dirty)] = true
		}
	}
	key := func(e coherence.Engine, seen uint64) string {
		return fmt.Sprintf("%s|seen=%x", e.(coherence.Inspector).StateKey(blocks), seen)
	}

	root, err := replay(nil)
	if err != nil {
		return nil, err
	}
	if ierr := root.CheckInvariants(); ierr != nil {
		res.Violations = append(res.Violations, Violation{Err: ierr})
	}
	observe(root)
	index := map[string]int{key(root, 0): 0}
	nodes = append(nodes, node{parent: -1, via: -1})
	edges := map[[2]int]bool{}

	for i := 0; i < len(nodes); i++ {
		if len(nodes) >= opts.MaxNodes {
			res.Truncated = true
			break
		}
		path := pathTo(i)
		for ai, a := range actions {
			e, err := replay(path)
			if err != nil {
				return nil, err
			}
			bit := uint64(1) << (a.Block - 1)
			e.Access(a.Cache, a.Kind, a.Block, nodes[i].seen&bit == 0)
			res.Transitions++
			newSeen := nodes[i].seen | bit
			if ierr := e.CheckInvariants(); ierr != nil {
				res.Violations = append(res.Violations,
					Violation{Path: append(path, a), Err: ierr})
				continue // do not explore past a corrupted state
			}
			k := key(e, newSeen)
			j, ok := index[k]
			if !ok {
				j = len(nodes)
				index[k] = j
				nodes = append(nodes, node{parent: i, via: ai, depth: nodes[i].depth + 1, seen: newSeen})
				observe(e)
				if nodes[j].depth > res.Depth {
					res.Depth = nodes[j].depth
				}
				// Replay the new state's path on a second fresh
				// engine: the key must come out the same.
				e2, err := replay(pathTo(j))
				if err != nil {
					return nil, err
				}
				if k2 := key(e2, newSeen); k2 != k {
					res.Violations = append(res.Violations, Violation{
						Path: pathTo(j),
						Err:  fmt.Errorf("mc: nondeterministic replay: %q vs %q", k, k2),
					})
				}
			}
			edges[[2]int{i, j}] = true
		}
	}

	res.Nodes = len(nodes)
	res.Edges = len(edges)
	for s := range reached {
		res.Reached = append(res.Reached, s)
	}
	sort.Strings(res.Reached)
	for _, s := range abstractUniverse(opts.Caches) {
		if !reached[s] {
			res.Unreachable = append(res.Unreachable, s)
		}
	}
	return res, nil
}

// ExploreScheme explores the scheme built by coherence.NewByName with a
// cache count matching the universe.
func ExploreScheme(name string, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	return Explore(func() (coherence.Engine, error) {
		return coherence.NewByName(name, coherence.Config{Caches: opts.Caches})
	}, opts)
}

// abstractState renders one block's ground truth as "{0,1}/written" or
// "{0}/clean"; the empty holder set is "{}/clean".
func abstractState(holders []int, dirty bool) string {
	var b strings.Builder
	b.WriteString("{")
	for i, h := range holders {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%d", h)
	}
	b.WriteString("}")
	if dirty {
		b.WriteString("/written")
	} else {
		b.WriteString("/clean")
	}
	return b.String()
}

// abstractUniverse enumerates every syntactically possible per-block
// configuration for n caches: each holder subset clean or written, except
// that an uncached block cannot be in the written state.
func abstractUniverse(n int) []string {
	var out []string
	for mask := 0; mask < 1<<n; mask++ {
		var holders []int
		for c := 0; c < n; c++ {
			if mask&(1<<c) != 0 {
				holders = append(holders, c)
			}
		}
		out = append(out, abstractState(holders, false))
		if mask != 0 {
			out = append(out, abstractState(holders, true))
		}
	}
	sort.Strings(out)
	return out
}
