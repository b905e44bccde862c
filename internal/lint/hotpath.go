package lint

import (
	"fmt"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// HotPathRule forbids behaviours on a hot path. It walks the module call
// graph from a set of roots and reports each forbidden fact (callgraph.go)
// recorded in a reachable function. The three hot-path rules differ only
// in their table entry:
//
//   - obsring: the observability entry points must not allocate;
//   - enginepurity: an engine's per-reference path must be deterministic
//     and free of per-call allocation;
//   - mapstate: an engine's per-reference path must not touch
//     map[uint64]-keyed state fields.
type HotPathRule struct {
	id, doc string
	// roots selects the entry points, in the order the rule walks them.
	roots func(m *Module) []HotRoot
	// message turns a fact found in function fn, reached from root, into
	// the finding's message. It returns "" for every fact the rule admits.
	message func(f Fact, fn string, root HotRoot) string
	// key identifies what one finding is about. Roots share helpers, so
	// each key is reported once, under the first root that reaches it.
	key func(f Fact) any
}

// HotRoot is one hot-path entry point.
type HotRoot struct {
	// Owner is the concrete type whose method Fn is (an engine root), or
	// the module-relative package declaring Fn.
	Owner string
	Fn    *types.Func
}

// String names the root in findings: "Dragon's Access".
func (r HotRoot) String() string { return r.Owner + "'s " + r.Fn.Name() }

// Name implements Rule.
func (r HotPathRule) Name() string { return r.id }

// Doc implements Rule.
func (r HotPathRule) Doc() string { return r.doc }

// Roots lists the rule's entry points in m, in the order it walks them.
func (r HotPathRule) Roots(m *Module) []HotRoot { return r.roots(m) }

// CheckModule implements ModuleRule.
func (r HotPathRule) CheckModule(m *Module) []Finding {
	seen := map[any]bool{}
	var out []Finding
	for _, root := range r.roots(m) {
		for _, fi := range m.Reachable(root.Fn) {
			for _, f := range fi.Facts {
				msg := r.message(f, fi.Decl.Name.Name, root)
				if msg == "" || seen[r.key(f)] {
					continue
				}
				seen[r.key(f)] = true
				out = append(out, Finding{Pos: fi.Pkg.Fset.Position(f.Pos), Rule: r.id, Msg: msg})
			}
		}
	}
	return out
}

// factPos keys a finding by the position of its fact.
func factPos(f Fact) any { return f.Pos }

// ObsRing flags allocation on the observability hot path: the per-event
// entry points in internal/flight, internal/obs and internal/otrace, and
// every module function reachable from them. Tracing a run costs one
// store per event, a histogram observation three atomic adds, and a
// fabric span two clock reads and a ring store. An allocation on that
// path adds a heap object to every simulated reference. DESIGN.md §7
// gives the measured cost of tracing a run (flight.overhead_frac in the
// benchmark of record).
//
// Unlike the engine hot path, the observability path has no growth
// phase: rings and histogram buckets are fully preallocated, so it admits
// no allocation at all, amortized or not.
var ObsRing = HotPathRule{
	id:  "obsring",
	doc: "allocation inside flight.Emit/obs.Observe/otrace span hot paths (rings and histograms must record without allocating)",
	roots: declaredIn(map[string][]string{
		"internal/flight": {"Emit"},
		"internal/obs":    {"Observe", "ObserveN"},
		"internal/otrace": {"Start", "Finish"},
	}),
	message: func(f Fact, fn string, _ HotRoot) string {
		if f.Kind != FactAlloc && f.Kind != FactAmortizedAlloc {
			return ""
		}
		return fmt.Sprintf("%s allocates inside %s, which is reachable from the flight/obs hot path — preallocate during setup", f.What, fn)
	},
	key: factPos,
}

// EnginePurity guards each engine's per-reference path, the one the
// paper's frequency-times-cost method beats on, and the precondition for
// trusting sampled runs. Every function reachable from an engine root
// must be
//
//   - free of per-call allocation;
//   - clock-free and global-rand-free (bit-reproducible runs);
//   - free of map iteration (order must never influence the bus
//     operation stream);
//   - free of goroutine spawns and of calls through function values the
//     graph cannot analyse.
//
// It admits amortized allocation: a first-touch insert or a scratch
// buffer reaching its steady-state capacity costs nothing per reference.
// Dynamic dispatch inside the path (directory.Store) resolves to every
// module implementation, so one allocating store organisation fails the
// rule for every engine that can reach it.
var EnginePurity = HotPathRule{
	id:    "enginepurity",
	doc:   "per-call allocation, wall clock, global rand or map iteration reachable from an engine's per-reference hot path",
	roots: engineRoots,
	message: func(f Fact, fn string, root HotRoot) string {
		var what string
		switch f.Kind {
		case FactAlloc:
			what = f.What + " allocates on every call"
		case FactClock:
			what = f.What + " reads the wall clock"
		case FactGlobalRand:
			what = f.What + " draws from the process-global rand source"
		case FactMapRange:
			what = "map iteration order can influence results"
		case FactGoSpawn:
			what = "goroutine spawned on the hot path"
		case FactDynamicCall:
			what = f.What + " cannot be analysed"
		default:
			return ""
		}
		return fmt.Sprintf("%s inside %s, on %s hot path — the per-reference path must be deterministic and allocation-free", what, fn, root)
	},
	key: factPos,
}

// MapState guards the data-oriented engine core (DESIGN.md §9). Per-block
// protocol state lives in dense arrays indexed by interned block ids, and
// no engine hot path may grow a map[uint64]-keyed state field back: the
// decode stage already paid for the one hash probe per reference. Locals
// and parameters are exempt, since a map built inside one call is not
// per-block state, and so is everything off the hot path (construction,
// reporting, invariant checks). Each field is reported once.
var MapState = HotPathRule{
	id:    "mapstate",
	doc:   "map[uint64]-keyed state field reachable from an engine's per-reference hot path; index per-block state by interned block id instead",
	roots: engineRoots,
	message: func(f Fact, fn string, root HotRoot) string {
		if f.Kind != FactMapField {
			return ""
		}
		return fmt.Sprintf("field %s is map[uint64]-keyed state touched by %s, on %s hot path — index per-block state by interned blockid.ID (struct-of-arrays), the decode stage already paid the one hash probe", f.What, fn, root)
	},
	key: func(f Fact) any { return f.Obj },
}

// engineRoots are the per-reference entry points of every protocol
// engine: each listed method, on every module type implementing the
// interface that declares it.
var engineRoots = implementers("internal/coherence",
	"Engine.Access",
	"IndexedEngine.AccessID",
	"IndexedEngine.AccessInstrs",
)

// declaredIn selects, in each module-relative package, the functions and
// methods declared under one of the given names, in source order.
func declaredIn(names map[string][]string) func(*Module) []HotRoot {
	return func(m *Module) []HotRoot {
		var out []HotRoot
		for _, fi := range m.Funcs() {
			rel := strings.TrimPrefix(fi.Pkg.Path, fi.Pkg.Module+"/")
			if slices.Contains(names[rel], fi.Decl.Name.Name) {
				out = append(out, HotRoot{Owner: rel, Fn: fi.Fn})
			}
		}
		return out
	}
}

// implementers selects interface methods, written "Iface.Method" for an
// interface declared in the module-relative package rel, on every module
// type implementing them. Roots are ordered by type name, then by the
// order of methods.
func implementers(rel string, methods ...string) func(*Module) []HotRoot {
	return func(m *Module) []HotRoot {
		p := m.Package(rel)
		if p == nil {
			return nil
		}
		var out []HotRoot
		for _, im := range methods {
			iface, name, _ := strings.Cut(im, ".")
			tn, ok := p.Pkg.Scope().Lookup(iface).(*types.TypeName)
			if !ok {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(tn.Type(), false, p.Pkg, name)
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			for _, impl := range m.implementations(fn) {
				out = append(out, HotRoot{Owner: impl.typ.Obj().Name(), Fn: impl.fn})
			}
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
		return out
	}
}
