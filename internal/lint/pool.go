package lint

import (
	"go/ast"
	"go/types"
)

// GoPoolRule flags unbounded goroutine fan-out in the module's internal
// packages: a `go func(){...}()` inside a range loop whose closure uses a
// captured sync.WaitGroup spawns one goroutine per element — the bug that
// let ParallelSeedSweep launch every seed at once. The sanctioned shapes
// are a fixed worker pool (a 3-clause `for w := 0; w < workers; w++` spawn
// loop pulling work from a shared queue, as internal/sim and
// internal/runner do) or a semaphore send before each spawn.
type GoPoolRule struct{}

// Name implements Rule.
func (GoPoolRule) Name() string { return "gopool" }

// Doc implements Rule.
func (GoPoolRule) Doc() string {
	return "per-element goroutine fan-out in a range loop (use a bounded worker pool or acquire a semaphore before spawning)"
}

// Check implements Rule.
func (GoPoolRule) Check(p *Package) []Finding {
	if !p.inModuleInternal() {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			out = append(out, checkRangeSpawn(p, rs)...)
			return true
		})
	}
	return out
}

// checkRangeSpawn walks one range body in source order. A channel send
// seen before the go statement is taken as a semaphore acquire and
// silences the rule; a send inside the spawned goroutine does not bound
// the spawn rate and keeps it firing.
func checkRangeSpawn(p *Package, rs *ast.RangeStmt) []Finding {
	var out []Finding
	acquired := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.RangeStmt:
			return false // nested ranges get their own walk
		case *ast.SendStmt:
			acquired = true
		case *ast.GoStmt:
			lit, ok := s.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			if !acquired && usesCapturedWaitGroup(p.Info, lit) {
				out = append(out, p.findingf(s.Pos(), "gopool",
					"goroutine per range element with a captured WaitGroup is unbounded; use a fixed worker pool or send on a semaphore before go"))
			}
			return false // sends inside the goroutine don't bound the spawn
		}
		return true
	})
	return out
}

// usesCapturedWaitGroup reports whether lit references a sync.WaitGroup
// (or pointer to one) declared outside the literal.
func usesCapturedWaitGroup(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || !isNamedType(v.Type(), "sync", "WaitGroup") || !declaredOutside(v, lit) {
			return true
		}
		found = true
		return false
	})
	return found
}
