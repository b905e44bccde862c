package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The determinism rules guard the repeatability the paper's methodology
// rests on: equal inputs must give byte-identical reports. The three
// common ways Go code loses that property are map iteration order,
// process-global randomness and wall-clock time, and exact comparison of
// floating-point accumulations.

// MapOrderRule flags map iterations whose bodies feed order-sensitive
// sinks: fmt printing (output order would follow map order) or appends to
// a slice that the enclosing function never sorts.
type MapOrderRule struct{}

// Name implements Rule.
func (MapOrderRule) Name() string { return "maporder" }

// Doc implements Rule.
func (MapOrderRule) Doc() string {
	return "map iteration feeding ordered output (printing, or append without a later sort)"
}

// Check implements Rule.
func (MapOrderRule) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		forEachFunc(f, func(fn ast.Node, body *ast.BlockStmt) {
			sorted := sortedIdents(p.Info, body)
			ast.Inspect(body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isMapRange(p.Info, rs) {
					return true
				}
				ast.Inspect(rs.Body, func(m ast.Node) bool {
					switch s := m.(type) {
					case *ast.CallExpr:
						if isFmtPrint(p.Info, s) {
							out = append(out, p.findingf(s.Pos(), "maporder",
								"printing inside map iteration follows map order; iterate sorted keys instead"))
						}
					case *ast.AssignStmt:
						if id := appendTarget(p.Info, s); id != nil && !sorted[p.Info.Uses[id]] {
							out = append(out, p.findingf(s.Pos(), "maporder",
								"append to %s inside map iteration without a later sort; sort %s (or the keys) before use",
								id.Name, id.Name))
						}
					}
					return true
				})
				return true
			})
		})
	}
	return out
}

// forEachFunc calls fn for every function body in the file (declarations
// and literals), outermost first.
func forEachFunc(f *ast.File, fn func(node ast.Node, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d, d.Body)
			}
		case *ast.FuncLit:
			fn(d, d.Body)
		}
		return true
	})
}

// isMapRange reports whether rs ranges over a map value.
func isMapRange(info *types.Info, rs *ast.RangeStmt) bool {
	tv, ok := info.Types[rs.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isFmtPrint reports whether call is one of fmt's printing functions.
func isFmtPrint(info *types.Info, call *ast.CallExpr) bool {
	if path, name := pkgSel(info, call.Fun); path == "fmt" {
		switch name {
		case "Print", "Printf", "Println",
			"Fprint", "Fprintf", "Fprintln",
			"Sprint", "Sprintf", "Sprintln":
			return true
		}
	}
	return false
}

// appendTarget returns the identifier x in `x = append(x, ...)`, or nil.
func appendTarget(info *types.Info, as *ast.AssignStmt) *ast.Ident {
	if as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return nil
	}
	if _, isBuiltin := info.Uses[fun].(*types.Builtin); !isBuiltin {
		return nil
	}
	return id
}

// sortedIdents collects objects passed to sort.* or slices.* calls
// anywhere in body — slices the function does put in a defined order.
func sortedIdents(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, _ := pkgSel(info, call.Fun); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// NondeterminismRule flags process-global randomness and wall-clock reads
// in the module's internal packages, where every source of variation must
// be an explicit, seeded input.
type NondeterminismRule struct{}

// Name implements Rule.
func (NondeterminismRule) Name() string { return "nondeterm" }

// Doc implements Rule.
func (NondeterminismRule) Doc() string {
	return "global math/rand or wall-clock time in internal packages"
}

// randConstructors are the math/rand functions that build an explicit,
// seedable source — the sanctioned way to use the package.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// clockCalls maps the package time functions that touch the wall clock
// to whether they read it: a read returns a value that differs run to
// run, a wait (Sleep, Tick) only stalls on it.
var clockCalls = map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": false, "Tick": false}

// clockOrRand classifies a call of a package-level time or math/rand
// function: FactClock for a wall-clock read or wait, FactGlobalRand for a
// draw from the process-global source. name is the called function; ok
// is false for every other call, the seeded rand constructors included.
// NondeterminismRule and the call-graph summaries share it.
func clockOrRand(info *types.Info, call *ast.CallExpr) (kind FactKind, name string, ok bool) {
	path, name := pkgSel(info, call.Fun)
	switch path {
	case "time":
		_, ok = clockCalls[name]
		return FactClock, name, ok
	case "math/rand", "math/rand/v2":
		return FactGlobalRand, name, !randConstructors[name]
	}
	return 0, "", false
}

// Check implements Rule.
func (NondeterminismRule) Check(p *Package) []Finding {
	if !p.inModuleInternal() {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch kind, name, ok := clockOrRand(p.Info, call); {
			case ok && kind == FactGlobalRand:
				out = append(out, p.findingf(call.Pos(), "nondeterm",
					"rand.%s draws from the process-global source; thread a seeded *rand.Rand instead", name))
			case ok && clockCalls[name]:
				out = append(out, p.findingf(call.Pos(), "nondeterm",
					"time.%s reads the wall clock; simulator results must not depend on it", name))
			}
			return true
		})
	}
	return out
}

// FloatEqRule flags == and != between floating-point operands. Event
// counts weighted by float costs accumulate rounding error, so exact
// comparison is either wrong or, when a float is used as a sentinel, a
// sign the value should be restructured (use a bool or an integer).
type FloatEqRule struct{}

// Name implements Rule.
func (FloatEqRule) Name() string { return "floateq" }

// Doc implements Rule.
func (FloatEqRule) Doc() string { return "== or != on floating-point values" }

// Check implements Rule.
func (FloatEqRule) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			xt, xok := p.Info.Types[be.X]
			yt, yok := p.Info.Types[be.Y]
			if (xok && isFloat(xt.Type)) || (yok && isFloat(yt.Type)) {
				out = append(out, p.findingf(be.OpPos, "floateq",
					"%s on floating-point values; compare with a tolerance or use a non-float representation", be.Op))
			}
			return true
		})
	}
	return out
}
