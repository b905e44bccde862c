package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// The protocol-hygiene rules guard the coherence machinery itself: the
// state machines must handle every enum value, constructors that validate
// configuration must not have their errors dropped, and the scheme
// registry must stay closed — every advertised name constructible, every
// constructible canonical name advertised.

// StateSwitchRule flags switches over module-defined enum types (named
// integer types ending in "State" or "Kind") that have no default clause
// and do not cover every declared constant of the type. A protocol
// transition function that silently ignores a state is a latent
// coherence bug.
type StateSwitchRule struct{}

// Name implements Rule.
func (StateSwitchRule) Name() string { return "stateswitch" }

// Doc implements Rule.
func (StateSwitchRule) Doc() string {
	return "non-exhaustive switch over a *State/*Kind enum without a default clause"
}

// Check implements Rule.
func (StateSwitchRule) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			named := enumType(p, sw.Tag)
			if named == nil {
				return true
			}
			covered := map[string]bool{}
			hasDefault := false
			for _, s := range sw.Body.List {
				cc := s.(*ast.CaseClause)
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, e := range cc.List {
					if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
						covered[tv.Value.String()] = true
					}
				}
			}
			if hasDefault {
				return true
			}
			var missing []string
			for _, c := range enumConsts(named) {
				if !covered[c.Val().String()] {
					missing = append(missing, c.Name())
				}
			}
			if len(missing) > 0 {
				sort.Strings(missing)
				out = append(out, p.findingf(sw.Pos(), "stateswitch",
					"switch on %s has no default and misses %s",
					named.Obj().Name(), strings.Join(missing, ", ")))
			}
			return true
		})
	}
	return out
}

// enumType returns the named enum type of a switch tag if it is a
// module-defined integer type whose name ends in State or Kind.
func enumType(p *Package, tag ast.Expr) *types.Named {
	tv, ok := p.Info.Types[tag]
	if !ok {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !pathWithin(obj.Pkg().Path(), p.Module) {
		return nil
	}
	name := obj.Name()
	if !strings.HasSuffix(name, "State") && !strings.HasSuffix(name, "Kind") {
		return nil
	}
	b, ok := named.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return nil
	}
	return named
}

// enumConsts returns the package-level constants of type named, one per
// distinct value (aliases collapse), in declaration-name order.
func enumConsts(named *types.Named) []*types.Const {
	scope := named.Obj().Pkg().Scope()
	seen := map[string]bool{}
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if v := c.Val().String(); !seen[v] {
			seen[v] = true
			out = append(out, c)
		}
	}
	return out
}

// CtorErrRule flags calls to module constructors — functions named New*
// returning an error — whose error result is dropped, either by using the
// call as a statement or by assigning the error to the blank identifier.
// Constructors validate protocol configuration; a dropped error means a
// simulation silently runs with a nil or half-built engine.
type CtorErrRule struct{}

// Name implements Rule.
func (CtorErrRule) Name() string { return "ctorerr" }

// Doc implements Rule.
func (CtorErrRule) Doc() string { return "error result of a module New* constructor dropped" }

// Check implements Rule.
func (CtorErrRule) Check(p *Package) []Finding {
	var out []Finding
	drop := func(call *ast.CallExpr, how string) {
		if fn := moduleCtor(p, call); fn != nil {
			out = append(out, p.findingf(call.Pos(), "ctorerr",
				"error result of %s.%s %s", fn.Pkg().Name(), fn.Name(), how))
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					drop(call, "discarded (call used as a statement)")
				}
			case *ast.GoStmt:
				drop(s.Call, "discarded (go statement)")
			case *ast.DeferStmt:
				drop(s.Call, "discarded (defer statement)")
			case *ast.AssignStmt:
				if len(s.Rhs) != 1 {
					return true
				}
				call, ok := s.Rhs[0].(*ast.CallExpr)
				if !ok || len(s.Lhs) < 2 {
					return true
				}
				if id, ok := s.Lhs[len(s.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
					drop(call, "assigned to the blank identifier")
				}
			}
			return true
		})
	}
	return out
}

// moduleCtor returns the called function if it is a module-level New*
// function whose last result is error.
func moduleCtor(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || !pathWithin(fn.Pkg().Path(), p.Module) {
		return nil
	}
	if !strings.HasPrefix(fn.Name(), "New") {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || sig.Results().Len() == 0 {
		return nil
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !types.Identical(last, types.Universe.Lookup("error").Type()) {
		return nil
	}
	return fn
}

// EngineRegistryRule checks the scheme registry in the package that
// defines both EngineNames and NewByName (internal/coherence): every name
// EngineNames advertises must be constructible — a case literal in
// NewByName or an instance of the parametric dir<i>nb / dir<i>b /
// competitive<k> families — and the canonical (first) literal of every
// NewByName case must be advertised by EngineNames. Together the two
// directions keep the studies, the CLI and the tests seeing the same set
// of schemes.
type EngineRegistryRule struct{}

// Name implements Rule.
func (EngineRegistryRule) Name() string { return "registry" }

// Doc implements Rule.
func (EngineRegistryRule) Doc() string {
	return "EngineNames and NewByName must advertise exactly the same schemes"
}

// Check implements Rule.
func (EngineRegistryRule) Check(p *Package) []Finding {
	var namesFn, byNameFn *ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			switch fd.Name.Name {
			case "EngineNames":
				namesFn = fd
			case "NewByName":
				byNameFn = fd
			}
		}
	}
	if namesFn == nil || byNameFn == nil || namesFn.Body == nil || byNameFn.Body == nil {
		return nil
	}

	advertised := stringLits(namesFn.Body)
	caseLits := map[string]bool{}
	var caseFirst []*ast.BasicLit
	ast.Inspect(byNameFn.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for i, e := range cc.List {
			lit, ok := e.(*ast.BasicLit)
			if !ok {
				continue
			}
			v, err := strconv.Unquote(lit.Value)
			if err != nil {
				continue
			}
			caseLits[v] = true
			if i == 0 {
				caseFirst = append(caseFirst, lit)
			}
		}
		return true
	})

	advertisedSet := map[string]bool{}
	var out []Finding
	for _, lit := range advertised {
		v, err := strconv.Unquote(lit.Value)
		if err != nil {
			continue
		}
		advertisedSet[v] = true
		if !caseLits[v] && !parametricScheme(v) {
			out = append(out, p.findingf(lit.Pos(), "registry",
				"EngineNames advertises %q but NewByName cannot construct it", v))
		}
	}
	for _, lit := range caseFirst {
		v, _ := strconv.Unquote(lit.Value)
		if !advertisedSet[v] {
			out = append(out, p.findingf(lit.Pos(), "registry",
				"NewByName constructs %q but EngineNames does not advertise it", v))
		}
	}
	return out
}

// stringLits collects the string literals in a node, in source order.
func stringLits(n ast.Node) []*ast.BasicLit {
	var out []*ast.BasicLit
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			out = append(out, lit)
		}
		return true
	})
	return out
}

// parametricScheme reports whether name belongs to one of NewByName's
// prefix-parsed families: dir<i>nb, dir<i>b (i ≥ 0 pointers) or
// competitive<k> (k ≥ 1 threshold).
func parametricScheme(name string) bool {
	if rest, ok := strings.CutPrefix(name, "dir"); ok {
		if mid, ok := strings.CutSuffix(rest, "nb"); ok && allDigits(mid) {
			return true
		}
		if mid, ok := strings.CutSuffix(rest, "b"); ok && allDigits(mid) {
			return true
		}
	}
	if rest, ok := strings.CutPrefix(name, "competitive"); ok {
		return allDigits(rest)
	}
	return false
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
