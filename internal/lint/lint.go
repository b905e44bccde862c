// Package lint is a stdlib-only static-analysis framework (go/ast +
// go/types, no external dependencies) with dirsim-specific rules.
//
// The paper's methodology — measure event frequencies once, weight them
// with hardware costs — is only meaningful if every simulator run is
// deterministic and every protocol transition is sound. The rules here
// guard those properties statically, before a run, complementing the
// dynamic checks (oracle tests and internal/mc's state search):
//
//   - determinism (maporder, nondeterm, floateq): no ordered output built
//     from map iteration, no global math/rand or wall clock in internal
//     packages, no ==/!= on floats;
//   - protocol hygiene (stateswitch, ctorerr, registry): state-enum
//     switches are exhaustive, constructor errors are checked, and the
//     EngineNames/NewByName registry is closed in both directions;
//   - concurrency (gocapture, gopool, lockcheck, ctxflow): goroutines do
//     not assign to captured variables, range loops do not spawn one
//     goroutine per element, locks and atomics are never copied or mixed
//     with plain access, and goroutines in internal/cluster, runner and
//     server can be stopped;
//   - artifact and service hygiene (atomicwrite, httpserver): result
//     files go through internal/atomicio, servers bound header reads,
//     clients have deadlines, and handler goroutines carry a context;
//   - hot paths (obsring, enginepurity, mapstate): one HotPathRule walks
//     the module call graph from each rule's roots — the flight, obs and
//     otrace entry points, or every engine's per-reference methods — and
//     forbids allocation, clock reads, global rand, map iteration, spawns
//     or map[uint64] state wherever they reach.
//
// Drive it with cmd/dirsimlint or embed it: Load packages, Run rules,
// print Findings. //lint:ignore pragmas (pragma.go) are the one way to
// suppress a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at one position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding as "file:line:col: rule: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
}

// Package is one loaded, type-checked package presented to rules.
type Package struct {
	// Path is the import path, Module the module path it belongs to.
	Path, Module string
	// Root is the module root directory on disk (empty for packages
	// synthesized in tests); output formats use it to relativize
	// finding paths.
	Root  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// findingf creates a Finding at pos.
func (p *Package) findingf(pos token.Pos, rule, format string, args ...any) Finding {
	return Finding{Pos: p.Fset.Position(pos), Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// inModuleInternal reports whether the package lives under an internal/
// tree of its module (where the strict determinism rules apply).
func (p *Package) inModuleInternal() bool { return pathWithin(p.Path, p.Module+"/internal") }

// pathWithin reports whether the import path is root or lies below it.
func pathWithin(path, root string) bool {
	return path == root || strings.HasPrefix(path, root+"/")
}

// Rule is one static check: a PackageRule walks one package at a time, a
// ModuleRule receives the whole loaded module with its call graph. Every
// rule implements exactly one of the two.
type Rule interface {
	// Name is the short identifier printed with each finding.
	Name() string
	// Doc is a one-line description of what the rule catches.
	Doc() string
}

// PackageRule is a rule whose findings are derivable from one package.
type PackageRule interface {
	Rule
	// Check analyses one package.
	Check(p *Package) []Finding
}

// ModuleRule is a rule that needs cross-package facts: the module call
// graph and its per-function summaries, built once per Run.
type ModuleRule interface {
	Rule
	// CheckModule analyses the whole module.
	CheckModule(m *Module) []Finding
}

// DefaultRules returns every dirsim rule.
func DefaultRules() []Rule {
	return []Rule{
		MapOrderRule{},
		NondeterminismRule{},
		FloatEqRule{},
		StateSwitchRule{},
		CtorErrRule{},
		EngineRegistryRule{},
		GoCaptureRule{},
		GoPoolRule{},
		AtomicWriteRule{},
		HTTPServerRule{},
		ObsRing,
		EnginePurity,
		MapState,
		LockCheckRule{},
		CtxFlowRule{},
	}
}

// Run applies rules to every package and returns the findings sorted by
// position, rule, then message, so output is stable run to run. The
// module call graph is built once and shared by every ModuleRule.
func Run(pkgs []*Package, rules []Rule) []Finding {
	if rules == nil {
		rules = DefaultRules()
	}
	var mod *Module
	var out []Finding
	for _, r := range rules {
		mr, ok := r.(ModuleRule)
		if !ok {
			continue
		}
		if mod == nil {
			mod = NewModule(pkgs)
		}
		out = append(out, mr.CheckModule(mod)...)
	}
	for _, p := range pkgs {
		for _, r := range rules {
			if pr, ok := r.(PackageRule); ok {
				out = append(out, pr.Check(p)...)
			}
		}
	}
	SortFindings(out)
	return out
}

// SortFindings orders findings by position, rule, then message — the
// stable order Run emits and the driver restores after filtering.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// pkgSel resolves e when it is a package-qualified name such as
// time.Now, returning the package's import path and the name; path is ""
// for any other expression (a method, a field).
func pkgSel(info *types.Info, e ast.Expr) (path, name string) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// isFloat reports whether t's underlying type is a floating-point basic
// type (or an untyped float constant).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
