package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockCheckRule guards the hand-rolled synchronization in the module —
// the flight rings, the obs histograms, the runner pool — against the
// two silent ways Go concurrency goes wrong without a race-detector run:
//
//   - a lock copied by value (a sync.Mutex/RWMutex/WaitGroup/Once/Cond,
//     or a sync/atomic typed value, inside a value receiver, parameter,
//     result, plain copy assignment, or by-value range variable): the
//     copy guards nothing, and an atomic value forked in two stops being
//     one counter;
//   - a struct field accessed both through sync/atomic operations and
//     through plain reads/writes: the plain access races with every
//     atomic one, and the compiler will happily reorder it.
//
// go vet's copylocks covers part of the first class; this rule also
// covers the typed atomics and, via the module-wide view, mixed access
// to the same field across files and packages.
type LockCheckRule struct{}

// Name implements Rule.
func (LockCheckRule) Name() string { return "lockcheck" }

// Doc implements Rule.
func (LockCheckRule) Doc() string {
	return "lock or atomic value copied by value, or a field accessed both atomically and plainly"
}

// CheckModule implements ModuleRule.
func (LockCheckRule) CheckModule(m *Module) []Finding {
	var out []Finding
	for _, p := range m.Pkgs {
		out = append(out, lockCopies(p)...)
	}
	out = append(out, mixedAtomics(m)...)
	return out
}

// lockTypeIn returns the name of the first lock-like type contained by
// value in t ("sync.Mutex", "atomic.Uint64", …), or "". A pointer
// contains nothing by value: copying it shares the lock.
func lockTypeIn(t types.Type) string {
	return lockTypeRec(t, map[types.Type]bool{})
}

var syncLocks = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Once": true, "Cond": true, "Map": true, "Pool": true,
}

var atomicTypes = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

func lockTypeRec(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync":
				if syncLocks[obj.Name()] {
					return "sync." + obj.Name()
				}
			case "sync/atomic":
				if atomicTypes[obj.Name()] {
					return "atomic." + obj.Name()
				}
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hit := lockTypeRec(u.Field(i).Type(), seen); hit != "" {
				return hit
			}
		}
	case *types.Array:
		return lockTypeRec(u.Elem(), seen)
	case *types.Named:
		return lockTypeRec(u, seen)
	}
	return ""
}

// lockCopies flags by-value receivers, parameters, results, copies and
// range variables of lock-containing types in one package.
func lockCopies(p *Package) []Finding {
	var out []Finding
	flag := func(pos token.Pos, what, lock string) {
		out = append(out, p.findingf(pos, "lockcheck",
			"%s copies %s by value; the copy guards nothing — pass a pointer", what, lock))
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				checkFuncType(p, x.Type, x.Recv, flag)
			case *ast.FuncLit:
				checkFuncType(p, x.Type, nil, flag)
			case *ast.AssignStmt:
				for _, rhs := range x.Rhs {
					if !copiesValue(rhs) {
						continue
					}
					if t := p.Info.TypeOf(rhs); t != nil {
						if lock := lockTypeIn(t); lock != "" {
							flag(rhs.Pos(), "assignment", lock)
						}
					}
				}
			case *ast.RangeStmt:
				if x.Value == nil {
					return true
				}
				if t := p.Info.TypeOf(x.Value); t != nil {
					if lock := lockTypeIn(t); lock != "" {
						flag(x.Value.Pos(), "range variable", lock)
					}
				}
			}
			return true
		})
	}
	return out
}

// checkFuncType flags lock-containing value receivers, params and
// results of one function signature.
func checkFuncType(p *Package, ft *ast.FuncType, recv *ast.FieldList, flag func(token.Pos, string, string)) {
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			if t := p.Info.TypeOf(fld.Type); t != nil {
				if lock := lockTypeIn(t); lock != "" {
					flag(fld.Type.Pos(), what, lock)
				}
			}
		}
	}
	check(recv, "value receiver")
	check(ft.Params, "parameter")
	check(ft.Results, "result")
}

// copiesValue reports whether rhs denotes an existing value being copied
// (as opposed to a freshly constructed one).
func copiesValue(rhs ast.Expr) bool {
	switch x := rhs.(type) {
	case *ast.Ident:
		return x.Name != "nil"
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return copiesValue(x.X)
	}
	return false
}

// atomicFuncs matches the sync/atomic package-level operations that take
// an address: AddUint64, LoadInt32, StoreUint32, SwapPointer,
// CompareAndSwapUint64, ….
func isAtomicOp(name string) bool {
	for _, prefix := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// mixedAtomics finds struct fields passed by address to sync/atomic
// operations anywhere in the module, then flags every plain (non-atomic)
// read or write of those fields.
func mixedAtomics(m *Module) []Finding {
	// Pass 1: collect atomically-accessed fields, and the positions of
	// the selector expressions inside atomic calls (exempt from pass 2).
	atomicFields := map[*types.Var]string{}
	inAtomicCall := map[token.Pos]bool{}
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				path, op := pkgSel(p.Info, call.Fun)
				if path != "sync/atomic" || !isAtomicOp(op) {
					return true
				}
				for _, arg := range call.Args {
					un, ok := arg.(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					fsel, ok := un.X.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if field := fieldObject(p, fsel); field != nil {
						atomicFields[field] = op
						inAtomicCall[fsel.Sel.Pos()] = true
					}
				}
				return true
			})
		}
	}
	if len(atomicFields) == 0 {
		return nil
	}
	// Pass 2: any other selector resolving to one of those fields is a
	// plain access racing with the atomic ones.
	var out []Finding
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				fsel, ok := n.(*ast.SelectorExpr)
				if !ok || inAtomicCall[fsel.Sel.Pos()] {
					return true
				}
				field := fieldObject(p, fsel)
				if field == nil {
					return true
				}
				op, isAtomic := atomicFields[field]
				if !isAtomic {
					return true
				}
				out = append(out, p.findingf(fsel.Sel.Pos(), "lockcheck",
					fmt.Sprintf("plain access to field %s, which is accessed with atomic.%s elsewhere in the module — every access must be atomic",
						field.Name(), op)))
				return true
			})
		}
	}
	return out
}

// fieldObject resolves sel to the struct field it selects, or nil.
func fieldObject(p *Package, sel *ast.SelectorExpr) *types.Var {
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}
