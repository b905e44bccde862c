package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the whole-module analysis core: one call graph over every
// loaded package, with a behavioural summary per function. Run builds the
// Module once and hands it to every rule, so a rule that needs "does
// anything reachable from X allocate / read the clock / iterate a map?"
// asks the graph instead of re-walking ASTs.
//
// The summaries record facts, each anchored to the position that proves
// it:
//
//   - allocation (make, new, append, slice/map literals, &composite
//     literals, closures), split into unconditional per-call allocation
//     and amortized allocation behind a growth or first-touch guard —
//     a len/cap comparison, a nil check, or a map-lookup miss test —
//     which is zero in steady state;
//   - wall-clock reads (time.Now/Since/Until) and sleeps;
//   - process-global randomness (math/rand outside the seeded
//     constructors);
//   - map iteration (range over a map — order is nondeterministic);
//   - selectors of map[uint64]-keyed struct fields (address-keyed
//     per-block state);
//   - goroutine spawns, with what the spawned subtree can observe
//     (a context, a channel, a WaitGroup);
//   - calls through function values the graph cannot resolve;
//   - whether the function accepts and observes a context.Context.
//
// Call edges cover direct calls, method calls, references to module
// functions passed as values, and dynamic dispatch through interfaces
// declared in the module (an interface-method call adds an edge to every
// module implementation). Dispatch through interfaces declared outside
// the module (io.Writer and friends) and calls of plain function values
// are not resolved; the latter are recorded as FactDynamicCall so strict
// rules can refuse them.

// FactKind classifies one behaviour recorded in a function summary.
type FactKind uint8

const (
	// FactAlloc is an allocation executed on every call.
	FactAlloc FactKind = iota
	// FactAmortizedAlloc is an allocation behind a growth or first-touch
	// guard: it amortizes to zero on a steady-state hot path.
	FactAmortizedAlloc
	// FactClock is a wall-clock read or sleep.
	FactClock
	// FactGlobalRand is a draw from the process-global rand source.
	FactGlobalRand
	// FactMapRange is a range over a map.
	FactMapRange
	// FactGoSpawn is a go statement.
	FactGoSpawn
	// FactDynamicCall is a call through a function value the graph cannot
	// resolve to a declaration.
	FactDynamicCall
	// FactMapField is a selector of a struct field whose type is
	// map[uint64]V: address-keyed state.
	FactMapField
)

// Fact is one recorded behaviour, anchored at the position proving it.
type Fact struct {
	Kind FactKind
	Pos  token.Pos
	// What is a short human description: "append", "&composite literal",
	// "time.Now", … For a FactMapField it is the field's name.
	What string
	// Obj is the object the fact is about, when there is one: the field
	// of a FactMapField.
	Obj types.Object
}

// Spawn describes one go statement and what the spawned call subtree can
// observe, for lifecycle rules.
type Spawn struct {
	Pos token.Pos
	// SeesContext reports whether any expression in the spawned call
	// (including a func literal's body) has type context.Context.
	SeesContext bool
	// SeesChannel reports whether the subtree contains a channel
	// operation or channel-typed expression (close/receive/range bound
	// the goroutine's lifetime to the channel).
	SeesChannel bool
	// SeesWaitGroup reports whether the subtree references a
	// sync.WaitGroup (the wait-then-signal adapter idiom).
	SeesWaitGroup bool
	// Callees are the functions statically referenced in the spawned
	// subtree, for transitive lifecycle queries (Reachable skips those
	// declared outside the module).
	Callees []*types.Func
}

// FuncInfo is the per-function summary node of the module call graph.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Facts are the behaviours observed directly in this function's body
	// (including bodies of func literals declared inside it).
	Facts []Fact
	// Callees are module functions this body can invoke: direct calls,
	// references passed as values, and every module implementation of a
	// module-declared interface method called here.
	Callees []*types.Func
	// Spawns describes each go statement in the body.
	Spawns []Spawn
	// AcceptsContext reports whether the signature has a context.Context
	// parameter.
	AcceptsContext bool
	// ObservesContext reports whether the body uses any context-typed
	// expression (passing one on counts: cancellation is delegated).
	ObservesContext bool
	// RangesOverChannel reports whether the body ranges over or receives
	// from a channel (its lifetime is bounded by channel close).
	RangesOverChannel bool
}

// Module is every loaded package plus the whole-module call graph. Rules
// that need cross-package facts implement ModuleRule and receive one.
type Module struct {
	Pkgs   []*Package
	byPath map[string]*Package
	funcs  map[*types.Func]*FuncInfo
	// implCache memoizes interface-method → module-implementation
	// resolution.
	implCache map[*types.Func][]implementation
	// named is every non-interface named type declared in the module, in
	// a deterministic order.
	named []*types.Named
}

// NewModule indexes pkgs and builds the call graph with per-function
// summaries. It is deterministic: the same packages produce the same
// graph, edge order included.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:      pkgs,
		byPath:    map[string]*Package{},
		funcs:     map[*types.Func]*FuncInfo{},
		implCache: map[*types.Func][]implementation{},
	}
	for _, p := range pkgs {
		m.byPath[p.Path] = p
	}
	m.collectNamed()
	// Index every declared function first, so summaries can resolve edges
	// to any of them regardless of declaration order.
	var infos []*FuncInfo
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					m.funcs[obj] = &FuncInfo{Fn: obj, Decl: fd, Pkg: p}
					infos = append(infos, m.funcs[obj])
				}
			}
		}
	}
	for _, info := range infos {
		m.summarize(info)
	}
	return m
}

// Package returns the loaded package with the given module-relative path
// ("internal/lint"), or nil.
func (m *Module) Package(rel string) *Package {
	if len(m.Pkgs) == 0 {
		return nil
	}
	return m.byPath[m.Pkgs[0].Module+"/"+rel]
}

// Funcs returns every summary, sorted by source position — the
// deterministic iteration order for rules.
func (m *Module) Funcs() []*FuncInfo {
	out := make([]*FuncInfo, 0, len(m.funcs))
	for _, fi := range m.funcs {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool {
		pi := out[i].Pkg.Fset.Position(out[i].Decl.Pos())
		pj := out[j].Pkg.Fset.Position(out[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	return out
}

// Reachable returns the summaries of every function reachable from roots
// (roots included, when declared in the module), in deterministic
// breadth-first order.
func (m *Module) Reachable(roots ...*types.Func) []*FuncInfo {
	seen := map[*types.Func]bool{}
	var queue, order []*types.Func
	for _, r := range roots {
		if r != nil && !seen[r] && m.funcs[r] != nil {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		order = append(order, fn)
		for _, c := range m.funcs[fn].Callees {
			if !seen[c] && m.funcs[c] != nil {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	out := make([]*FuncInfo, len(order))
	for i, fn := range order {
		out[i] = m.funcs[fn]
	}
	return out
}

// collectNamed gathers every non-interface named type declared in the
// module, in package-path then name order.
func (m *Module) collectNamed() {
	for _, p := range m.Pkgs {
		scope := p.Pkg.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			m.named = append(m.named, named)
		}
	}
}

// implementation is one module type's method standing behind an
// interface method.
type implementation struct {
	typ *types.Named
	fn  *types.Func
}

// implementations resolves a module-declared interface method to every
// module type, and the method, that can stand behind it. A promoted
// method appears once per type that promotes it.
func (m *Module) implementations(ifaceMethod *types.Func) []implementation {
	if impls, ok := m.implCache[ifaceMethod]; ok {
		return impls
	}
	var impls []implementation
	sig, _ := ifaceMethod.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		m.implCache[ifaceMethod] = nil
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		m.implCache[ifaceMethod] = nil
		return nil
	}
	for _, named := range m.named {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(named, true, ifaceMethod.Pkg(), ifaceMethod.Name())
		if fn, ok := obj.(*types.Func); ok && m.funcs[fn] != nil {
			impls = append(impls, implementation{named, fn})
		}
	}
	m.implCache[ifaceMethod] = impls
	return impls
}

// summarize fills in one function's facts, edges and context/lifecycle
// properties.
func (m *Module) summarize(info *FuncInfo) {
	p := info.Pkg
	if sig, ok := info.Fn.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			if isNamedType(sig.Params().At(i).Type(), "context", "Context") {
				info.AcceptsContext = true
			}
		}
	}
	w := &factWalker{m: m, p: p, info: info, seenEdge: map[*types.Func]bool{}}
	w.walkStmt(info.Decl.Body, false)
}

// factWalker traverses one function body, tracking whether the current
// node sits behind an amortization guard.
type factWalker struct {
	m        *Module
	p        *Package
	info     *FuncInfo
	seenEdge map[*types.Func]bool
}

func (w *factWalker) fact(kind FactKind, pos token.Pos, what string) {
	w.info.Facts = append(w.info.Facts, Fact{Kind: kind, Pos: pos, What: what})
}

// edge records a callee, deduplicating while preserving first-seen
// (source) order.
func (w *factWalker) edge(fn *types.Func) {
	if fn == nil || w.seenEdge[fn] {
		return
	}
	w.seenEdge[fn] = true
	w.info.Callees = append(w.info.Callees, fn)
}

// walkStmt walks a statement. guarded reports whether execution of s is
// conditional on an amortization guard.
func (w *factWalker) walkStmt(s ast.Stmt, guarded bool) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		// A guard that terminates (if cap-ok { return }) protects the
		// rest of its block: the classic grow-then-use shape.
		rest := guarded
		for _, inner := range st.List {
			w.walkStmt(inner, rest)
			if ifs, ok := inner.(*ast.IfStmt); ok && w.isAmortGuard(ifs.Cond, ifs.Init) && terminates(ifs.Body) {
				rest = true
			}
		}
	case *ast.IfStmt:
		w.walkStmt(st.Init, guarded)
		w.walkExpr(st.Cond, guarded)
		inner := guarded || w.isAmortGuard(st.Cond, st.Init)
		w.walkStmt(st.Body, inner)
		w.walkStmt(st.Else, inner)
	case *ast.ForStmt:
		w.walkStmt(st.Init, guarded)
		w.walkExpr(st.Cond, guarded)
		w.walkStmt(st.Post, guarded)
		w.walkStmt(st.Body, guarded || w.isAmortGuard(st.Cond, st.Init))
	case *ast.RangeStmt:
		if tv, ok := w.p.Info.Types[st.X]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				w.fact(FactMapRange, st.Pos(), "range over map")
			case *types.Chan:
				w.info.RangesOverChannel = true
			}
		}
		w.walkExpr(st.X, guarded)
		w.walkStmt(st.Body, guarded)
	case *ast.GoStmt:
		w.fact(FactGoSpawn, st.Pos(), "go statement")
		w.info.Spawns = append(w.info.Spawns, scanSpawn(w.p.Info, st))
		w.walkExpr(st.Call, guarded)
	case *ast.ExprStmt:
		w.walkExpr(st.X, guarded)
	case *ast.AssignStmt:
		for _, e := range st.Lhs {
			w.walkExpr(e, guarded)
		}
		for _, e := range st.Rhs {
			w.walkExpr(e, guarded)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.walkExpr(e, guarded)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, guarded)
					}
				}
			}
		}
	case *ast.DeferStmt:
		w.walkExpr(st.Call, guarded)
	case *ast.SendStmt:
		w.walkExpr(st.Chan, guarded)
		w.walkExpr(st.Value, guarded)
	case *ast.IncDecStmt:
		w.walkExpr(st.X, guarded)
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt, guarded)
	case *ast.SwitchStmt:
		w.walkStmt(st.Init, guarded)
		w.walkExpr(st.Tag, guarded)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.walkExpr(e, guarded)
			}
			for _, inner := range cc.Body {
				w.walkStmt(inner, guarded)
			}
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(st.Init, guarded)
		w.walkStmt(st.Assign, guarded)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, inner := range cc.Body {
				w.walkStmt(inner, guarded)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			w.info.RangesOverChannel = true
			w.walkStmt(cc.Comm, guarded)
			for _, inner := range cc.Body {
				w.walkStmt(inner, guarded)
			}
		}
	}
}

// walkExpr walks an expression, recording allocation, clock, rand and
// call facts.
func (w *factWalker) walkExpr(e ast.Expr, guarded bool) {
	switch ex := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(ex, guarded)
	case *ast.CompositeLit:
		if tv, ok := w.p.Info.Types[ast.Expr(ex)]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				w.allocFact(ex.Pos(), "slice literal", guarded)
			case *types.Map:
				w.allocFact(ex.Pos(), "map literal", guarded)
			}
		}
		for _, el := range ex.Elts {
			w.walkExpr(el, guarded)
		}
	case *ast.UnaryExpr:
		if _, ok := ex.X.(*ast.CompositeLit); ok && ex.Op == token.AND {
			w.allocFact(ex.Pos(), "&composite literal", guarded)
		}
		if ex.Op == token.ARROW {
			w.info.RangesOverChannel = true
		}
		w.walkExpr(ex.X, guarded)
	case *ast.FuncLit:
		w.allocFact(ex.Pos(), "closure", guarded)
		// The literal's body belongs to this summary: a closure run on
		// the hot path contributes its facts here, and one passed to
		// `go` is scanned for lifecycle facts by spawn().
		w.walkStmt(ex.Body, guarded)
	case *ast.Ident:
		w.identUse(ex)
	case *ast.SelectorExpr:
		if field := fieldObject(w.p, ex); field != nil && uint64KeyedMap(field.Type()) {
			w.info.Facts = append(w.info.Facts, Fact{Kind: FactMapField, Pos: ex.Sel.Pos(), What: field.Name(), Obj: field})
		}
		w.walkExpr(ex.X, guarded)
		w.identUse(ex.Sel)
	case *ast.BinaryExpr:
		w.walkExpr(ex.X, guarded)
		w.walkExpr(ex.Y, guarded)
	case *ast.ParenExpr:
		w.walkExpr(ex.X, guarded)
	case *ast.StarExpr:
		w.walkExpr(ex.X, guarded)
	case *ast.IndexExpr:
		w.walkExpr(ex.X, guarded)
		w.walkExpr(ex.Index, guarded)
	case *ast.SliceExpr:
		w.walkExpr(ex.X, guarded)
		w.walkExpr(ex.Low, guarded)
		w.walkExpr(ex.High, guarded)
		w.walkExpr(ex.Max, guarded)
	case *ast.TypeAssertExpr:
		w.walkExpr(ex.X, guarded)
	case *ast.KeyValueExpr:
		w.walkExpr(ex.Key, guarded)
		w.walkExpr(ex.Value, guarded)
	}
	if exp, ok := e.(ast.Expr); ok && exp != nil {
		if t := w.p.Info.TypeOf(exp); t != nil && isNamedType(t, "context", "Context") {
			w.info.ObservesContext = true
		}
	}
}

// identUse records an edge when id names a module function (called or
// referenced as a value).
func (w *factWalker) identUse(id *ast.Ident) {
	fn, ok := w.p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if w.m.funcs[fn] != nil {
		w.edge(fn)
		return
	}
	// A module-declared interface method: resolve to implementations.
	if pathWithin(fn.Pkg().Path(), w.p.Module) {
		for _, impl := range w.m.implementations(fn) {
			w.edge(impl.fn)
		}
	}
}

// call records allocation/clock/rand facts and edges for one call.
func (w *factWalker) call(call *ast.CallExpr, guarded bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := w.p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				w.allocFact(call.Pos(), b.Name(), guarded)
			case "append":
				w.appendFact(call, guarded)
			}
			for _, a := range call.Args {
				w.walkExpr(a, guarded)
			}
			return
		}
	}
	// Conversions are not calls.
	if tv, ok := w.p.Info.Types[call.Fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			w.walkExpr(a, guarded)
		}
		return
	}
	if kind, name, ok := clockOrRand(w.p.Info, call); ok {
		prefix := "time."
		if kind == FactGlobalRand {
			prefix = "rand."
		}
		w.fact(kind, call.Pos(), prefix+name)
	}
	// A call whose Fun resolves to no function object is dynamic: a
	// func-typed variable, field or parameter the graph cannot follow.
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, ok := w.p.Info.Uses[fun].(*types.Func); !ok {
			if v, isVar := w.p.Info.Uses[fun].(*types.Var); isVar {
				if _, isFn := v.Type().Underlying().(*types.Signature); isFn {
					w.fact(FactDynamicCall, call.Pos(), "call through function value "+fun.Name)
				}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := w.p.Info.Selections[fun]; ok && sel.Kind() == types.FieldVal {
			w.fact(FactDynamicCall, call.Pos(), "call through function field "+fun.Sel.Name)
		}
	}
	w.walkExpr(call.Fun, guarded)
	for _, a := range call.Args {
		w.walkExpr(a, guarded)
	}
}

// appendFact classifies one append call: appending to a fresh (nil or
// literal) slice allocates on every call; appending to an existing slice
// only grows it, which amortizes to zero once the buffer reaches
// steady-state capacity.
func (w *factWalker) appendFact(call *ast.CallExpr, guarded bool) {
	if len(call.Args) == 0 {
		return
	}
	if freshSlice(w.p.Info, call.Args[0]) {
		w.allocFact(call.Pos(), "append to a fresh slice", guarded)
		return
	}
	w.fact(FactAmortizedAlloc, call.Pos(), "append")
}

// freshSlice reports whether e denotes a slice that is empty at this
// expression: nil, a nil conversion, an empty literal, or a make call.
func freshSlice(info *types.Info, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == "nil"
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				return true
			}
		}
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return freshSlice(info, x.Args[0])
		}
	case *ast.ParenExpr:
		return freshSlice(info, x.X)
	}
	return false
}

// allocFact records an allocation, downgraded to amortized when guarded.
func (w *factWalker) allocFact(pos token.Pos, what string, guarded bool) {
	kind := FactAlloc
	if guarded {
		kind = FactAmortizedAlloc
	}
	w.fact(kind, pos, what)
}

// isAmortGuard reports whether an if/for condition (with optional init)
// is a growth or first-touch guard: it tests len/cap, compares against
// nil, or tests the ok of a map lookup. Allocation behind such a guard
// runs once per element or only while a buffer grows — amortized zero on
// a steady-state hot path.
func (w *factWalker) isAmortGuard(cond ast.Expr, init ast.Stmt) bool {
	if init != nil {
		mapLookup := false
		ast.Inspect(init, func(n ast.Node) bool {
			if ix, ok := n.(*ast.IndexExpr); ok {
				if tv, ok := w.p.Info.Types[ix.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						mapLookup = true
					}
				}
			}
			return !mapLookup
		})
		if mapLookup {
			return true
		}
	}
	if cond == nil {
		return false
	}
	guard := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok {
				if b, ok := w.p.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
					guard = true
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				if isNilIdent(x.X) || isNilIdent(x.Y) {
					guard = true
				}
			}
		}
		return !guard
	})
	return guard
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminates reports whether a block always transfers control out
// (return, branch, or panic as its last statement).
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// scanSpawn analyses one go statement's call subtree for lifecycle
// signals.
func scanSpawn(info *types.Info, gs *ast.GoStmt) Spawn {
	sp := Spawn{Pos: gs.Pos()}
	ast.Inspect(gs.Call, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[x].(*types.Func); ok {
				sp.Callees = append(sp.Callees, fn)
			}
			if obj, ok := info.Uses[x].(*types.Var); ok {
				if isNamedType(obj.Type(), "sync", "WaitGroup") {
					sp.SeesWaitGroup = true
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, ok := info.Uses[id].(*types.Builtin); ok {
					sp.SeesChannel = true
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				sp.SeesChannel = true
			}
		case *ast.SendStmt:
			sp.SeesChannel = true
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					sp.SeesChannel = true
				}
			}
		case *ast.SelectStmt:
			sp.SeesChannel = true
		}
		if e, ok := n.(ast.Expr); ok {
			if t := info.TypeOf(e); t != nil {
				if isNamedType(t, "context", "Context") {
					sp.SeesContext = true
				}
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					sp.SeesChannel = true
				}
			}
		}
		return true
	})
	return sp
}

// uint64KeyedMap reports whether t's underlying type is map[uint64]V.
func uint64KeyedMap(t types.Type) bool {
	mp, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	b, ok := mp.Key().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}
