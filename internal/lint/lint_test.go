package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// memImporter type-checks in-memory fixture packages, delegating anything
// it does not know to the stdlib source importer.
type memImporter struct {
	fset *token.FileSet
	deps map[string]string
	done map[string]*types.Package
	base types.Importer
}

func (m *memImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.done[path]; ok {
		return pkg, nil
	}
	src, ok := m.deps[path]
	if !ok {
		return m.base.Import(path)
	}
	f, err := parser.ParseFile(m.fset, path+"/fix.go", src, 0)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	m.done[path] = pkg
	return pkg, nil
}

// lintSrc type-checks one fixture source at the given fake module import
// path (module "dirsim") and applies a single rule to it.
func lintSrc(t *testing.T, path, src string, deps map[string]string, r Rule) []Finding {
	t.Helper()
	return Run([]*Package{loadSrc(t, path, src, deps)}, []Rule{r})
}

// fixture is one rule test's input: a single-file package at a fake
// module import path. Fixtures live in package variables so the hot-path
// golden test (golden_test.go) can replay every one of them.
type fixture struct {
	name, path, src string
}

// at returns the same source placed at another import path.
func (fx fixture) at(path string) fixture {
	fx.path = path
	return fx
}

// lintFixture applies a single rule to one fixture.
func lintFixture(t *testing.T, fx fixture, r Rule) []Finding {
	t.Helper()
	return lintSrc(t, fx.path, fx.src, nil, r)
}

// Every fixture shares one file set and one stdlib source importer, so
// each standard package is type-checked once per test binary rather than
// once per fixture. No test in this package runs in parallel.
var (
	fixtureFset = token.NewFileSet()
	stdImporter = importer.ForCompiler(fixtureFset, "source", nil)
)

// loadSrc type-checks one fixture source at the given fake module import
// path (module "dirsim").
func loadSrc(t *testing.T, path, src string, deps map[string]string) *Package {
	t.Helper()
	fset := fixtureFset
	imp := &memImporter{
		fset: fset,
		deps: deps,
		done: map[string]*types.Package{},
		base: stdImporter,
	}
	f, err := parser.ParseFile(fset, path+"/fix.go", src, 0)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return &Package{Path: path, Module: "dirsim", Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

// wantFindings asserts the rule fired count times, all under its own name.
func wantFindings(t *testing.T, fs []Finding, r Rule, count int) {
	t.Helper()
	if len(fs) != count {
		t.Fatalf("%s: got %d findings, want %d: %v", r.Name(), len(fs), count, fs)
	}
	for _, f := range fs {
		if f.Rule != r.Name() {
			t.Fatalf("finding under rule %q, want %q", f.Rule, r.Name())
		}
		if f.Pos.Line == 0 {
			t.Fatalf("finding %v has no position", f)
		}
	}
}

func TestMapOrderRule(t *testing.T) {
	fire := `package fix
import "fmt"
func f(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
func g(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
`
	fs := lintSrc(t, "dirsim/internal/fix", fire, nil, MapOrderRule{})
	wantFindings(t, fs, MapOrderRule{}, 2)
	if !strings.Contains(fs[0].Msg, "printing") {
		t.Errorf("first finding should be the print, got %v", fs[0])
	}
	if !strings.Contains(fs[1].Msg, "append to ks") {
		t.Errorf("second finding should name the slice, got %v", fs[1])
	}

	silent := `package fix
import "sort"
func g(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
func h(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
`
	wantFindings(t, lintSrc(t, "dirsim/internal/fix", silent, nil, MapOrderRule{}), MapOrderRule{}, 0)
}

var nondetermGlobal = fixture{name: "nondeterm-global", path: "dirsim/internal/fix", src: `package fix
import (
	"math/rand"
	"time"
)
func f() (int, time.Time) {
	return rand.Intn(6), time.Now()
}
`}

var nondetermSeeded = fixture{name: "nondeterm-seeded", path: "dirsim/internal/fix", src: `package fix
import (
	"math/rand"
	"time"
)
func f(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6)
}
func g(d time.Duration) time.Duration { return 2 * d }
`}

func TestNondeterminismRule(t *testing.T) {
	fs := lintFixture(t, nondetermGlobal, NondeterminismRule{})
	wantFindings(t, fs, NondeterminismRule{}, 2)

	wantFindings(t, lintFixture(t, nondetermSeeded, NondeterminismRule{}), NondeterminismRule{}, 0)

	// The rule is scoped to internal packages: a command may read the clock.
	wantFindings(t, lintFixture(t, nondetermGlobal.at("dirsim/cmd/fix"), NondeterminismRule{}), NondeterminismRule{}, 0)
}

func TestFloatEqRule(t *testing.T) {
	fire := `package fix
func f(a, b float64) bool { return a == b }
func g(a float32) bool    { return a != 0 }
`
	wantFindings(t, lintSrc(t, "dirsim/internal/fix", fire, nil, FloatEqRule{}), FloatEqRule{}, 2)

	silent := `package fix
import "math"
func f(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
func g(a, b int) bool     { return a == b }
func h(s string) bool     { return s == "x" }
`
	wantFindings(t, lintSrc(t, "dirsim/internal/fix", silent, nil, FloatEqRule{}), FloatEqRule{}, 0)
}

func TestStateSwitchRule(t *testing.T) {
	fire := `package fix
type blockState uint8
const (
	sUncached blockState = iota
	sClean
	sDirty
)
func f(s blockState) int {
	switch s {
	case sUncached:
		return 0
	case sClean:
		return 1
	}
	return -1
}
`
	fs := lintSrc(t, "dirsim/internal/fix", fire, nil, StateSwitchRule{})
	wantFindings(t, fs, StateSwitchRule{}, 1)
	if !strings.Contains(fs[0].Msg, "sDirty") {
		t.Errorf("finding should name the missing constant: %v", fs[0])
	}

	silent := `package fix
type blockState uint8
const (
	sUncached blockState = iota
	sClean
	sDirty
	sInvalid = sUncached // alias: covering the value covers it
)
func exhaustive(s blockState) int {
	switch s {
	case sInvalid:
		return 0
	case sClean:
		return 1
	case sDirty:
		return 2
	}
	return -1
}
func defaulted(s blockState) int {
	switch s {
	case sClean:
		return 1
	default:
		return 0
	}
}
func notAnEnum(n int) int {
	switch n {
	case 1:
		return 1
	}
	return 0
}
`
	wantFindings(t, lintSrc(t, "dirsim/internal/fix", silent, nil, StateSwitchRule{}), StateSwitchRule{}, 0)
}

const ctorDep = `package dep
import "errors"
type Thing struct{}
func NewThing() (*Thing, error) { return nil, errors.New("boom") }
func NewCount() int             { return 0 }
`

func TestCtorErrRule(t *testing.T) {
	deps := map[string]string{"dirsim/internal/dep": ctorDep}
	fire := `package fix
import "dirsim/internal/dep"
func f() {
	dep.NewThing()
	_, _ = dep.NewThing()
}
`
	wantFindings(t, lintSrc(t, "dirsim/internal/fix", fire, deps, CtorErrRule{}), CtorErrRule{}, 2)

	silent := `package fix
import "dirsim/internal/dep"
func f() (*dep.Thing, error) {
	t, err := dep.NewThing()
	if err != nil {
		return nil, err
	}
	n := dep.NewCount() // no error result: nothing to drop
	_ = n
	return t, nil
}
`
	wantFindings(t, lintSrc(t, "dirsim/internal/fix", silent, deps, CtorErrRule{}), CtorErrRule{}, 0)
}

func TestEngineRegistryRule(t *testing.T) {
	fire := `package coherence
import "errors"
func EngineNames() []string {
	return []string{"alpha", "ghost", "dir4nb", "competitive8"}
}
func NewByName(name string) (int, error) {
	switch name {
	case "alpha", "a":
		return 1, nil
	case "beta":
		return 2, nil
	}
	return 0, errors.New("unknown")
}
`
	fs := lintSrc(t, "dirsim/internal/coherence", fire, nil, EngineRegistryRule{})
	wantFindings(t, fs, EngineRegistryRule{}, 2)
	joined := fs[0].Msg + " " + fs[1].Msg
	if !strings.Contains(joined, `"ghost"`) || !strings.Contains(joined, `"beta"`) {
		t.Errorf("findings should name ghost and beta: %v", fs)
	}

	silent := `package coherence
import "errors"
func EngineNames() []string {
	return []string{"alpha", "beta", "dir4nb"}
}
func NewByName(name string) (int, error) {
	switch name {
	case "alpha", "a":
		return 1, nil
	case "beta":
		return 2, nil
	}
	return 0, errors.New("unknown")
}
`
	wantFindings(t, lintSrc(t, "dirsim/internal/coherence", silent, nil, EngineRegistryRule{}), EngineRegistryRule{}, 0)

	// A NewByName that delegates name resolution is checked through the
	// function it calls.
	delegated := `package coherence
import "errors"
func EngineNames() []string {
	return []string{"alpha", "ghost"}
}
func NewByName(name string) (int, error) {
	return resolve(name)
}
func resolve(name string) (int, error) {
	switch name {
	case "alpha", "a":
		return 1, nil
	case "beta":
		return 2, nil
	}
	return 0, errors.New("unknown")
}
`
	fs = lintSrc(t, "dirsim/internal/coherence", delegated, nil, EngineRegistryRule{})
	wantFindings(t, fs, EngineRegistryRule{}, 2)
	joined = fs[0].Msg + " " + fs[1].Msg
	if !strings.Contains(joined, `"ghost"`) || !strings.Contains(joined, `"beta"`) {
		t.Errorf("delegated findings should name ghost and beta: %v", fs)
	}

	// Packages without the registry pair are out of scope.
	other := `package fix
func EngineNames() []string { return []string{"x"} }
`
	wantFindings(t, lintSrc(t, "dirsim/internal/fix", other, nil, EngineRegistryRule{}), EngineRegistryRule{}, 0)
}

var goCaptureAssign = fixture{name: "gocapture-assign", path: "dirsim/internal/fix", src: `package fix
func f() int {
	total := 0
	done := make(chan bool)
	go func() {
		total++
		total = 42
		done <- true
	}()
	<-done
	return total
}
`}

// The study worker pattern: parameters in, indexed slots out.
var goCaptureSlots = fixture{name: "gocapture-slots", path: "dirsim/internal/fix", src: `package fix
import "sync"
func g(xs []int) []int {
	out := make([]int, len(xs))
	var wg sync.WaitGroup
	for i, x := range xs {
		wg.Add(1)
		go func(i, x int) {
			defer wg.Done()
			y := x * x
			out[i] = y
		}(i, x)
	}
	wg.Wait()
	return out
}
`}

func TestGoCaptureRule(t *testing.T) {
	wantFindings(t, lintFixture(t, goCaptureAssign, GoCaptureRule{}), GoCaptureRule{}, 2)

	wantFindings(t, lintFixture(t, goCaptureSlots, GoCaptureRule{}), GoCaptureRule{}, 0)
}

// Two unbounded fan-outs: a bare per-element spawn, and one whose
// semaphore is acquired inside the goroutine (which bounds nothing —
// every goroutine is already running by then).
var goPoolUnbounded = fixture{name: "gopool-unbounded", path: "dirsim/internal/fix", src: `package fix
import "sync"
func f(xs []int) {
	var wg sync.WaitGroup
	for range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}
func g(xs []int) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4)
	for range xs {
		wg.Add(1)
		go func() {
			sem <- struct{}{}
			defer wg.Done()
			<-sem
		}()
	}
	wg.Wait()
}
`}

// Sanctioned shapes: semaphore acquired before the spawn, a fixed
// worker pool (3-clause loop), and a range spawn with no WaitGroup.
var goPoolBounded = fixture{name: "gopool-bounded", path: "dirsim/internal/fix", src: `package fix
import "sync"
func h(xs []int) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4)
	for range xs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			<-sem
		}()
	}
	wg.Wait()
}
func pool(xs []int, workers int) {
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
			}
		}()
	}
	for _, x := range xs {
		jobs <- x
	}
	close(jobs)
	wg.Wait()
}
func fire(xs []int) {
	done := make(chan bool, len(xs))
	for range xs {
		go func() {
			done <- true
		}()
	}
	for range xs {
		<-done
	}
}
`}

func TestGoPoolRule(t *testing.T) {
	wantFindings(t, lintFixture(t, goPoolUnbounded, GoPoolRule{}), GoPoolRule{}, 2)

	wantFindings(t, lintFixture(t, goPoolBounded, GoPoolRule{}), GoPoolRule{}, 0)

	// The rule only polices the module's internal tree: package main in
	// cmd/ may fan out freely.
	wantFindings(t, lintFixture(t, goPoolUnbounded.at("dirsim/cmd/fix"), GoPoolRule{}), GoPoolRule{}, 0)
}

// TestLoad exercises the module loader end to end on a scratch module.
func TestLoad(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/scratch\n\ngo 1.21\n")
	write("internal/a/a.go", `package a
func Pi() float64 { return 3.14 }
func Same(x float64) bool { return x == Pi() }
`)
	write("internal/a/a_test.go", `package a
// Test files must not be loaded; this one would not even type-check.
var Broken undeclared
`)
	write("internal/b/b.go", `package b
import "example.com/scratch/internal/a"
func TwoPi() float64 { return 2 * a.Pi() }
`)

	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2: %v", len(pkgs), pkgs)
	}
	for i, want := range []string{"example.com/scratch/internal/a", "example.com/scratch/internal/b"} {
		if pkgs[i].Path != want {
			t.Errorf("pkgs[%d].Path = %q, want %q", i, pkgs[i].Path, want)
		}
		if pkgs[i].Module != "example.com/scratch" {
			t.Errorf("pkgs[%d].Module = %q", i, pkgs[i].Module)
		}
	}

	fs := Run(pkgs, DefaultRules())
	if len(fs) != 1 || fs[0].Rule != "floateq" {
		t.Fatalf("findings = %v, want one floateq in package a", fs)
	}
	if got := fs[0].String(); !strings.Contains(got, "a.go:3") || !strings.Contains(got, "floateq") {
		t.Errorf("finding renders as %q", got)
	}

	// Loading from a subdirectory finds the same module root.
	sub, err := Load(filepath.Join(root, "internal/b"), "./internal/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 || sub[0].Path != "example.com/scratch/internal/a" {
		t.Fatalf("subdir load = %v", sub)
	}
}

func TestAtomicWriteRule(t *testing.T) {
	fire := `package fix
import "os"
func f() error {
	g, err := os.Create("results.csv")
	if err != nil {
		return err
	}
	defer g.Close()
	return os.WriteFile("manifest.json", []byte("{}"), 0o644)
}
`
	fs := lintSrc(t, "dirsim/cmd/fix", fire, nil, AtomicWriteRule{})
	wantFindings(t, fs, AtomicWriteRule{}, 2)
	if !strings.Contains(fs[0].Msg, "atomicio") {
		t.Errorf("finding should point at internal/atomicio, got %v", fs[0])
	}

	// The implementation package itself is exempt — it is the one place
	// allowed to touch os.Create.
	wantFindings(t, lintSrc(t, "dirsim/internal/atomicio", fire, nil, AtomicWriteRule{}), AtomicWriteRule{}, 0)

	// Reads and unrelated Create functions stay silent.
	silent := `package fix
import "os"
type maker struct{}
func (maker) Create(string) error { return nil }
func g(m maker) error {
	if _, err := os.ReadFile("in.csv"); err != nil {
		return err
	}
	return m.Create("out.csv")
}
`
	wantFindings(t, lintSrc(t, "dirsim/cmd/fix", silent, nil, AtomicWriteRule{}), AtomicWriteRule{}, 0)
}

// TestRunSorted pins the deterministic ordering of findings.
func TestRunSorted(t *testing.T) {
	src := `package fix
func f(a, b float64) (bool, bool, bool) {
	return b != a, a == b, a == 0
}
`
	fs := lintSrc(t, "dirsim/internal/fix", src, nil, FloatEqRule{})
	wantFindings(t, fs, FloatEqRule{}, 3)
	for i := 1; i < len(fs); i++ {
		if fs[i-1].Pos.Column > fs[i].Pos.Column {
			t.Fatalf("findings out of order: %v", fs)
		}
	}
}

// TestDefaultRulesDocumented keeps names and docs present and unique.
func TestDefaultRulesDocumented(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range DefaultRules() {
		if r.Name() == "" || r.Doc() == "" {
			t.Errorf("rule %T lacks a name or doc", r)
		}
		if seen[r.Name()] {
			t.Errorf("duplicate rule name %q", r.Name())
		}
		seen[r.Name()] = true
	}
	if len(seen) != 15 {
		t.Errorf("expected 15 rules, have %d", len(seen))
	}
}
