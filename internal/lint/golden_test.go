package lint

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The hot-path golden pins what the rules built on the module call graph
// and on the shared fact helpers report, in two files under testdata/:
//
//   - hotpath_fixtures.golden: every finding of those rules on every
//     fixture written for any of them, with module-relative paths;
//   - hotpath_repo.golden: for the module itself, which lints clean and
//     so pins nothing through findings, each hot-path rule's roots and
//     how many functions each reaches.
//
// A refactor of the rules or of the graph must leave both files
// byte-identical. Adding roots may only add root lines and raise counts.
// A refactor of the engines may rename roots and change reach counts, in
// hotpath_repo.golden only: methods an engine family inherits from a
// shared core are rooted at the core's declaration, and helpers it stops
// or starts calling change what each root reaches.

// goldenRules are the rules the golden runs over every fixture.
var goldenRules = []string{"nondeterm", "gocapture", "gopool", "httpserver", "obsring", "enginepurity", "mapstate"}

// goldenFixtures is every fixture of the golden rules, at every import
// path their tests place it.
var goldenFixtures = []fixture{
	nondetermGlobal, nondetermGlobal.at("dirsim/cmd/fix"), nondetermSeeded,
	goCaptureAssign, goCaptureSlots,
	goPoolUnbounded, goPoolUnbounded.at("dirsim/cmd/fix"), goPoolBounded,
	httpServerBare, httpServerBounded, httpClientNaked, httpClientBounded,
	httpHandlerSpawn, httpHandlerContext,
	obsRingEmitAppend, obsRingObserveGrow, obsRingAllocKinds, obsRingSpanFinish,
	obsRingEmitLog, obsRingEmitLog.at("dirsim/internal/obs"), obsRingEmitLog.at("dirsim/internal/otrace"),
	obsRingEmitLog.at("dirsim/internal/sim"), obsRingEmitLog.at("dirsim/cmd/fix"), obsRingClean,
	enginePurityDirty, enginePurityAmortized, enginePuritySpawn, enginePurityStoreDispatch,
	mapStateFields, mapStateClean, mapStateOtherKeys, enginePurityEmbeddedCore,
}

// rulesNamed looks rules up in DefaultRules by id.
func rulesNamed(t *testing.T, names ...string) []Rule {
	t.Helper()
	byName := map[string]Rule{}
	for _, r := range DefaultRules() {
		byName[r.Name()] = r
	}
	out := make([]Rule, len(names))
	for i, n := range names {
		if out[i] = byName[n]; out[i] == nil {
			t.Fatalf("no default rule %q", n)
		}
	}
	return out
}

func TestHotPathGoldenFixtures(t *testing.T) {
	rules := rulesNamed(t, goldenRules...)
	var sb strings.Builder
	for _, fx := range goldenFixtures {
		fmt.Fprintf(&sb, "%s @ %s\n", fx.name, strings.TrimPrefix(fx.path, "dirsim/"))
		for _, f := range Run([]*Package{loadSrc(t, fx.path, fx.src, nil)}, rules) {
			f.Pos.Filename = strings.TrimPrefix(f.Pos.Filename, "dirsim/")
			fmt.Fprintf(&sb, "\t%s\n", f)
		}
	}
	checkGolden(t, "hotpath_fixtures.golden", sb.String())
}

func TestHotPathGoldenRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short (the plain CI job runs it)")
	}
	pkgs, err := Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	m := NewModule(pkgs)
	rel := func(fn *types.Func) string {
		return strings.ReplaceAll(fn.FullName(), m.Pkgs[0].Module+"/", "")
	}
	var sb strings.Builder
	for _, rule := range []string{"obsring", "enginepurity", "mapstate"} {
		fmt.Fprintf(&sb, "%s\n", rule)
		var all []*types.Func
		for _, r := range rulesNamed(t, rule)[0].(HotPathRule).Roots(m) {
			fmt.Fprintf(&sb, "\t%s %s reaches %d\n", r.Owner, rel(r.Fn), len(m.Reachable(r.Fn)))
			all = append(all, r.Fn)
		}
		fmt.Fprintf(&sb, "\tall roots reach %d\n", len(m.Reachable(all...)))
	}
	checkGolden(t, "hotpath_repo.golden", sb.String())
}

// checkGolden compares got with testdata/name and reports the first
// differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("%s differs at line %d:\n got: %q\nwant: %q", name, i+1, gl, wl)
			break
		}
	}
	t.Logf("full output:\n%s", got)
}
