package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dirsim/internal/coherence"
	"dirsim/internal/lint"
)

// TestRepoIsLintClean is the gate the command exists for: the module's own
// shipped code must produce zero findings under every default rule.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short (the plain CI job runs it)")
	}
	var sb strings.Builder
	code := run(&sb, &sb, options{dir: ".", patterns: []string{"./..."}})
	if code != exitClean {
		t.Fatalf("exit %d; repository has lint findings:\n%s", code, sb.String())
	}
}

// TestEveryEngineHasPurityRoot asserts the enginepurity rule covers every
// registered engine: each name NewByName can construct resolves to a
// concrete type that owns analysis roots.
func TestEveryEngineHasPurityRoot(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short (the plain CI job runs it)")
	}
	pkgs, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]bool{}
	var covered []string
	for _, r := range lint.EnginePurity.Roots(lint.NewModule(pkgs)) {
		roots[r.Owner] = true
		covered = append(covered, r.String())
	}
	if len(roots) == 0 {
		t.Fatal("no engine roots found")
	}
	names := coherence.EngineNames()
	if len(names) == 0 {
		t.Fatal("no registered engines")
	}
	for _, name := range names {
		eng, err := coherence.NewByName(name, coherence.Config{Caches: 2})
		if err != nil {
			t.Fatalf("NewByName(%s): %v", name, err)
		}
		typ := reflect.TypeOf(eng)
		for typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		if !roots[typ.Name()] {
			t.Errorf("engine %q (concrete type %s) has no enginepurity root; covered: %v",
				name, typ.Name(), covered)
		}
	}
}

// TestExitCodes asserts the documented exit-code contract: 0 clean,
// 1 findings, 2 load error.
func TestExitCodes(t *testing.T) {
	t.Run("clean is 0", func(t *testing.T) {
		var sb strings.Builder
		if code := run(&sb, &sb, options{list: true}); code != exitClean {
			t.Fatalf("list: exit %d, want %d\n%s", code, exitClean, sb.String())
		}
	})
	t.Run("findings are 1", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod":              "module example.com/bad\n\ngo 1.22\n",
			"internal/bad/bad.go": "package bad\n\nimport \"math/rand\"\n\n// Roll draws from the global source.\nfunc Roll() int { return rand.Int() }\n",
		})
		var sb strings.Builder
		if code := run(&sb, &sb, options{dir: dir, patterns: []string{"./..."}}); code != exitFindings {
			t.Fatalf("exit %d, want %d\n%s", code, exitFindings, sb.String())
		}
		if !strings.Contains(sb.String(), "finding(s)") {
			t.Errorf("missing findings summary:\n%s", sb.String())
		}
	})
	t.Run("load error is 2", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod":                    "module example.com/broken\n\ngo 1.22\n",
			"internal/broken/broken.go": "package broken\n\nfunc Oops() { return 1 }\n", // type error
		})
		var sb strings.Builder
		if code := run(&sb, &sb, options{dir: dir, patterns: []string{"./..."}}); code != exitError {
			t.Fatalf("exit %d, want %d\n%s", code, exitError, sb.String())
		}
	})
	t.Run("bad flag value is 2", func(t *testing.T) {
		var sb strings.Builder
		if code := run(&sb, &sb, options{dir: ".", format: "yaml"}); code != exitError {
			t.Fatalf("exit %d, want %d", code, exitError)
		}
	})
}

// TestSuppressionFlow exercises the pragma path end to end on a throwaway
// module.
func TestSuppressionFlow(t *testing.T) {
	files := map[string]string{
		"go.mod": "module example.com/supp\n\ngo 1.22\n",
		"internal/supp/a.go": "package supp\n\nimport \"math/rand\"\n\n" +
			"// Roll is allowed to use the global source.\n" +
			"//lint:ignore nondeterm seeded upstream for this demo\n" +
			"func Roll() int { return rand.Int() }\n",
		"internal/supp/b.go": "package supp\n\nimport \"math/rand\"\n\n// Draw is not suppressed.\nfunc Draw() int { return rand.Int() }\n",
	}
	dir := writeModule(t, files)

	// The pragma suppresses a.go's finding; b.go's remains → exit 1.
	var sb strings.Builder
	if code := run(&sb, &sb, options{dir: dir, patterns: []string{"./..."}}); code != exitFindings {
		t.Fatalf("exit %d, want %d\n%s", code, exitFindings, sb.String())
	}
	if strings.Contains(sb.String(), "a.go") {
		t.Errorf("suppressed finding still reported:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "b.go") {
		t.Errorf("unsuppressed finding missing:\n%s", sb.String())
	}

	// An unused pragma is itself a finding.
	files["internal/supp/b.go"] = "package supp\n\n//lint:ignore floateq nothing here compares floats\nfunc Draw() int { return 4 }\n"
	dir2 := writeModule(t, files)
	sb.Reset()
	if code := run(&sb, &sb, options{dir: dir2, patterns: []string{"./..."}}); code != exitFindings {
		t.Fatalf("unused pragma: exit %d\n%s", code, sb.String())
	}
	if !strings.Contains(sb.String(), "unused suppression") {
		t.Errorf("unused pragma not reported:\n%s", sb.String())
	}
}

// TestJSONFormat checks -format=json emits a parseable array with
// module-relative paths.
func TestJSONFormat(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":          "module example.com/j\n\ngo 1.22\n",
		"internal/j/j.go": "package j\n\nimport \"math/rand\"\n\n// R rolls.\nfunc R() int { return rand.Int() }\n",
	})
	var sb strings.Builder
	if code := run(&sb, &sb, options{dir: dir, patterns: []string{"./..."}, format: "json"}); code != exitFindings {
		t.Fatalf("exit %d\n%s", code, sb.String())
	}
	var got []struct {
		File, Rule, Msg string
		Line, Col       int
	}
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(got) == 0 || got[0].File != "internal/j/j.go" || got[0].Rule == "" || got[0].Line == 0 {
		t.Fatalf("unexpected findings: %+v", got)
	}
}

func TestRunList(t *testing.T) {
	var sb strings.Builder
	code := run(&sb, &sb, options{list: true})
	if code != exitClean {
		t.Fatalf("list: exit %d", code)
	}
	for _, rule := range []string{
		"maporder", "nondeterm", "floateq", "stateswitch", "ctorerr", "registry",
		"gocapture", "enginepurity", "lockcheck", "ctxflow",
	} {
		if !strings.Contains(sb.String(), rule) {
			t.Errorf("rule %s missing from -list output:\n%s", rule, sb.String())
		}
	}
}

func TestRunMC(t *testing.T) {
	var sb strings.Builder
	code := run(&sb, &sb, options{mcMode: true, schemes: "dir1nb,moesi", caches: 2, blocks: 1})
	if code != exitClean {
		t.Fatalf("model checker exit %d:\n%s", code, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "Dir1NB") || !strings.Contains(out, "MOESI") {
		t.Errorf("missing engine summaries:\n%s", out)
	}
	if !strings.Contains(out, "states") || !strings.Contains(out, "unreachable") {
		t.Errorf("summary lines incomplete:\n%s", out)
	}
}

// TestRunMCTruncation pins how a truncated exploration is reported: as an
// incomplete check that fails the run, never as a violation.
func TestRunMCTruncation(t *testing.T) {
	var sb strings.Builder
	code := run(&sb, &sb, options{mcMode: true, schemes: "competitive4,dir1nb", caches: 2, blocks: 1, maxNodes: 8})
	if code != exitFindings {
		t.Fatalf("truncated exploration exit %d, want %d:\n%s", code, exitFindings, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "Competitive4") || !strings.Contains(out, "(truncated)") {
		t.Errorf("no truncated summary line:\n%s", out)
	}
	if !strings.Contains(out, "exploration truncated at the node cap, so the check is incomplete for: Competitive4\n") {
		t.Errorf("no truncation report naming only Competitive4:\n%s", out)
	}
	if strings.Contains(out, "violation") || strings.Contains(out, "VIOLATION") {
		t.Errorf("truncation reported as a violation:\n%s", out)
	}
}

func TestSelectRules(t *testing.T) {
	rs, err := selectRules("floateq, registry")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Name() != "floateq" || rs[1].Name() != "registry" {
		t.Fatalf("selected %v", rs)
	}
	if _, err := selectRules("nosuchrule"); err == nil {
		t.Fatal("unknown rule accepted")
	}
	if rs, _ := selectRules("floateq,floateq"); len(rs) != 1 {
		t.Fatalf("repeated name selected %d rules, want 1", len(rs))
	}
}

// TestDuplicateRuleRunsOnce: naming a rule twice runs it once, so each
// finding prints once and the SARIF run lists the rule once.
func TestDuplicateRuleRunsOnce(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":          "module example.com/f\n\ngo 1.22\n",
		"internal/f/f.go": "package f\n\n// Same compares exactly.\nfunc Same(a, b float64) bool { return a == b }\n",
	})
	var sb strings.Builder
	if code := run(&sb, &sb, options{dir: dir, patterns: []string{"./..."}, rules: "floateq,floateq"}); code != exitFindings {
		t.Fatalf("exit %d\n%s", code, sb.String())
	}
	if n := strings.Count(sb.String(), "floateq:"); n != 1 {
		t.Errorf("finding printed %d times, want 1:\n%s", n, sb.String())
	}
	sb.Reset()
	run(&sb, &sb, options{dir: dir, patterns: []string{"./..."}, rules: "floateq,floateq", format: "sarif"})
	if n := strings.Count(sb.String(), `"id": "floateq"`); n != 1 {
		t.Errorf("SARIF lists floateq %d times, want 1:\n%s", n, sb.String())
	}
}

// TestRuleSubsetLeavesOtherPragmasAlone: under -rules, a pragma for a
// known rule that did not run is neither used nor stale, while a pragma
// naming an unknown rule is still reported.
func TestRuleSubsetLeavesOtherPragmasAlone(t *testing.T) {
	files := map[string]string{
		"go.mod": "module example.com/sub\n\ngo 1.22\n",
		"internal/sub/sub.go": "package sub\n\nimport \"fmt\"\n\n// Dump prints in map order on purpose.\n" +
			"func Dump(m map[string]int) {\n\tfor k := range m {\n" +
			"\t\t//lint:ignore maporder debugging aid, order does not matter\n" +
			"\t\tfmt.Println(k)\n\t}\n}\n",
	}
	dir := writeModule(t, files)
	var sb strings.Builder
	if code := run(&sb, &sb, options{dir: dir, patterns: []string{"./..."}, rules: "floateq"}); code != exitClean {
		t.Fatalf("-rules floateq: exit %d, want %d\n%s", code, exitClean, sb.String())
	}

	files["internal/sub/typo.go"] = "package sub\n\n//lint:ignore mapordr misspelled rule\nfunc Typo() {}\n"
	dir = writeModule(t, files)
	sb.Reset()
	if code := run(&sb, &sb, options{dir: dir, patterns: []string{"./..."}, rules: "floateq"}); code != exitFindings {
		t.Fatalf("unknown-rule pragma: exit %d, want %d\n%s", code, exitFindings, sb.String())
	}
	if !strings.Contains(sb.String(), "unused suppression for rule mapordr") || strings.Contains(sb.String(), "rule maporder") {
		t.Errorf("want only the unknown rule's pragma reported:\n%s", sb.String())
	}
}

// writeModule materializes a throwaway module on disk.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}
