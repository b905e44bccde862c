package lint

import (
	"go/token"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text          string
		ok, malformed bool
		rule, reason  string
	}{
		{"//lint:ignore obsring ring grows only at startup", true, false, "obsring", "ring grows only at startup"},
		{"//lint:ignore * vendored verbatim", true, false, "*", "vendored verbatim"},
		{"//lint:ignore\tfloateq\ttolerance checked above", true, false, "floateq", "tolerance checked above"},
		{"//lint:ignore floateq", true, true, "", ""},
		{"//lint:ignore", true, true, "", ""},
		{"//lint:ignore   ", true, true, "", ""},
		{"// lint:ignore floateq spaced out", false, false, "", ""},
		{"//lint:ignored floateq wrong directive", false, false, "", ""},
		{"//lint:file-ignore floateq other directive", false, false, "", ""},
		{"// plain comment", false, false, "", ""},
	}
	for _, c := range cases {
		p, ok, malformed := ParseIgnore(c.text)
		if ok != c.ok || malformed != c.malformed {
			t.Errorf("ParseIgnore(%q) = ok %v malformed %v, want %v %v", c.text, ok, malformed, c.ok, c.malformed)
			continue
		}
		if ok && !malformed && (p.Rule != c.rule || p.Reason != c.reason) {
			t.Errorf("ParseIgnore(%q) = rule %q reason %q, want %q %q", c.text, p.Rule, p.Reason, c.rule, c.reason)
		}
	}
}

// FuzzParseIgnore checks the parser never panics and keeps its
// invariants on arbitrary comment text.
func FuzzParseIgnore(f *testing.F) {
	f.Add("//lint:ignore obsring because reasons")
	f.Add("//lint:ignore")
	f.Add("//lint:ignore *")
	f.Add("//lint:ignore \t \t ")
	f.Add("// not a pragma")
	f.Add("//lint:ignoreX tail")
	f.Add("//lint:ignore rule with a much longer justification text")
	f.Fuzz(func(t *testing.T, text string) {
		p, ok, malformed := ParseIgnore(text)
		if !ok && malformed {
			t.Fatalf("ParseIgnore(%q): malformed implies ok", text)
		}
		if !ok || malformed {
			if p.Rule != "" || p.Reason != "" {
				t.Fatalf("ParseIgnore(%q): non-usable result carries data: %+v", text, p)
			}
			return
		}
		if p.Rule == "" || p.Reason == "" {
			t.Fatalf("ParseIgnore(%q): usable pragma missing rule or reason: %+v", text, p)
		}
		if !utf8.ValidString(text) {
			return
		}
		if !strings.Contains(text, p.Rule) || !strings.Contains(text, p.Reason) {
			t.Fatalf("ParseIgnore(%q): rule/reason not substrings: %+v", text, p)
		}
	})
}

func TestSuppress(t *testing.T) {
	pos := func(file string, line int) token.Position {
		return token.Position{Filename: file, Line: line, Column: 1}
	}
	findings := []Finding{
		{Pos: pos("a.go", 10), Rule: "obsring", Msg: "allocates"},
		{Pos: pos("a.go", 20), Rule: "floateq", Msg: "compares"},
		{Pos: pos("b.go", 10), Rule: "obsring", Msg: "allocates"},
	}
	pragmas := []Pragma{
		// Line above the a.go:10 finding: suppresses it.
		{Pos: pos("a.go", 9), Rule: "obsring", Reason: "preallocated"},
		// Wrong rule on the right line: suppresses nothing.
		{Pos: pos("a.go", 20), Rule: "obsring", Reason: "stale"},
	}
	got := Suppress(findings, pragmas, DefaultRules())
	var rules []string
	unused := 0
	for _, f := range got {
		rules = append(rules, f.Rule)
		if f.Rule == "suppression" {
			unused++
			if !strings.Contains(f.Msg, "unused suppression") {
				t.Errorf("unexpected suppression message: %v", f)
			}
		}
	}
	// a.go:10 suppressed; floateq and b.go survive; one unused pragma.
	if len(got) != 3 || unused != 1 {
		t.Fatalf("Suppress = %v (rules %v), want 2 survivors + 1 unused-pragma finding", got, rules)
	}
	for _, f := range got {
		if f.Rule == "obsring" && f.Pos.Filename == "a.go" {
			t.Errorf("suppressed finding survived: %v", f)
		}
	}
}

func TestSuppressWildcardAndSameLine(t *testing.T) {
	pos := token.Position{Filename: "a.go", Line: 5, Column: 40}
	findings := []Finding{{Pos: pos, Rule: "maporder", Msg: "m"}}
	pragmas := []Pragma{{Pos: token.Position{Filename: "a.go", Line: 5, Column: 60}, Rule: "*", Reason: "demo"}}
	if got := Suppress(findings, pragmas, DefaultRules()); len(got) != 0 {
		t.Fatalf("trailing wildcard pragma should suppress: %v", got)
	}
}

// TestSuppressJudgesOnlyRulesThatRan: under a rule subset, a pragma for a
// default rule that did not run (or a wildcard) is neither used nor
// stale, while a pragma naming no rule at all is still stale.
func TestSuppressJudgesOnlyRulesThatRan(t *testing.T) {
	at := func(line int) token.Position { return token.Position{Filename: "a.go", Line: line} }
	pragmas := []Pragma{
		{Pos: at(1), Rule: "maporder", Reason: "did not run"},
		{Pos: at(3), Rule: "*", Reason: "not every rule ran"},
		{Pos: at(5), Rule: "nosuchrule", Reason: "typo"},
		{Pos: at(7), Rule: "floateq", Reason: "ran, matched nothing"},
	}
	got := Suppress(nil, pragmas, []Rule{FloatEqRule{}})
	var stale []string
	for _, f := range got {
		stale = append(stale, f.Msg)
	}
	if len(got) != 2 || got[0].Pos.Line != 5 || got[1].Pos.Line != 7 {
		t.Fatalf("stale pragmas %v, want the unknown rule (line 5) and floateq (line 7)", stale)
	}
}
