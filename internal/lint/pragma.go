package lint

import (
	"go/token"
	"sort"
	"strings"
)

// Suppression pragmas. A comment of the form
//
//	//lint:ignore <rule> <reason>
//
// suppresses findings of <rule> on the comment's own line or the line
// directly below it (so it works both as a trailing comment and on its
// own line above the offending statement). The reason is mandatory: a
// suppression without a recorded justification is itself a finding, as
// is a pragma that suppresses nothing — stale ignores otherwise
// accumulate and silently mask regressions.

// Pragma is one parsed //lint:ignore directive.
type Pragma struct {
	// Pos is the comment's position.
	Pos token.Position
	// Rule is the rule name being suppressed; "*" matches every rule.
	Rule string
	// Reason is the mandatory justification text.
	Reason string
}

// pragmaPrefix introduces a suppression comment. No space after // — the
// directive convention shared with //go:build and friends.
const pragmaPrefix = "//lint:ignore"

// ParseIgnore parses one comment's text. It returns ok = false when the
// comment is not a //lint:ignore directive at all, and malformed = true
// when it is one but lacks a rule or a reason.
func ParseIgnore(text string) (p Pragma, ok, malformed bool) {
	if !strings.HasPrefix(text, pragmaPrefix) {
		return Pragma{}, false, false
	}
	rest := text[len(pragmaPrefix):]
	// "//lint:ignoreX" is some other (unknown) directive, not ours.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return Pragma{}, false, false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return Pragma{}, true, true
	}
	reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
	return Pragma{Rule: fields[0], Reason: reason}, true, false
}

// CollectPragmas gathers every //lint:ignore directive in pkgs, plus a
// finding for each malformed one. Pragmas are returned in position order.
func CollectPragmas(pkgs []*Package) ([]Pragma, []Finding) {
	var pragmas []Pragma
	var bad []Finding
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pr, ok, malformed := ParseIgnore(c.Text)
					if !ok {
						continue
					}
					if malformed {
						bad = append(bad, p.findingf(c.Pos(), "suppression",
							"malformed suppression: want %s <rule> <reason>", pragmaPrefix))
						continue
					}
					pr.Pos = p.Fset.Position(c.Pos())
					pragmas = append(pragmas, pr)
				}
			}
		}
	}
	sort.Slice(pragmas, func(i, j int) bool {
		a, b := pragmas[i], pragmas[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return pragmas, bad
}

// Suppress drops the findings covered by pragmas and returns the survivors
// together with one "suppression" finding per pragma that matched nothing
// — an unused ignore is stale and must be deleted, not shipped. ran are
// the rules that produced findings: a pragma naming a default rule that
// did not run (or "*", unless every default rule ran) cannot be judged
// and is neither used nor stale. A pragma naming an unknown rule is
// always stale.
func Suppress(findings []Finding, pragmas []Pragma, ran []Rule) []Finding {
	skipped := map[string]bool{}
	for _, r := range DefaultRules() {
		skipped[r.Name()] = true
	}
	for _, r := range ran {
		delete(skipped, r.Name())
	}
	if len(skipped) > 0 {
		skipped["*"] = true
	}
	used := make([]bool, len(pragmas))
	var kept []Finding
	for _, f := range findings {
		suppressed := false
		for i, pr := range pragmas {
			if pr.Pos.Filename != f.Pos.Filename {
				continue
			}
			if f.Pos.Line != pr.Pos.Line && f.Pos.Line != pr.Pos.Line+1 {
				continue
			}
			if pr.Rule != "*" && pr.Rule != f.Rule {
				continue
			}
			used[i] = true
			suppressed = true
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	for i, pr := range pragmas {
		if !used[i] && !skipped[pr.Rule] {
			kept = append(kept, Finding{Pos: pr.Pos, Rule: "suppression",
				Msg: "unused suppression for rule " + pr.Rule + " — no finding matches; delete the pragma"})
		}
	}
	return kept
}
