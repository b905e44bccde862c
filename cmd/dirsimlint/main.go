// Command dirsimlint runs the dirsim-specific static analysis suite
// (internal/lint) over the module, and — with -mc — the explicit-state
// protocol model checker (internal/mc) over the coherence engines.
//
// Usage:
//
//	dirsimlint ./...                 lint the whole module
//	dirsimlint -list                 show the rules
//	dirsimlint -rules floateq ./...  run a subset of rules
//	dirsimlint -format=sarif ./...   SARIF 2.1.0 for code scanning
//	dirsimlint -mc                   explore every engine's state graph
//	dirsimlint -mc -schemes dir1nb,moesi -blocks 2
//
// Findings can be suppressed at the source line with
//
//	//lint:ignore <rule> <reason>
//
// on the offending line or the line above it; a pragma that suppresses
// nothing is itself reported, so stale ignores cannot accumulate. Under
// -rules, only pragmas for the selected rules are judged.
//
// Exit codes: 0 when clean, 1 when findings or invariant violations are
// reported or a -mc exploration was truncated, 2 when the module cannot be loaded (or the flags are
// unusable). CI distinguishes "code has findings" from "the linter
// itself broke".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dirsim/internal/coherence"
	"dirsim/internal/lint"
	"dirsim/internal/mc"
)

// Exit codes.
const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

func main() {
	mcMode := flag.Bool("mc", false, "model-check engine state graphs instead of linting")
	schemes := flag.String("schemes", "", "comma-separated schemes for -mc (default: every engine)")
	caches := flag.Int("caches", 2, "caches in the -mc universe")
	blocks := flag.Int("blocks", 1, "distinct blocks in the -mc universe")
	rules := flag.String("rules", "", "comma-separated rule names to run (default: all)")
	list := flag.Bool("list", false, "list the lint rules and exit")
	dir := flag.String("C", ".", "directory inside the module to lint")
	format := flag.String("format", "text", "output format: text, json or sarif")
	flag.Parse()

	os.Exit(run(os.Stdout, os.Stderr, options{
		mcMode: *mcMode, schemes: *schemes, caches: *caches, blocks: *blocks,
		rules: *rules, list: *list, dir: *dir, patterns: flag.Args(),
		format: *format,
	}))
}

// options collects the command's flags.
type options struct {
	mcMode         bool
	schemes        string
	caches, blocks int
	rules          string
	list           bool
	dir            string
	patterns       []string
	format         string

	// maxNodes overrides the model checker's node cap; tests lower it to
	// provoke truncation cheaply. Zero keeps mc's default.
	maxNodes int
}

// run executes one invocation and returns the process exit code.
func run(w, errw io.Writer, opts options) int {
	code, err := runE(w, opts)
	if err != nil {
		fmt.Fprintf(errw, "dirsimlint: %v\n", err)
	}
	return code
}

// runE dispatches one invocation; every error it returns is an
// operational failure (exit 2), never a finding.
func runE(w io.Writer, opts options) (int, error) {
	if opts.list {
		for _, r := range lint.DefaultRules() {
			fmt.Fprintf(w, "%-12s %s\n", r.Name(), r.Doc())
		}
		return exitClean, nil
	}
	if opts.mcMode {
		return runMC(w, opts)
	}
	return runLint(w, opts)
}

// runLint loads the requested packages, applies the rules, honours
// pragmas, and renders the survivors.
func runLint(w io.Writer, opts options) (int, error) {
	rules, err := selectRules(opts.rules)
	if err != nil {
		return exitError, err
	}
	switch opts.format {
	case "", "text", "json", "sarif":
	default:
		return exitError, fmt.Errorf("unknown format %q (want text, json or sarif)", opts.format)
	}
	pkgs, err := lint.Load(opts.dir, opts.patterns...)
	if err != nil {
		return exitError, err
	}
	relFile := relativizer(pkgs)

	findings := lint.Run(pkgs, rules)
	pragmas, malformed := lint.CollectPragmas(pkgs)
	findings = append(lint.Suppress(findings, pragmas, rules), malformed...)
	lint.SortFindings(findings)

	switch opts.format {
	case "json":
		if err := writeJSON(w, findings, relFile); err != nil {
			return exitError, err
		}
	case "sarif":
		data, err := lint.MarshalSARIF(findings, rules, relFile)
		if err != nil {
			return exitError, err
		}
		if _, err := w.Write(data); err != nil {
			return exitError, err
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(w, f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(w, "%d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		}
	}
	if len(findings) > 0 {
		return exitFindings, nil
	}
	return exitClean, nil
}

// relativizer maps absolute finding filenames to module-relative,
// slash-separated paths — the form JSON output and SARIF artifact URIs
// use.
func relativizer(pkgs []*lint.Package) func(string) string {
	root := ""
	if len(pkgs) > 0 {
		root = pkgs[0].Root
	}
	return func(name string) string {
		if root != "" {
			if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
				return filepath.ToSlash(rel)
			}
		}
		return filepath.ToSlash(name)
	}
}

// jsonFinding is the -format=json shape of one finding.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// writeJSON renders findings as a JSON array (always an array, never
// null, so consumers can index unconditionally).
func writeJSON(w io.Writer, findings []lint.Finding, relFile func(string) string) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File: relFile(f.Pos.Filename), Line: f.Pos.Line, Col: f.Pos.Column,
			Rule: f.Rule, Msg: f.Msg,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// selectRules resolves a comma-separated rule list against DefaultRules,
// keeping the first of any repeated name.
func selectRules(names string) ([]lint.Rule, error) {
	if names == "" {
		return lint.DefaultRules(), nil
	}
	byName := map[string]lint.Rule{}
	for _, r := range lint.DefaultRules() {
		byName[r.Name()] = r
	}
	var out []lint.Rule
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		r, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (try -list)", n)
		}
		if r == nil {
			continue // repeated: already selected
		}
		out = append(out, r)
		byName[n] = nil
	}
	return out, nil
}

// runMC explores every requested engine's reachable state graph and
// prints one summary line per engine, plus any violations found. An
// exploration cut short by the node cap is reported as incomplete, not as
// a violation, but it still fails the run: unexplored states are unchecked.
func runMC(w io.Writer, opts options) (int, error) {
	names := coherence.EngineNames()
	if opts.schemes != "" {
		names = strings.Split(opts.schemes, ",")
	}
	violated := false
	var truncated []string
	for _, name := range names {
		name = strings.TrimSpace(name)
		res, err := mc.ExploreScheme(name, mc.Options{Caches: opts.caches, Blocks: opts.blocks, MaxNodes: opts.maxNodes})
		if err != nil {
			return exitError, err
		}
		fmt.Fprintf(w, "%-14s %4d states, %5d edges, %5d transitions, depth %2d",
			res.Engine, res.Nodes, res.Edges, res.Transitions, res.Depth)
		if res.Truncated {
			fmt.Fprint(w, " (truncated)")
			truncated = append(truncated, res.Engine)
		}
		if len(res.Unreachable) > 0 {
			fmt.Fprintf(w, "; unreachable: %s", strings.Join(res.Unreachable, " "))
		}
		fmt.Fprintln(w)
		for _, v := range res.Violations {
			fmt.Fprintf(w, "  VIOLATION %v\n", v)
			violated = true
		}
	}
	if violated {
		fmt.Fprintln(w, "model checking found violations")
	}
	if len(truncated) > 0 {
		fmt.Fprintf(w, "exploration truncated at the node cap, so the check is incomplete for: %s\n",
			strings.Join(truncated, ", "))
	}
	if violated || len(truncated) > 0 {
		return exitFindings, nil
	}
	return exitClean, nil
}
