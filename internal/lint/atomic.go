package lint

import "go/ast"

// AtomicWriteRule flags direct in-place artifact writes — os.Create and
// os.WriteFile — anywhere in the module outside internal/atomicio. A
// result file written in place is torn by a crash and visible half-done
// to concurrent readers; internal/atomicio's temp-file + fsync + rename
// sequence is the sanctioned way to produce sweep CSVs, paper tables,
// generated traces, checkpoints and manifests.
type AtomicWriteRule struct{}

// Name implements Rule.
func (AtomicWriteRule) Name() string { return "atomicwrite" }

// Doc implements Rule.
func (AtomicWriteRule) Doc() string {
	return "direct os.Create/os.WriteFile outside internal/atomicio (use its temp+fsync+rename helpers for crash-safe artifacts)"
}

// Check implements Rule.
func (AtomicWriteRule) Check(p *Package) []Finding {
	if pathWithin(p.Path, p.Module+"/internal/atomicio") {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if path, name := pkgSel(p.Info, call.Fun); path == "os" && (name == "Create" || name == "WriteFile") {
				out = append(out, p.findingf(call.Pos(), "atomicwrite",
					"os.%s writes the final path in place; a crash leaves a torn artifact — write via internal/atomicio (temp file + fsync + rename)",
					name))
			}
			return true
		})
	}
	return out
}
