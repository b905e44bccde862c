package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoCaptureRule flags goroutine literals that assign to variables captured
// from the enclosing function. The sanctioned shape — the study worker
// pattern in internal/study — passes loop variables as parameters and
// writes results through per-goroutine indexed slots (errs[si] = err),
// which never races; a bare assignment to a captured variable almost
// always does.
type GoCaptureRule struct{}

// Name implements Rule.
func (GoCaptureRule) Name() string { return "gocapture" }

// Doc implements Rule.
func (GoCaptureRule) Doc() string {
	return "goroutine assigns to a captured variable (use parameters and indexed slots)"
}

// Check implements Rule.
func (GoCaptureRule) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				switch s := m.(type) {
				case *ast.AssignStmt:
					if s.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range s.Lhs {
						if id := capturedVar(p.Info, lhs, lit); id != nil {
							out = append(out, p.findingf(lhs.Pos(), "gocapture",
								"goroutine assigns to captured variable %s; pass it as a parameter or write through an indexed slot",
								id.Name))
						}
					}
				case *ast.IncDecStmt:
					if id := capturedVar(p.Info, s.X, lit); id != nil {
						out = append(out, p.findingf(s.Pos(), "gocapture",
							"goroutine increments captured variable %s; use a per-goroutine slot and reduce after Wait",
							id.Name))
					}
				}
				return true
			})
			return true
		})
	}
	return out
}

// capturedVar returns the identifier when expr is a plain variable
// declared outside lit. Writes through index or selector expressions are
// not flagged: indexed slots are the sanctioned result channel, and field
// writes go through a captured pointer the rule cannot prove racy.
func capturedVar(info *types.Info, expr ast.Expr, lit *ast.FuncLit) *ast.Ident {
	id, ok := expr.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !declaredOutside(v, lit) {
		return nil
	}
	return id
}

// declaredOutside reports whether obj is declared outside lit: captured
// by the closure rather than one of its locals or parameters.
func declaredOutside(obj types.Object, lit *ast.FuncLit) bool {
	return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
}
