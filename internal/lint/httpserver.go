package lint

import (
	"go/ast"
	"go/types"
)

// HTTPServerRule guards the service layer's two classic footguns:
//
//   - an http.Server composite literal without ReadHeaderTimeout lets a
//     slow client hold a connection (and its goroutine) open forever —
//     the daemon must bound header reads;
//   - an HTTP handler that spawns a goroutine whose call references no
//     context.Context has detached work from the request lifecycle: it
//     can observe neither client disconnect nor graceful shutdown. Work
//     that must outlive the request should be handed to an owner that
//     was started with its own context, not forked loose;
//   - an outbound http.Client composite literal that sets neither
//     Timeout nor Transport (and any use of http.DefaultClient or the
//     package-level http.Get/Post/Head/PostForm helpers, which are that
//     client) can block a goroutine forever on an unresponsive peer.
//     Callers that deliberately rely on per-request context deadlines
//     must still say so by setting an explicit Transport with bounded
//     dial/TLS timeouts.
type HTTPServerRule struct{}

// Name implements Rule.
func (HTTPServerRule) Name() string { return "httpserver" }

// Doc implements Rule.
func (HTTPServerRule) Doc() string {
	return "http.Server without ReadHeaderTimeout, handler goroutine without a context, or outbound http.Client without a deadline"
}

// Check implements Rule.
func (HTTPServerRule) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				if isNamedType(p.Info.TypeOf(x), "net/http", "Server") && !hasFieldKey(x, "ReadHeaderTimeout") {
					out = append(out, p.findingf(x.Pos(), "httpserver",
						"http.Server literal without ReadHeaderTimeout; a slow client can hold its connection open forever"))
				}
				if isNamedType(p.Info.TypeOf(x), "net/http", "Client") && !hasFieldKey(x, "Timeout") && !hasFieldKey(x, "Transport") {
					out = append(out, p.findingf(x.Pos(), "httpserver",
						"http.Client literal with neither Timeout nor Transport; an unresponsive peer blocks the caller forever"))
				}
			case *ast.SelectorExpr:
				if path, name := pkgSel(p.Info, x); path == "net/http" && name == "DefaultClient" {
					out = append(out, p.findingf(x.Pos(), "httpserver",
						"http.DefaultClient has no timeout; build a client with a Timeout or a bounded Transport"))
				}
			case *ast.CallExpr:
				if path, name := pkgSel(p.Info, x.Fun); path == "net/http" &&
					(name == "Get" || name == "Post" || name == "Head" || name == "PostForm") {
					out = append(out, p.findingf(x.Pos(), "httpserver",
						"http."+name+" uses the deadline-free DefaultClient; use a client with a Timeout or a bounded Transport"))
				}
			case *ast.FuncDecl:
				if x.Body != nil && isHandlerSig(p.Info.ObjectOf(x.Name).Type()) {
					out = append(out, handlerGoroutines(p, x.Body)...)
				}
			case *ast.FuncLit:
				if isHandlerSig(p.Info.TypeOf(x)) {
					out = append(out, handlerGoroutines(p, x.Body)...)
				}
			}
			return true
		})
	}
	return out
}

// handlerGoroutines flags go statements inside a handler body whose
// spawned call subtree never mentions a context.Context value.
func handlerGoroutines(p *Package, body *ast.BlockStmt) []Finding {
	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if !scanSpawn(p.Info, gs).SeesContext {
			out = append(out, p.findingf(gs.Pos(), "httpserver",
				"handler spawns a goroutine with no context; derive one from the request (or hand the work to an owner with its own lifecycle)"))
		}
		return true
	})
	return out
}

// isHandlerSig reports whether t is the http.HandlerFunc shape:
// func(http.ResponseWriter, *http.Request).
func isHandlerSig(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	return ok && sig.Params().Len() == 2 &&
		isNamedType(sig.Params().At(0).Type(), "net/http", "ResponseWriter") &&
		isNamedType(sig.Params().At(1).Type(), "net/http", "Request")
}

// hasFieldKey reports whether the composite literal sets the named field.
func hasFieldKey(lit *ast.CompositeLit, name string) bool {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == name {
			return true
		}
	}
	return false
}

// isNamedType reports whether t (possibly behind one pointer) is the
// named type path.name.
func isNamedType(t types.Type, path, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}
