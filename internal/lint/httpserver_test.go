package lint

import (
	"strings"
	"testing"
)

var httpServerBare = fixture{name: "httpserver-server-bare", path: "dirsim/internal/fix", src: `package fix
import (
	"net/http"
	"time"
)
func bare() *http.Server {
	return &http.Server{Addr: ":8080"}
}
func alsoBare() http.Server {
	return http.Server{}
}
var _ = time.Second
`}

var httpServerBounded = fixture{name: "httpserver-server-bounded", path: "dirsim/internal/fix", src: `package fix
import (
	"net/http"
	"time"
)
func bounded() *http.Server {
	return &http.Server{Addr: ":8080", ReadHeaderTimeout: 5 * time.Second}
}
type notAServer struct{ Addr string }
func other() notAServer {
	return notAServer{Addr: ":8080"}
}
`}

func TestHTTPServerRuleServerLiteral(t *testing.T) {
	fs := lintFixture(t, httpServerBare, HTTPServerRule{})
	wantFindings(t, fs, HTTPServerRule{}, 2)
	if !strings.Contains(fs[0].Msg, "ReadHeaderTimeout") {
		t.Errorf("finding should name the missing field, got %v", fs[0])
	}

	wantFindings(t, lintFixture(t, httpServerBounded, HTTPServerRule{}), HTTPServerRule{}, 0)
}

var httpClientNaked = fixture{name: "httpserver-client-naked", path: "dirsim/internal/fix", src: `package fix
import "net/http"
func naked() *http.Client {
	return &http.Client{}
}
func deflt() *http.Client {
	return http.DefaultClient
}
func helper() {
	http.Get("http://example.invalid/")
	http.Post("http://example.invalid/", "text/plain", nil)
	http.Head("http://example.invalid/")
	http.PostForm("http://example.invalid/", nil)
}
`}

var httpClientBounded = fixture{name: "httpserver-client-bounded", path: "dirsim/internal/fix", src: `package fix
import (
	"net/http"
	"time"
)
func timed() *http.Client {
	return &http.Client{Timeout: 10 * time.Second}
}
func bounded() *http.Client {
	// An explicit Transport is the caller saying "my deadlines are
	// per-request contexts"; the dial bounds still apply.
	return &http.Client{Transport: &http.Transport{}}
}
type notAClient struct{ Timeout int }
func other() notAClient {
	return notAClient{}
}
func okNames() {
	// Same selector names on a non-http package value must not fire.
	c := timed()
	_, _ = c.Get("http://example.invalid/")
	_ = http.StatusOK
}
`}

func TestHTTPServerRuleOutboundClient(t *testing.T) {
	fs := lintFixture(t, httpClientNaked, HTTPServerRule{})
	wantFindings(t, fs, HTTPServerRule{}, 6)
	if !strings.Contains(fs[0].Msg, "Timeout") {
		t.Errorf("finding should name the missing deadline, got %v", fs[0])
	}

	wantFindings(t, lintFixture(t, httpClientBounded, HTTPServerRule{}), HTTPServerRule{}, 0)
}

var httpHandlerSpawn = fixture{name: "httpserver-handler-spawn", path: "dirsim/internal/fix", src: `package fix
import "net/http"
func audit(s string) {}
func handler(w http.ResponseWriter, r *http.Request) {
	go audit(r.URL.Path)
	w.WriteHeader(http.StatusOK)
}
func register() {
	http.HandleFunc("/x", func(w http.ResponseWriter, r *http.Request) {
		go func() {
			audit("x")
		}()
	})
}
`}

var httpHandlerContext = fixture{name: "httpserver-handler-context", path: "dirsim/internal/fix", src: `package fix
import (
	"context"
	"net/http"
)
func work(ctx context.Context, s string) {}
func handler(w http.ResponseWriter, r *http.Request) {
	// Direct argument: the goroutine call carries the request context.
	go work(r.Context(), r.URL.Path)
}
func closureHandler(w http.ResponseWriter, r *http.Request) {
	// Captured inside the spawned literal's body.
	ctx := r.Context()
	go func() {
		work(ctx, "y")
	}()
}
func notAHandler(a string, b int) {
	// Goroutines outside handler signatures are another rule's business.
	go func() {}()
}
`}

func TestHTTPServerRuleHandlerGoroutine(t *testing.T) {
	fs := lintFixture(t, httpHandlerSpawn, HTTPServerRule{})
	wantFindings(t, fs, HTTPServerRule{}, 2)
	if !strings.Contains(fs[0].Msg, "context") {
		t.Errorf("finding should mention the missing context, got %v", fs[0])
	}

	wantFindings(t, lintFixture(t, httpHandlerContext, HTTPServerRule{}), HTTPServerRule{}, 0)
}
