// Package remote is the client side of the dirsimd job API: it submits
// spec.Requests to a daemon, waits for the result document, and rebuilds
// sim.Results that price identically to a local run — including
// cost-model adjustments that do not survive serialisation, which
// sim.RemoteResult rederives from the scheme name.
//
// Transient daemon saturation is absorbed, not fatal: a 429 (per-tenant
// quota or queue full) or a 503 (journal replay after a restart) is
// retried on a deterministic exponential-backoff-with-jitter
// RetryPolicy, honouring the daemon's Retry-After header as a floor.
// Submission is idempotent by construction — jobs are content-addressed
// — so a retried POST can only attach to the same work, never duplicate
// it.
package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dirsim/internal/otrace"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
)

// defaultClient is the fallback transport when Client.HTTP is nil. It
// deliberately sets no overall Timeout — a ?wait=1 submission legitimately
// holds its connection open for the whole job, bounded by the caller's
// context — but every connection-establishment step is bounded, so a dead
// daemon fails the dial in seconds instead of hanging the caller forever.
var defaultClient = &http.Client{
	Transport: &http.Transport{
		Proxy:                 http.ProxyFromEnvironment,
		DialContext:           (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
		TLSHandshakeTimeout:   10 * time.Second,
		ResponseHeaderTimeout: 0, // long-poll: the job runs before headers arrive
	},
}

// Client talks to one dirsimd daemon.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8023".
	BaseURL string
	// HTTP is the transport; nil means a shared client with bounded
	// dial and TLS timeouts but no overall deadline (wait=1 submissions
	// long-poll; bound them with the request context).
	HTTP *http.Client
	// APIKey, when non-empty, is sent as Authorization: Bearer on every
	// request. Daemons running with tenants configured require it.
	APIKey string
	// Retry bounds how 429/503 answers are retried (Max < 2 disables
	// retries). The schedule is deterministic exponential backoff with
	// jitter, so a saturated daemon is probed on the same reproducible
	// cadence every run.
	Retry RetryPolicy
	// Sleep waits out retry backoff (cmd layers pass time.Sleep; nil
	// applies the schedule without waiting, which is what tests want).
	Sleep func(time.Duration)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

// errorBody extracts the daemon's JSON error envelope, falling back to
// the raw body.
func errorBody(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}

// retryable reports whether an HTTP status is transient daemon
// saturation: over quota / queue full (429) or not ready — draining or
// replaying its journal after a restart (503).
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// backoffFor combines the policy's deterministic schedule with the
// daemon's Retry-After hint (seconds), whichever is longer.
func (c *Client) backoffFor(attempt int, retryAfter string) time.Duration {
	d := c.Retry.Backoff(0, attempt)
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs >= 0 {
		if ra := time.Duration(secs) * time.Second; ra > d {
			d = ra
		}
	}
	return d
}

// do issues one request with auth headers, reading the whole body.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("remote: %w", err)
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if c.APIKey != "" {
		hreq.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	if tc, ok := otrace.From(ctx); ok {
		hreq.Header.Set(otrace.HeaderName, tc.String())
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("remote: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("remote: reading response: %w", err)
	}
	return resp.StatusCode, resp.Header, data, nil
}

// doRetrying runs do under the retry policy: transient saturation
// answers (429/503) are retried up to Retry.Max attempts with the
// jittered backoff, honouring Retry-After; everything else — success,
// hard errors, transport failures — returns immediately.
func (c *Client) doRetrying(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	max := c.Retry.Max
	if max < 1 {
		max = 1
	}
	var (
		status int
		data   []byte
	)
	for attempt := 1; ; attempt++ {
		var (
			hdr http.Header
			err error
		)
		status, hdr, data, err = c.do(ctx, method, path, body)
		if err != nil {
			return 0, nil, err
		}
		if !retryable(status) || attempt >= max {
			return status, data, nil
		}
		delay := c.backoffFor(attempt, hdr.Get("Retry-After"))
		if c.Sleep != nil && delay > 0 {
			c.Sleep(delay)
		}
		if err := ctx.Err(); err != nil {
			return status, data, fmt.Errorf("remote: %w", err)
		}
	}
}

// Run submits the request with wait semantics and returns the parsed
// result document. The call blocks until the daemon finishes the job (or
// serves it from cache); cancelling ctx disconnects, which withdraws this
// client's interest in the job. Saturation (429) and daemon restarts
// (503) are retried per the client's Retry policy.
func (c *Client) Run(ctx context.Context, req spec.Request) (*spec.ResultDoc, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	status, data, err := c.doRetrying(ctx, http.MethodPost, "/v1/jobs?wait=1", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("remote: daemon answered %d %s: %s", status, http.StatusText(status), errorBody(data))
	}
	var doc spec.ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("remote: bad result document: %w", err)
	}
	if doc.Status != "done" {
		return nil, fmt.Errorf("remote: job %s ended %q", doc.ID, doc.Status)
	}
	return &doc, nil
}

// Engines fetches the daemon's engine and filter registries.
func (c *Client) Engines(ctx context.Context) (spec.EnginesDoc, error) {
	var doc spec.EnginesDoc
	status, data, err := c.doRetrying(ctx, http.MethodGet, "/v1/engines", nil)
	if err != nil {
		return doc, err
	}
	if status != http.StatusOK {
		return doc, fmt.Errorf("remote: daemon answered %d %s: %s", status, http.StatusText(status), errorBody(data))
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("remote: %w", err)
	}
	return doc, nil
}

// Results rebuilds runnable sim.Results from a result document, one slice
// per cell in document order. cells must be the same expansion the
// request was built from — each cell's machine config is what rederives
// the scheme's cost-model adjustment.
func Results(doc *spec.ResultDoc, cells []spec.Cell) ([][]sim.Result, error) {
	if len(doc.Cells) != len(cells) {
		return nil, fmt.Errorf("remote: result has %d cells, request expanded to %d", len(doc.Cells), len(cells))
	}
	out := make([][]sim.Result, len(cells))
	for i, cr := range doc.Cells {
		srs, err := cr.SchemeResults()
		if err != nil {
			return nil, fmt.Errorf("remote: cell %d: %w", i, err)
		}
		if len(srs) != len(cells[i].Schemes) {
			return nil, fmt.Errorf("remote: cell %d has %d scheme results, want %d", i, len(srs), len(cells[i].Schemes))
		}
		rs := make([]sim.Result, len(srs))
		for k, sr := range srs {
			r, err := sim.RemoteResult(sr.Scheme, cells[i].Machine, sr.Stats)
			if err != nil {
				return nil, fmt.Errorf("remote: cell %d: %w", i, err)
			}
			rs[k] = r
		}
		out[i] = rs
	}
	return out, nil
}

// RunCells is the convenience composition: submit, wait, rebuild.
func (c *Client) RunCells(ctx context.Context, req spec.Request) ([][]sim.Result, error) {
	cells, err := req.Cells()
	if err != nil {
		return nil, err
	}
	doc, err := c.Run(ctx, req)
	if err != nil {
		return nil, err
	}
	return Results(doc, cells)
}
