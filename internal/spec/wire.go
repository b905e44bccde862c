package spec

import (
	"encoding/json"
	"errors"
	"fmt"

	"dirsim/internal/coherence"
	"dirsim/internal/obs"
)

// Wire types of the dirsimd job API, shared by the daemon and the remote
// client so the two cannot drift apart.

// SchemeResult is one engine's outcome within a cell: the full stats
// tally, from which any of the paper's metrics can be priced client-side
// exactly as a local run would.
type SchemeResult struct {
	Scheme string           `json:"scheme"`
	Stats  *coherence.Stats `json:"stats"`
}

// CellResult pairs a cell's canonical spec with its per-scheme results.
// Results stays raw JSON (an array of SchemeResult) so the daemon can
// splice stored per-cell documents into a merged result without a
// decode/re-encode round trip — byte identity across restarts holds by
// construction, not by trusting marshal stability.
type CellResult struct {
	Spec    json.RawMessage `json:"spec"`
	Results json.RawMessage `json:"results"`
}

// SchemeResults decodes the raw results array.
func (cr CellResult) SchemeResults() ([]SchemeResult, error) {
	var out []SchemeResult
	if err := json.Unmarshal(cr.Results, &out); err != nil {
		return nil, fmt.Errorf("spec: cell results: %w", err)
	}
	return out, nil
}

// CellDoc is one cell's durable result: what the daemon's per-cell disk
// cache stores under the cell's own content hash. A sweep interrupted by
// a crash resumes by re-reading these — cells with a stored CellDoc are
// never simulated twice. SpecVersion gates reuse exactly as it does for
// ResultDoc (see CheckDocVersion).
type CellDoc struct {
	SpecVersion int             `json:"spec_version"`
	Spec        json.RawMessage `json:"spec"`
	Results     json.RawMessage `json:"results"`
}

// VerifyCellDoc checks a cell document received from an untrusted
// transport (a cluster peer) against the content address it was
// requested under. The document must be from the current schema
// generation, and its embedded spec must re-hash to exactly hash, so a
// peer cannot pass off results for different work. It must carry one
// result per scheme the spec names, in spec order, each under the name
// the engine for that scheme reports, with Stats whose events partition
// its references. Where the scheme has a per-event cost table, its
// operations must equal its events priced by that table plus its
// eviction write-backs (coherence.VerifyAccounting). That check is
// skipped only for Stats with sparse-directory entry replacements, which
// a cell without a sparse directory (Machine.DirEntries 0) must not
// report. The other counts are not re-derived: a peer that forges Stats
// satisfying these checks goes undetected.
func VerifyCellDoc(hash string, data []byte) error {
	if err := CheckDocVersion(data); err != nil {
		return err
	}
	var cd CellDoc
	if err := json.Unmarshal(data, &cd); err != nil {
		return fmt.Errorf("spec: cell document: %w", err)
	}
	var c Cell
	if err := json.Unmarshal(cd.Spec, &c); err != nil {
		return fmt.Errorf("spec: cell document spec: %w", err)
	}
	got, err := c.Hash()
	if err != nil {
		return fmt.Errorf("spec: cell document spec: %w", err)
	}
	if got != hash {
		return fmt.Errorf("spec: cell document content address mismatch: spec hashes to %.12s…, requested %.12s…", got, hash)
	}
	var results []SchemeResult
	if err := json.Unmarshal(cd.Results, &results); err != nil {
		return fmt.Errorf("spec: cell document results: %w", err)
	}
	if len(results) != len(c.Schemes) {
		return fmt.Errorf("spec: cell document has %d results for %d schemes", len(results), len(c.Schemes))
	}
	for i, r := range results {
		name, err := coherence.SchemeName(c.Schemes[i])
		if err != nil {
			return fmt.Errorf("spec: cell document spec: %w", err)
		}
		switch {
		case r.Scheme != name:
			return fmt.Errorf("spec: cell document result %d is %q, want %q for scheme %q", i, r.Scheme, name, c.Schemes[i])
		case r.Stats == nil:
			return fmt.Errorf("spec: cell document result %d (%s) has no stats", i, r.Scheme)
		case r.Stats.Events.Total() != r.Stats.Refs:
			return fmt.Errorf("spec: cell document result %d (%s): events total %d for %d refs",
				i, r.Scheme, r.Stats.Events.Total(), r.Stats.Refs)
		case c.Machine.DirEntries == 0 && r.Stats.DirEntryEvictions > 0:
			return fmt.Errorf("spec: cell document result %d (%s): %d directory entry replacements without a sparse directory",
				i, r.Scheme, r.Stats.DirEntryEvictions)
		}
		if err := coherence.VerifyAccounting(r.Scheme, r.Stats); err != nil && !errors.Is(err, coherence.ErrNotCheckable) {
			return fmt.Errorf("spec: cell document result %d: %w", i, err)
		}
	}
	return nil
}

// ResultDoc is the completed-job document: what GET /v1/jobs/{id}
// returns for a finished job, what the content-addressed cache stores,
// and what every concurrent identical submission receives byte for byte.
// SpecVersion records the schema generation that produced it; the cache
// refuses to serve documents from any other generation.
type ResultDoc struct {
	ID          string          `json:"id"`
	SpecVersion int             `json:"spec_version"`
	Status      string          `json:"status"`
	Request     json.RawMessage `json:"request"`
	Cells       []CellResult    `json:"cells"`
}

// JobStatus is the response for a job that has not completed (and the
// envelope async submissions receive).
type JobStatus struct {
	ID       string        `json:"id"`
	Status   string        `json:"status"`
	Tenant   string        `json:"tenant,omitempty"`
	Class    string        `json:"class,omitempty"`
	Error    string        `json:"error,omitempty"`
	Progress *obs.Snapshot `json:"progress,omitempty"`
}

// EnginesDoc is GET /v1/engines.
type EnginesDoc struct {
	Engines []string `json:"engines"`
	Filters []string `json:"filters"`
}

// PeerMetrics is one fleet member's slice of the federated metrics
// document: its address, whether it is the answering daemon itself, and
// either its metrics snapshot (Up) or the fetch error that replaced it.
// A federation answer lists every membership peer, so a dead daemon is
// a visible row with Up=false — absence of data is itself data.
type PeerMetrics struct {
	Addr    string        `json:"addr"`
	Self    bool          `json:"self,omitempty"`
	Up      bool          `json:"up"`
	Error   string        `json:"error,omitempty"`
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// ClusterMetricsDoc is GET /v1/cluster/metrics: the whole fleet's
// metrics in one response, fetched live from each peer's /metrics by
// the daemon that answers.
type ClusterMetricsDoc struct {
	Peers []PeerMetrics `json:"peers"`
}
