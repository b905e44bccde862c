// Package spec is the serialisable description of simulation work: which
// trace to generate, which schemes to run over it, on what machine
// geometry, under which driver options. Every execution surface —
// cmd/sweep's grid, cmd/paper's sections, the dirsimd daemon's job API —
// describes cells with these types, so a cell means exactly the same
// thing locally and over the wire.
//
// Specs double as cache keys. Canonical renders a spec as canonical JSON
// (object keys sorted, numbers in Go's shortest round-trip form, no
// insignificant whitespace) and Hash digests that encoding with SHA-256;
// two specs hash equal if and only if they describe the same work, which
// is what lets the daemon deduplicate concurrent identical requests and
// serve repeats from its content-addressed result cache. The encoding is
// written in one typed pass over the spec's fields, byte for byte what
// encoding/json's output re-emitted with sorted keys would be, and is
// pinned by golden-hash tests: a change that shifts any hash is a cache
// format break and must be made deliberately.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"dirsim/internal/coherence"
	"dirsim/internal/runner"
	"dirsim/internal/sim"
	"dirsim/internal/study"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

// Sim is the serialisable subset of sim.Options a cell may set. The
// driver-tuning knobs (Parallel, OnProgress) deliberately stay out: they
// change how a result is computed, never what it is, so they must not
// perturb the cache key.
type Sim struct {
	// BlockBytes overrides the coherence block size (0 = the paper's 16).
	BlockBytes int `json:"block_bytes,omitempty"`
	// CacheByProcess selects per-process caches instead of per-CPU.
	CacheByProcess bool `json:"cache_by_process,omitempty"`
	// IncludeFirstRefCosts prices cold misses instead of excluding them.
	IncludeFirstRefCosts bool `json:"include_first_ref_costs,omitempty"`
	// WarmupRefs discards the tallies of that many leading references.
	WarmupRefs int `json:"warmup_refs,omitempty"`
}

// Options expands the wire form into driver options.
func (s Sim) Options() sim.Options {
	o := sim.Options{
		BlockBytes:           s.BlockBytes,
		IncludeFirstRefCosts: s.IncludeFirstRefCosts,
		WarmupRefs:           s.WarmupRefs,
	}
	if s.CacheByProcess {
		o.CacheBy = sim.ByProcess
	}
	return o
}

// Cell is one independent simulation: a generated trace, an optional
// filter over it, and the scheme set to run in lockstep.
type Cell struct {
	// Trace parameterises the synthetic trace generator; equal configs
	// generate identical traces, which is what makes cells cacheable.
	Trace tracegen.Config `json:"trace"`
	// Filter names a trace filter from FilterNames (empty = none).
	Filter string `json:"filter,omitempty"`
	// Schemes are the coherence engines to run (coherence.NewByName
	// names, case-insensitive).
	Schemes []string `json:"schemes"`
	// Machine is the cache/directory geometry shared by all schemes.
	Machine coherence.Config `json:"machine"`
	// Sim tunes the simulation driver.
	Sim Sim `json:"sim"`
}

// filterFunc resolves a filter name. The registry is closed: adding a
// filter here extends every execution surface at once.
func filterFunc(name string) (func(trace.Reader) trace.Reader, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "none":
		return nil, nil
	case "droplockspins":
		return trace.DropLockSpins, nil
	default:
		return nil, fmt.Errorf("spec: unknown trace filter %q", name)
	}
}

// FilterNames lists the trace filters a Cell may name.
func FilterNames() []string { return []string{"droplockspins"} }

// normalized returns a copy with scheme names trimmed and lower-cased and
// the filter name in its canonical spelling, so cosmetic differences in a
// request cannot produce distinct cache keys.
func (c Cell) normalized() Cell {
	out := c
	out.Schemes = make([]string, len(c.Schemes))
	for i, s := range c.Schemes {
		out.Schemes[i] = strings.ToLower(strings.TrimSpace(s))
	}
	f := strings.ToLower(strings.TrimSpace(c.Filter))
	if f == "none" {
		f = ""
	}
	out.Filter = f
	return out
}

// Validate checks every part of the cell, including that each scheme name
// resolves to an engine under the cell's machine configuration.
func (c Cell) Validate() error {
	if err := c.Trace.Validate(); err != nil {
		return err
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if err := c.Sim.Options().Validate(); err != nil {
		return err
	}
	if _, err := filterFunc(c.Filter); err != nil {
		return err
	}
	if len(c.Schemes) == 0 {
		return fmt.Errorf("spec: cell has no schemes")
	}
	for _, s := range c.Schemes {
		if _, err := coherence.NewByName(s, c.Machine); err != nil {
			return err
		}
	}
	return nil
}

// Label identifies the cell in errors, progress output and manifests.
func (c Cell) Label() string {
	return fmt.Sprintf("%s cpus %d seed %d", c.Trace.Name, c.Trace.CPUs, c.Trace.Seed)
}

// Canonical renders the cell as canonical JSON: object keys sorted,
// numbers exactly as Go's shortest round-trip formatting emits them, no
// insignificant whitespace. This is the byte string cache keys digest.
func (c Cell) Canonical() ([]byte, error) {
	return canonicalJSON(c.normalized())
}

// Hash returns the hex SHA-256 of the canonical encoding — the cell's
// content address.
func (c Cell) Hash() (string, error) {
	b, err := c.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Job compiles the cell into a runner job. The trace source opens the
// generator (and applies the filter) each time it is called, so every
// run of the job sees a fresh stream.
func (c Cell) Job() (runner.Job, error) {
	if err := c.Validate(); err != nil {
		return runner.Job{}, err
	}
	filter, err := filterFunc(c.Filter)
	if err != nil {
		return runner.Job{}, err
	}
	cfg := c.Trace
	return runner.Job{
		Label: c.Label(),
		Source: func() (trace.Reader, error) {
			g, err := tracegen.New(cfg)
			if err != nil {
				return nil, err
			}
			if filter != nil {
				return filter(g), nil
			}
			return g, nil
		},
		Schemes: append([]string(nil), c.Schemes...),
		Config:  c.Machine,
		Opts:    c.Sim.Options(),
	}, nil
}

// Preset returns the named workload preset ("pops", "thor" or "pero",
// case-insensitive) sized to refs references.
func Preset(name string, refs int) (tracegen.Config, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "pops":
		return tracegen.POPS(refs), nil
	case "thor":
		return tracegen.THOR(refs), nil
	case "pero":
		return tracegen.PERO(refs), nil
	default:
		return tracegen.Config{}, fmt.Errorf("spec: unknown workload %q", name)
	}
}

// CanonicalSchemes resolves each scheme name to its engine's display name
// (e.g. "dir1nb" → "Dir1NB") under a machine with the given cache count,
// failing fast on any name NewByName rejects.
func CanonicalSchemes(schemes []string, caches int) ([]string, error) {
	out := make([]string, len(schemes))
	for i, name := range schemes {
		e, err := coherence.NewByName(name, coherence.Config{Caches: caches})
		if err != nil {
			return nil, err
		}
		out[i] = e.Name()
	}
	return out, nil
}

// Sweep is a replicated grid: every workload × processor count cell,
// each run once per seed with all schemes in lockstep. It is the wire
// form of cmd/sweep's flag set.
type Sweep struct {
	// Workloads are preset names (see Preset).
	Workloads []string `json:"workloads"`
	// Schemes run in lockstep within every cell.
	Schemes []string `json:"schemes"`
	// CPUs are the machine sizes to sweep.
	CPUs []int `json:"cpus"`
	// Refs is the trace length per cell.
	Refs int `json:"refs"`
	// Seeds is the number of replications per grid point; the seed
	// values come from study.Seeds(1, Seeds), matching cmd/sweep.
	Seeds int `json:"seeds"`
}

// Validate checks the grid parameters.
func (s Sweep) Validate() error {
	if len(s.Workloads) == 0 || len(s.Schemes) == 0 || len(s.CPUs) == 0 {
		return fmt.Errorf("spec: sweep needs workloads, schemes and cpus")
	}
	if s.Refs <= 0 || s.Seeds <= 0 {
		return fmt.Errorf("spec: sweep refs and seeds must be positive")
	}
	_, err := s.Cells()
	return err
}

// Cells flattens the grid in (workload, cpus, seed) order — cell index
// i/Seeds, replication i%Seeds — the order cmd/sweep streams rows in.
func (s Sweep) Cells() ([]Cell, error) {
	if s.Refs <= 0 || s.Seeds <= 0 {
		return nil, fmt.Errorf("spec: sweep refs and seeds must be positive")
	}
	seeds := study.Seeds(1, s.Seeds)
	var cells []Cell
	for _, wl := range s.Workloads {
		base, err := Preset(wl, s.Refs)
		if err != nil {
			return nil, err
		}
		for _, n := range s.CPUs {
			if n < 1 {
				return nil, fmt.Errorf("spec: bad cpu count %d", n)
			}
			cfg := base
			cfg.CPUs = n
			for _, seed := range seeds {
				cell := Cell{
					Trace:   cfg,
					Schemes: append([]string(nil), s.Schemes...),
					Machine: coherence.Config{Caches: n},
				}
				cell.Trace.Seed = seed
				if err := cell.Validate(); err != nil {
					return nil, err
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// Request is what the daemon's POST /v1/jobs accepts: exactly one of a
// single cell or a sweep grid, plus the schema version the spec was
// written against.
type Request struct {
	// Version is the spec schema version (see CurrentVersion). Zero on
	// the wire means "current"; Canonical always pins it, so the version
	// is part of every request's content hash and a schema bump can
	// never collide with a previous generation's cache entries.
	Version int    `json:"version,omitempty"`
	Cell    *Cell  `json:"cell,omitempty"`
	Sweep   *Sweep `json:"sweep,omitempty"`
}

// Validate checks that exactly one spec kind is present and valid.
func (r Request) Validate() error {
	if err := checkRequestVersion(r.Version); err != nil {
		return err
	}
	switch {
	case r.Cell != nil && r.Sweep != nil:
		return fmt.Errorf("spec: request has both cell and sweep")
	case r.Cell != nil:
		return r.Cell.Validate()
	case r.Sweep != nil:
		return r.Sweep.Validate()
	default:
		return fmt.Errorf("spec: request has neither cell nor sweep")
	}
}

// Cells expands the request into its execution cells.
func (r Request) Cells() ([]Cell, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if r.Cell != nil {
		return []Cell{*r.Cell}, nil
	}
	return r.Sweep.Cells()
}

// Canonical renders the request as canonical JSON (see Cell.Canonical).
// The schema version is always pinned — an unversioned wire request
// canonicalises (and hashes) identically to one pinning CurrentVersion.
func (r Request) Canonical() ([]byte, error) {
	out := r
	if out.Version == 0 {
		out.Version = CurrentVersion
	}
	if r.Cell != nil {
		c := r.Cell.normalized()
		out.Cell = &c
	}
	return canonicalJSON(out)
}

// Hash returns the request's content address: the hex SHA-256 of its
// canonical encoding.
func (r Request) Hash() (string, error) {
	b, err := r.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
