package spec

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// CurrentVersion is the spec schema version. It is part of every
// request's canonical JSON (and therefore of its content hash) and is
// stamped into every stored result document as "spec_version". Bump it
// whenever the meaning of a spec changes — a field is added whose zero
// value used to be implied differently, a preset is retuned, a cost
// model shifts — and every cached result from the previous schema is
// automatically re-simulated instead of silently reused: version
// mismatch is a cache miss, never a cache hit.
const CurrentVersion = 1

// VersionError is the typed failure for any spec-version problem: a
// request carrying a version this build does not speak, or a stored
// document whose version field is missing, garbage, or from another
// schema generation. Callers treat it as "re-simulate", never as data.
type VersionError struct {
	// Got describes the offending version as found: a number, "missing",
	// or a short description of the malformed value.
	Got string
	// Want is the version this build speaks.
	Want int
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("spec: version %s not supported (this build speaks version %d)", e.Got, e.Want)
}

// versionProbe is the loose header parse applied to stored documents:
// only the version field, as raw bytes, so a document from any schema
// generation — or a corrupted one — can be classified without knowing
// its shape.
type versionProbe struct {
	SpecVersion json.RawMessage `json:"spec_version"`
}

// CheckDocVersion classifies a stored result document by its
// "spec_version" field. It returns nil exactly when the field is the
// integer CurrentVersion; every other outcome — unparseable document,
// missing or null field, non-integer value, other generation — is a
// *VersionError. The disk cache treats any non-nil return as a miss, so
// results written by other schema generations are re-simulated, never
// served.
func CheckDocVersion(data []byte) error {
	var p versionProbe
	if err := json.Unmarshal(data, &p); err != nil {
		return &VersionError{Got: "unreadable (not a JSON document)", Want: CurrentVersion}
	}
	return checkRawVersion(p.SpecVersion)
}

// checkRawVersion classifies a document's raw "spec_version" value as
// CheckDocVersion does: nil exactly for the integer CurrentVersion, and
// a *VersionError for an absent or null value, a non-integer, or another
// generation.
func checkRawVersion(version json.RawMessage) error {
	raw := string(version)
	if raw == "" || raw == "null" {
		return &VersionError{Got: "missing", Want: CurrentVersion}
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		if len(raw) > 32 {
			raw = raw[:32] + "…"
		}
		return &VersionError{Got: fmt.Sprintf("malformed (%s)", raw), Want: CurrentVersion}
	}
	if v != CurrentVersion {
		return &VersionError{Got: strconv.Itoa(v), Want: CurrentVersion}
	}
	return nil
}

// checkRequestVersion validates a request's wire version: 0 means "the
// client did not pin one" and is accepted as current; anything else must
// match exactly.
func checkRequestVersion(v int) error {
	if v != 0 && v != CurrentVersion {
		return &VersionError{Got: strconv.Itoa(v), Want: CurrentVersion}
	}
	return nil
}
