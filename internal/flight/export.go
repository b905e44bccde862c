package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dirsim/internal/atomicio"
)

// Exported trace formats. Timestamps are simulated reference ordinals
// (microseconds in the Chrome form, so Perfetto renders one reference as
// one microsecond); they are deterministic, never wall clock.

// ndjsonRow is one NDJSON line: the event with names resolved.
type ndjsonRow struct {
	Pid   int    `json:"pid"`
	Tid   int    `json:"tid"`
	Track string `json:"track,omitempty"`
	Seq   uint64 `json:"seq"`
	Kind  string `json:"kind"`
	Phase string `json:"phase,omitempty"`
	Dur   uint32 `json:"dur,omitempty"`
	Cache int16  `json:"cache"`
	Block uint64 `json:"block,omitempty"`
	Arg   uint32 `json:"arg,omitempty"`
}

// WriteNDJSON renders every recorder's events as newline-delimited JSON,
// one event per line, in canonical order — recorders first (by Pid),
// events within a recorder by (Seq, Track, …). The output is a
// deterministic function of the recorded events.
func WriteNDJSON(w io.Writer, recs ...*Recorder) error {
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		for _, e := range rec.Events() {
			row := ndjsonRow{
				Pid:   rec.Pid(),
				Tid:   int(e.Track),
				Track: rec.TrackName(e.Track),
				Seq:   e.Seq,
				Kind:  e.Kind.String(),
				Dur:   e.Dur,
				Cache: e.Cache,
				Block: e.Block,
				Arg:   e.Arg,
			}
			if e.Kind.IsSpan() {
				row.Phase = rec.PhaseName(e.Arg)
				row.Arg = 0
			}
			if err := enc.Encode(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// ChromeEvent is one Chrome trace-event object. The subset used:
// ph "M" metadata (process_name/thread_name), "X" complete spans,
// "i" instants with thread scope. Exported so internal/otrace can
// splice fabric spans into the same document (see otrace's
// WriteChromeTrace) — one Perfetto view spanning HTTP edge →
// scheduler → protocol events.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Dur   *uint32        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the Chrome trace format.
type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeEvents renders the recorders' events as Chrome trace events.
// Each recorder is one process (pid = job ordinal), each track one
// thread; ts is the simulated reference ordinal, so per-track
// timestamps are monotonic by construction. Output is deterministic.
func ChromeEvents(recs ...*Recorder) []ChromeEvent {
	events := []ChromeEvent{}
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		pid := rec.Pid()
		if label := rec.Label(); label != "" {
			events = append(events, ChromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": label},
			})
		}
		for tid, name := range rec.Tracks() {
			events = append(events, ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": name},
			})
		}
		for _, e := range rec.Events() {
			ce := ChromeEvent{Ts: e.Seq, Pid: pid, Tid: int(e.Track)}
			switch {
			case e.Kind == KindSpan:
				dur := e.Dur
				ce.Name = rec.PhaseName(e.Arg)
				ce.Ph = "X"
				ce.Dur = &dur
			case e.Kind == KindMark:
				ce.Name = rec.PhaseName(e.Arg)
				ce.Ph = "i"
				ce.Scope = "t"
			default:
				ce.Name = e.Kind.String()
				ce.Ph = "i"
				ce.Scope = "t"
				args := map[string]any{"block": fmt.Sprintf("%#x", e.Block)}
				if e.Cache >= 0 {
					args["cache"] = e.Cache
				}
				if e.Arg > 0 {
					args["count"] = e.Arg
				}
				ce.Args = args
			}
			events = append(events, ce)
		}
	}
	return events
}

// WriteChromeDoc wraps pre-built events in the Chrome trace-event JSON
// document form (load the file in Perfetto or chrome://tracing).
func WriteChromeDoc(w io.Writer, events []ChromeEvent) error {
	if events == nil {
		events = []ChromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteChromeTrace renders the recorders' events in the Chrome
// trace-event JSON format: ChromeEvents wrapped by WriteChromeDoc.
func WriteChromeTrace(w io.Writer, recs ...*Recorder) error {
	return WriteChromeDoc(w, ChromeEvents(recs...))
}

// Write exports recorders in the format implied by the file name:
// ".ndjson" (or ".jsonl") writes NDJSON, anything else the Chrome
// trace-event form — the convention the CLIs' -trace-out flag follows.
func Write(w io.Writer, name string, recs ...*Recorder) error {
	if FormatForPath(name) == "ndjson" {
		return WriteNDJSON(w, recs...)
	}
	return WriteChromeTrace(w, recs...)
}

// WriteFile exports recorders crash-safely to path (see atomicio), in
// the format Write picks from the name. Nil recorders are skipped.
func WriteFile(path string, recs ...*Recorder) error {
	f, err := atomicio.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, path, recs...); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// FormatForPath reports which trace format a -trace-out path selects:
// "ndjson" for .ndjson/.jsonl, "chrome" otherwise.
func FormatForPath(name string) string {
	if strings.HasSuffix(name, ".ndjson") || strings.HasSuffix(name, ".jsonl") {
		return "ndjson"
	}
	return "chrome"
}
