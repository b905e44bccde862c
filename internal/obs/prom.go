package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4) of a Snapshot, plus
// a minimal validator for it. All metric names carry the dirsim_ prefix;
// histograms render as the standard cumulative-bucket triplet
// (_bucket{le=...}, _sum, _count) with log2 upper bounds.

// lset joins preformatted name="value" label pairs into a {..} label
// set, eliding empty pairs; the empty set renders as no braces at all.
func lset(pairs ...string) string {
	var b strings.Builder
	for _, p := range pairs {
		if p == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	if b.Len() == 0 {
		return ""
	}
	return "{" + b.String() + "}"
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format. Output is a deterministic function of the snapshot: engines
// and histograms are already name-sorted, and empty log2 buckets are
// elided (cumulative values make that lossless; +Inf is always present).
func WritePrometheus(w io.Writer, s Snapshot) error {
	return WritePrometheusLabeled(w, s, "")
}

// WritePrometheusLabeled renders the snapshot with an extra
// preformatted label pair (e.g. `peer="host:8080"`) on every sample —
// how /v1/cluster/metrics stitches per-peer snapshots into one fleet
// exposition. An empty label renders the plain per-process form.
func WritePrometheusLabeled(w io.Writer, s Snapshot, label string) error {
	type counter struct {
		name, help string
		v          uint64
	}
	for _, c := range []counter{
		{"dirsim_refs_total", "Simulated references processed.", s.Refs},
		{"dirsim_jobs_done_total", "Jobs completed.", s.JobsDone},
		{"dirsim_jobs_submitted_total", "Jobs submitted.", s.JobsTotal},
		{"dirsim_job_failures_total", "Jobs failed.", s.Failures},
		{"dirsim_job_panics_total", "Panics recovered into job errors.", s.Panics},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s%s %d\n",
			c.name, c.help, c.name, c.name, lset(label), c.v); err != nil {
			return err
		}
	}
	for _, c := range s.Counters {
		name := "dirsim_" + c.Name + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s Named counter %s.\n# TYPE %s counter\n%s%s %d\n",
			name, c.Name, name, name, lset(label), c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		name := "dirsim_" + g.Name
		if _, err := fmt.Fprintf(w, "# HELP %s Named gauge %s.\n# TYPE %s gauge\n%s%s %d\n",
			name, g.Name, name, name, lset(label), g.Value); err != nil {
			return err
		}
	}
	if len(s.Engines) > 0 {
		type labelled struct {
			name, help string
			v          func(EngineSnapshot) uint64
		}
		for _, l := range []labelled{
			{"dirsim_engine_refs_total", "References processed per scheme.", func(e EngineSnapshot) uint64 { return e.Refs }},
			{"dirsim_engine_transactions_total", "Bus transactions per scheme.", func(e EngineSnapshot) uint64 { return e.Transactions }},
			{"dirsim_engine_bus_ops_total", "Bus operations per scheme.", func(e EngineSnapshot) uint64 { return e.BusOps }},
		} {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", l.name, l.help, l.name); err != nil {
				return err
			}
			for _, e := range s.Engines {
				if _, err := fmt.Fprintf(w, "%s%s %d\n", l.name, lset(label, fmt.Sprintf("scheme=%q", e.Scheme)), l.v(e)); err != nil {
					return err
				}
			}
		}
	}
	for _, h := range s.Histograms {
		name := "dirsim_" + h.Name
		if _, err := fmt.Fprintf(w, "# HELP %s Log2-bucketed distribution of %s.\n# TYPE %s histogram\n", name, h.Name, name); err != nil {
			return err
		}
		var cum uint64
		for i, n := range h.Buckets {
			cum += n
			if n == 0 || i == len(h.Buckets)-1 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, lset(label, fmt.Sprintf("le=\"%d\"", BucketUpper(i))), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n%s_sum%s %d\n%s_count%s %d\n",
			name, lset(label, `le="+Inf"`), h.Count,
			name, lset(label), h.Sum,
			name, lset(label), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// sampleRe matches one exposition sample line: a metric name, an
// optional label set, and a value.
var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9]+(\.[0-9]+)?|[+-]Inf|NaN)$`)

// LintPrometheus is a minimal validator for the text exposition format —
// enough for the promscrape smoke to catch real breakage: every
// non-comment line must parse as a sample, every sample's family must
// have a preceding TYPE, histogram families must end with a +Inf bucket
// and carry _sum and _count, and cumulative bucket counts must be
// non-decreasing.
func LintPrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	types := map[string]string{}
	type histState struct {
		sawInf   bool
		sawSum   bool
		sawCount bool
	}
	// Bucket cumulativeness and the +Inf terminator are per series (one
	// histogram family fans out into one series per label set in the
	// federated exposition), keyed by family plus the non-le labels.
	type seriesState struct {
		lastCum uint64
		sawInf  bool
	}
	hists := map[string]*histState{}
	series := map[string]*seriesState{}
	family := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				return base
			}
		}
		return name
	}
	line := 0
	samples := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", line, text)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: TYPE wants name and kind: %q", line, text)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", line, fields[3])
				}
				types[fields[2]] = fields[3]
				if fields[3] == "histogram" {
					hists[fields[2]] = &histState{}
				}
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(text)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample %q", line, text)
		}
		samples++
		name := m[1]
		fam := family(name)
		if _, ok := types[fam]; !ok {
			return fmt.Errorf("line %d: sample %q has no preceding TYPE", line, name)
		}
		if h, ok := hists[fam]; ok {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le := labelValue(m[2], "le")
				if le == "" {
					return fmt.Errorf("line %d: histogram bucket without le label", line)
				}
				cum, err := strconv.ParseUint(m[3], 10, 64)
				if err != nil {
					return fmt.Errorf("line %d: bucket count %q: %v", line, m[3], err)
				}
				key := fam + "|" + labelsWithout(m[2], "le")
				st, ok := series[key]
				if !ok {
					st = &seriesState{}
					series[key] = st
				}
				if st.sawInf {
					// A fresh bucket run for the same series would be
					// two expositions of one series; treat the +Inf
					// bucket as the series terminator and reset.
					st.lastCum, st.sawInf = 0, false
				}
				if cum < st.lastCum {
					return fmt.Errorf("line %d: cumulative bucket count decreased (%d after %d)", line, cum, st.lastCum)
				}
				st.lastCum = cum
				if le == "+Inf" {
					st.sawInf = true
					h.sawInf = true
				}
			case strings.HasSuffix(name, "_sum"):
				h.sawSum = true
			case strings.HasSuffix(name, "_count"):
				h.sawCount = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("no samples in exposition")
	}
	for name, h := range hists {
		if !h.sawInf {
			return fmt.Errorf("histogram %s has no +Inf bucket", name)
		}
		if !h.sawSum || !h.sawCount {
			return fmt.Errorf("histogram %s is missing _sum or _count", name)
		}
	}
	for key, st := range series {
		if !st.sawInf {
			return fmt.Errorf("histogram series %s has no +Inf bucket", key)
		}
	}
	return nil
}

// labelsWithout returns the {k="v",...} set minus one key, braces
// stripped, pairs in original order — a series identity key for the
// validator. (Label values with embedded commas would split wrong;
// dirsim expositions never emit those.)
func labelsWithout(labels, key string) string {
	labels = strings.Trim(labels, "{}")
	if labels == "" {
		return ""
	}
	var kept []string
	for _, kv := range strings.Split(labels, ",") {
		if k, _, ok := strings.Cut(kv, "="); ok && k == key {
			continue
		}
		kept = append(kept, kv)
	}
	return strings.Join(kept, ",")
}

// labelValue extracts one label's unquoted value from a {k="v",...}
// label set (empty when absent).
func labelValue(labels, key string) string {
	labels = strings.Trim(labels, "{}")
	for _, kv := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k != key {
			continue
		}
		if u, err := strconv.Unquote(v); err == nil {
			return u
		}
	}
	return ""
}
