// Command dirsimtop is a terminal live ops view over a dirsimd fleet.
// It polls one daemon's federated GET /v1/cluster/metrics endpoint —
// that daemon scrapes its peers, so a single address is enough to see
// the whole fleet — and renders one plain-text table per refresh: a
// row per member with reference throughput, job progress, failure
// counts, and the hedging/failover counters that show the
// fleet's resilience machinery working. Down peers stay visible as
// rows with their probe error; absence of data is itself data.
//
// Reference rates are computed client-side from the refs delta between
// consecutive frames, so the daemons stay rate-free and deterministic.
//
// Usage:
//
//	dirsimtop -addr http://127.0.0.1:8023 -key "$DIRSIM_CLUSTER_KEY"
//	dirsimtop -addr http://127.0.0.1:8023 -once   # one frame, for scripts
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"dirsim/internal/cluster"
	"dirsim/internal/obs"
	"dirsim/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dirsimtop: ")
	addr := flag.String("addr", "http://127.0.0.1:8023", "base URL of any fleet member")
	key := flag.String("key", os.Getenv("DIRSIM_CLUSTER_KEY"), "shared cluster key (or tenant API key); default $DIRSIM_CLUSTER_KEY")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	once := flag.Bool("once", false, "render a single frame and exit (no screen clearing; for scripts and tests)")
	flag.Parse()

	t := &top{
		addr:  strings.TrimRight(*addr, "/"),
		key:   *key,
		http:  &http.Client{Timeout: 5 * time.Second},
		now:   time.Now,
		out:   os.Stdout,
		clear: !*once,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The first frame is load-bearing: a bad address or key should fail
	// loudly, not scroll errors forever.
	if err := t.frame(ctx); err != nil {
		log.Fatal(err)
	}
	if *once {
		return
	}
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(t.out)
			return
		case <-ticker.C:
			if err := t.frame(ctx); err != nil {
				if ctx.Err() != nil {
					return
				}
				// Transient: the fleet outliving a blip is the point.
				fmt.Fprintf(t.out, "fetch: %v\n", err)
			}
		}
	}
}

// top holds the view state between frames. The clock is injected so
// tests drive the rate computation with a fixed timeline.
type top struct {
	addr  string
	key   string
	http  *http.Client
	now   func() time.Time
	out   io.Writer
	clear bool

	prevRefs map[string]uint64
	prevAt   time.Time
}

// frame fetches the federated document and renders one table.
func (t *top) frame(ctx context.Context) error {
	doc, err := t.fetch(ctx)
	if err != nil {
		return err
	}
	t.render(doc)
	return nil
}

func (t *top) fetch(ctx context.Context) (spec.ClusterMetricsDoc, error) {
	var doc spec.ClusterMetricsDoc
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.addr+"/v1/cluster/metrics", nil)
	if err != nil {
		return doc, err
	}
	if t.key != "" {
		req.Header.Set(cluster.KeyHeader, t.key)
	}
	resp, err := t.http.Do(req)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return doc, fmt.Errorf("%s: %s: %s", t.addr, resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, fmt.Errorf("%s: decoding cluster metrics: %v", t.addr, err)
	}
	return doc, nil
}

// render writes one frame: a fleet summary line and a member table.
// Rates come from the refs delta since the previous frame.
func (t *top) render(doc spec.ClusterMetricsDoc) {
	now := t.now()
	elapsed := now.Sub(t.prevAt)
	refs := make(map[string]uint64, len(doc.Peers))

	if t.clear {
		fmt.Fprint(t.out, "\x1b[H\x1b[2J")
	}
	var up int
	var totalRefs, totalDone, totalJobs uint64
	for _, p := range doc.Peers {
		if p.Up {
			up++
		}
		if p.Metrics != nil {
			totalRefs += p.Metrics.Refs
			totalDone += p.Metrics.JobsDone
			totalJobs += p.Metrics.JobsTotal
		}
	}
	fmt.Fprintf(t.out, "dirsim fleet — %d members, %d up — refs %d — jobs %d/%d — %s\n",
		len(doc.Peers), up, totalRefs, totalDone, totalJobs, now.Format("15:04:05"))

	w := tabwriter.NewWriter(t.out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "PEER\tSTATE\tREFS\tREFS/S\tJOBS\tFAIL\tHEDGE\tWIN\tFAILOVER")
	for _, p := range doc.Peers {
		name := p.Addr
		if p.Self {
			name += " (self)"
		}
		if !p.Up || p.Metrics == nil {
			reason := p.Error
			if reason == "" {
				reason = "no metrics"
			}
			fmt.Fprintf(w, "%s\tdown\t-\t-\t-\t-\t-\t-\t-\t%s\n", name, reason)
			continue
		}
		m := p.Metrics
		refs[p.Addr] = m.Refs
		fmt.Fprintf(w, "%s\tup\t%d\t%s\t%d/%d\t%d\t%d\t%d\t%d\n",
			name, m.Refs, rate(m.Refs, t.prevRefs[p.Addr], elapsed, t.prevRefs != nil),
			m.JobsDone, m.JobsTotal, m.Failures,
			counter(m, "cluster_hedge_fired"), counter(m, "cluster_hedge_win"),
			counter(m, "cluster_failover"))
	}
	w.Flush()
	t.prevRefs, t.prevAt = refs, now
}

// rate formats a per-second reference rate from two frames' counters.
// The first frame (and a counter that went backwards, i.e. a restarted
// daemon) has no meaningful rate and renders as "-".
func rate(cur, prev uint64, elapsed time.Duration, havePrev bool) string {
	if !havePrev || elapsed <= 0 || cur < prev {
		return "-"
	}
	return fmt.Sprintf("%.0f/s", float64(cur-prev)/elapsed.Seconds())
}

// counter looks up one named counter in a snapshot; absent reads as 0.
func counter(m *obs.Snapshot, name string) uint64 {
	for _, c := range m.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
