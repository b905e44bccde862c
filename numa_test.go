package dirsim_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dirsim"
)

var updateNUMAGolden = flag.Bool("update-numa", false, "rewrite testdata/numa.golden")

// TestNUMAStatsGolden pins every NUMAStats field of the message-level
// distributed directory over the three workloads, both home policies, 4
// and 16 nodes, with and without first-reference costs, at 16- and
// 64-byte blocks. Each configuration runs twice, once over the in-memory
// trace and once through the binary codec, and the two must agree: the
// two readers take different paths through the trace driver. Refresh
// with `go test -run NUMAStatsGolden -update-numa .`, but only for a
// change to the message accounting that is intended.
func TestNUMAStatsGolden(t *testing.T) {
	var sb strings.Builder
	for _, wl := range []func(int) dirsim.WorkloadConfig{dirsim.POPS, dirsim.THOR, dirsim.PERO} {
		for _, nodes := range []int{4, 16} {
			cfg := wl(20_000)
			cfg.CPUs = nodes
			tr, err := dirsim.GenerateTrace(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var bin bytes.Buffer
			w := dirsim.NewBinaryTraceWriter(&bin)
			for _, r := range tr {
				if err := w.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, mc := range []dirsim.NUMAConfig{{Nodes: nodes, Policy: dirsim.Interleaved}, {Nodes: nodes, Policy: dirsim.FirstTouch}} {
				for _, include := range []bool{false, true} {
					for _, blockBytes := range []int{16, 64} {
						opts := dirsim.NUMAOptions{BlockBytes: blockBytes, IncludeFirstRefCosts: include}
						run := func(rd dirsim.TraceReader) string {
							e, err := dirsim.NewNUMA(mc)
							if err != nil {
								t.Fatal(err)
							}
							st, err := dirsim.RunNUMA(rd, e, opts)
							if err != nil {
								t.Fatal(err)
							}
							return fmt.Sprintf("%+v", *st)
						}
						label := fmt.Sprintf("%s n%d %s firstref=%v b%d", cfg.Name, nodes, mc.Policy, include, blockBytes)
						mem := run(dirsim.NewTraceReader(tr))
						codec := run(dirsim.NewBinaryTraceReader(bytes.NewReader(bin.Bytes())))
						if mem != codec {
							t.Errorf("%s: in-memory %s, binary codec %s", label, mem, codec)
						}
						fmt.Fprintf(&sb, "%s: %s\n", label, mem)
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "numa.golden")
	if *updateNUMAGolden {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("numa.golden differs; the run gave:\n%s", got)
	}
}

func TestNUMARunOnGeneratedWorkload(t *testing.T) {
	gen, err := dirsim.NewGenerator(dirsim.POPS(60_000))
	if err != nil {
		t.Fatal(err)
	}
	e, err := dirsim.NewNUMA(dirsim.NUMAConfig{Nodes: 4, Policy: dirsim.FirstTouch})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dirsim.RunNUMA(gen, e, dirsim.NUMAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Refs != 60_000 {
		t.Fatalf("Refs = %d", st.Refs)
	}
	if st.Messages == 0 || st.CriticalHops == 0 {
		t.Fatal("no traffic recorded")
	}
	// First-touch on a process-pinned workload keeps most homes local.
	if st.LocalHomeFraction() < 0.2 {
		t.Errorf("local-home fraction = %.2f, suspiciously low", st.LocalHomeFraction())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNUMARunErrors(t *testing.T) {
	e, err := dirsim.NewNUMA(dirsim.NUMAConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := dirsim.Trace{{CPU: 3, Kind: dirsim.Read, Addr: 1}}
	if _, err := dirsim.RunNUMA(dirsim.NewTraceReader(tr), e, dirsim.NUMAOptions{}); err == nil {
		t.Error("out-of-range CPU accepted")
	}
	if _, err := dirsim.RunNUMA(dirsim.NewTraceReader(nil), e, dirsim.NUMAOptions{BlockBytes: 12}); err == nil {
		t.Error("bad block size accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dirsim.RunNUMAContext(ctx, dirsim.NewTraceReader(nil), e, dirsim.NUMAOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run gave %v", err)
	}
}
