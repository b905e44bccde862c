package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"time"

	"dirsim/internal/coherence"
	"dirsim/internal/flight"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

// goldenRefs and goldenSeed fix the golden trace: a POPS trace at 16 CPUs
// that does not depend on the workload seed, so its 17-engine digest can
// be committed. goldenDigest is that digest. It changes only when an
// engine's simulated statistics change, which a pure speed-up must never
// do; a deliberate change to engine semantics updates it (the perfbench
// tests print the new value).
const (
	goldenRefs   = 200_000
	goldenSeed   = 1
	goldenDigest = "d92c57c21aa2764c362e48c0890b657f65bffd7d4d91f2d029057d9801cd343e"
)

// encodeTrace renders refs with the binary trace codec.
func encodeTrace(refs trace.Slice) ([]byte, error) {
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	for _, r := range refs {
		if err := bw.Append(r); err != nil {
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// generateEncoded generates cfg's trace and encodes it: the replay
// workload's set-up.
func generateEncoded(cfg tracegen.Config) ([]byte, error) {
	refs, err := tracegen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return encodeTrace(refs)
}

// replayOnce is the cmd/dirsim -trace f -parallel N path: every
// registered engine over the decoded binary trace on a replayCPUs-cache
// machine.
func replayOnce(ctx context.Context, enc []byte, parallel int, rec *flight.Recorder) ([]sim.Result, error) {
	return sim.RunSchemes(ctx, trace.NewBinaryReader(bytes.NewReader(enc)), coherence.EngineNames(),
		coherence.Config{Caches: replayCPUs}, sim.Options{Parallel: parallel, Recorder: rec})
}

// digest hashes every result's scheme name and full Stats.
func digest(results []sim.Result) (string, error) {
	h := sha256.New()
	for _, r := range results {
		b, err := json.Marshal(r.Stats)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n%s\n", r.Scheme, b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// goldenCheck replays the golden trace at the given parallelism and
// returns its digest.
func goldenCheck(ctx context.Context, parallel int) (string, error) {
	cfg := tracegen.POPS(goldenRefs)
	cfg.CPUs = replayCPUs
	cfg.Seed = goldenSeed
	enc, err := generateEncoded(cfg)
	if err != nil {
		return "", err
	}
	rs, err := replayOnce(ctx, enc, parallel, nil)
	if err != nil {
		return "", err
	}
	return digest(rs)
}

// runReplay is the replay workload: batch replay of one long trace by one
// caller, for the run's duration.
func runReplay(ctx context.Context, e *env) (*report, error) {
	rep := newReport("replay")
	cfg := replayTrace(e.seed)
	var enc []byte
	for i := 0; i < setupReps; i++ {
		// Collect the previous repetition's trace and return its memory
		// to the system first, so every repetition starts from the same
		// heap and the benchmark's own set-up garbage does not set
		// max_rss_mb.
		enc = nil
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if enc, err = generateEncoded(cfg); err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(t0))
	}
	engines := len(coherence.EngineNames())
	var want string
	deadline := time.Now().Add(e.duration)
	// Every pass is one cell of refs × engines, and its latency is both
	// a request's and a cold request's.
	for passes := 0; passes < minSamples || time.Now().Before(deadline); passes++ {
		rep.tally.attempt()
		t0 := time.Now()
		rs, err := replayOnce(ctx, enc, e.nproc, nil)
		d := time.Since(t0)
		if err != nil {
			rep.tally.failErr("replay", err)
			rep.req.failed++
			continue
		}
		rep.req.add(d)
		rep.cells++
		rep.windows = append(rep.windows, window{dur: d, simDur: d, cells: 1, engineRefs: float64(replayRefs * engines)})
		if want == "" {
			if want, err = digest(rs); err != nil {
				return nil, err
			}
		} else if err := digestIs(rs, nil, want); err != nil {
			rep.tally.failErr(fmt.Sprintf("replay pass %d", passes), err)
		}
	}
	rep.cold = rep.req
	rep.rssMB = maxRSSMB()

	// The result must not depend on how it was computed: the one-worker
	// driver over the in-memory slice must reproduce the timed passes
	// bit for bit, and the golden trace must reproduce the committed
	// digest.
	refs, err := trace.ReadAll(trace.NewBinaryReader(bytes.NewReader(enc)))
	if err != nil {
		return nil, err
	}
	rs, err := sim.RunSchemes(ctx, trace.NewSliceReader(refs), coherence.EngineNames(),
		coherence.Config{Caches: replayCPUs}, sim.Options{Parallel: 1})
	rep.tally.check("sequential slice replay", digestIs(rs, err, want))
	golden, err := goldenCheck(ctx, e.nproc)
	if err == nil && golden != goldenDigest {
		err = fmt.Errorf("golden trace digest %s, committed %s", golden, goldenDigest)
	}
	rep.tally.check("golden digest", err)
	return rep, nil
}

// digestIs checks that a run succeeded and that its results digest to
// want.
func digestIs(rs []sim.Result, err error, want string) error {
	if err != nil {
		return err
	}
	got, err := digest(rs)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("digest %.12s, want %.12s", got, want)
	}
	return nil
}
