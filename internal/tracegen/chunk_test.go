package tracegen

import (
	"io"
	"slices"
	"testing"

	"dirsim/internal/trace"
)

// chunkConfigs are the generator configurations ReadChunk is checked on:
// a paper preset, and one whose turns take every shape — barrier
// arrivals that release, test-and-set spins, lock hand-offs and
// migrations — with a quantum that is no divisor of the chunk sizes.
func chunkConfigs(refs int) []Config {
	busy := THOR(refs)
	busy.Name = "busy"
	busy.Quantum = 7
	busy.BarrierInterval = 9
	busy.LockAttemptRate = 0.2
	busy.MigrationRate = 0.05
	tas := busy
	tas.Name = "busy-tas"
	tas.LockKind = TestAndSet
	return []Config{POPS(refs), busy, tas}
}

// readChunks drains g through ReadChunk with chunks of size c, checking
// the chunk contract on the way.
func readChunks(t *testing.T, rd trace.ChunkReader, c int) trace.Slice {
	t.Helper()
	var out trace.Slice
	buf := make([]trace.Ref, c)
	for calls := 0; ; calls++ {
		refs, err := rd.ReadChunk(buf)
		if len(refs) > c {
			t.Fatalf("chunk of %d references from a buffer of %d", len(refs), c)
		}
		out = append(out, refs...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) == 0 || calls > 1<<20 {
			t.Fatalf("empty chunk without EOF after %d references", len(out))
		}
	}
}

// TestReadChunkMatchesNext checks that ReadChunk yields Next's stream,
// reference for reference, at every chunk size that straddles a turn or
// the end of the trace, and with the two interleaved.
func TestReadChunkMatchesNext(t *testing.T) {
	for _, refs := range []int{0, 20_000} {
		for _, cfg := range chunkConfigs(refs) {
			want, err := trace.ReadAll(must(New(cfg)))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != refs {
				t.Fatalf("%s: Next yielded %d references, want %d", cfg.Name, len(want), refs)
			}
			for _, c := range []int{1, 2, cfg.Quantum, 4095, 4096, refs, refs + 1} {
				if c == 0 {
					continue
				}
				if got := readChunks(t, must(New(cfg)), c); !slices.Equal(got, want) {
					t.Errorf("%s/%d refs: ReadChunk(%d) differs from Next", cfg.Name, refs, c)
				}
			}
			// Interleaved: one Next, then a chunk of a growing size.
			g := must(New(cfg))
			var got trace.Slice
			for c := 1; ; c++ {
				r, err := g.Next()
				if err == io.EOF {
					break
				}
				got = append(got, r)
				chunk, err := g.ReadChunk(make([]trace.Ref, c%97+1))
				got = append(got, chunk...)
				if err == io.EOF {
					break
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s/%d refs: interleaved Next and ReadChunk differ from Next", cfg.Name, len(want))
			}
		}
	}
}

// TestGenerateMatchesNext checks that Generate's one-chunk fill is the
// Next stream.
func TestGenerateMatchesNext(t *testing.T) {
	for _, cfg := range chunkConfigs(20_000) {
		want, err := trace.ReadAll(must(New(cfg)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: Generate differs from Next", cfg.Name)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
