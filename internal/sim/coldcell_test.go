package sim

import (
	"context"
	"testing"

	"dirsim/internal/tracegen"
)

// coldCellSchemes are the Section 3 schemes a serve cell runs.
var coldCellSchemes = []string{"dir1nb", "wti", "dir0b", "dragon"}

// coldCell runs one serve-shaped first touch: RunSchemes over a streaming
// generator, as a daemon's Cell.Job does for a 20k-reference, 4-CPU cell.
func coldCell(cfg tracegen.Config) error {
	g, err := tracegen.New(cfg)
	if err != nil {
		return err
	}
	_, err = RunSchemes(context.Background(), g, coldCellSchemes, cfg4(), Options{})
	return err
}

// BenchmarkColdCell measures the cold-cell path end to end — trace
// generation, decode, the simulated engines and pricing — for each paper
// workload.
func BenchmarkColdCell(b *testing.B) {
	for _, cfg := range tracegen.Presets(20_000) {
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := coldCell(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestColdCellAllocs bounds the allocations of a serve-shaped cold cell.
// Steady-state generation, decoding and directory updates allocate
// nothing, so what remains is set-up and amortized growth.
func TestColdCellAllocs(t *testing.T) {
	const limit = 400
	for _, cfg := range tracegen.Presets(20_000) {
		var err error
		allocs := testing.AllocsPerRun(3, func() { err = coldCell(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		if allocs > limit {
			t.Errorf("%s: %.0f allocations per cold cell, want at most %d", cfg.Name, allocs, limit)
		}
	}
}
