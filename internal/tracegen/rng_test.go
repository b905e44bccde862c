package tracegen

import (
	"math"
	"math/rand"
	"testing"
)

// TestRNGMatchesMathRand checks the concrete source against math/rand,
// the oracle the generator's golden traces were made with: the same seed
// must give the same value for every draw, in any interleaving of the
// methods the generator uses.
func TestRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 1<<31 - 1, 1 << 40, -7, -(1 << 40), math.MinInt64, 0x9005}
	ns := []int{1, 2, 3, 48, 4095, 1 << 16}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := newRNG(seed)
		for step := 0; step < 3000; step++ {
			switch step % 4 {
			case 0:
				if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d step %d: Float64 %v, want %v", seed, step, g, w)
				}
			case 1, 2:
				n := ns[(step/4)%len(ns)]
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d step %d: Intn(%d) %d, want %d", seed, step, n, g, w)
				}
			case 3:
				n := 1 + step%50
				g, w := make([]int, n), make([]int, n)
				for i := range g {
					g[i], w[i] = i, i
				}
				got.Shuffle(n, func(i, j int) { g[i], g[j] = g[j], g[i] })
				want.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("seed %d step %d: Shuffle(%d) %v, want %v", seed, step, n, g, w)
					}
				}
			}
		}
	}
}
