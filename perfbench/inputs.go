package main

import (
	"fmt"
	"math/rand"

	"dirsim/internal/coherence"
	"dirsim/internal/spec"
	"dirsim/internal/tracegen"
)

// Every input the program sees is derived here from the workload seed:
// trace seeds, the serve cell pool and request order, and the fleet grid
// and its order. Nothing else in the benchmark draws random numbers.

// section3 are the four schemes of the paper's Section 3, which every
// serve and fleet cell runs in lockstep.
var section3 = []string{"dir1nb", "wti", "dir0b", "dragon"}

var presets = []string{"pops", "thor", "pero"}

const (
	// replayRefs and replayCPUs size the replay trace: long enough that
	// one pass is a few hundred milliseconds of engine work, and 16 CPUs
	// so the limited-pointer, Dir_iB and coded-set directories overflow.
	replayRefs = 1_000_000
	replayCPUs = 16

	// serveRefs sizes a serve cell: small, so a first touch costs a few
	// milliseconds of tracegen and simulation.
	serveRefs = 20_000
	// servePool cells make one epoch's Zipf population; serveEpoch
	// requests are drawn from it before the next epoch's fresh pool. With
	// s = 1.1 over 240 cells, 3000 draws touch about 7% distinct cells,
	// so about that share of requests are first touches however long the
	// run lasts.
	servePool  = 240
	serveEpoch = 3000
	serveZipfS = 1.1

	// fleetRefs sizes a fleet cell; fleetSeeds replications of every
	// preset × CPU count make one round's grid.
	fleetRefs  = 100_000
	fleetSeeds = 2
)

var fleetCPUs = []int{4, 16}

// derive mixes a workload seed with a stream label and index into an
// independent 63-bit seed (SplitMix64 finaliser), so changing one input
// stream never shifts another.
func derive(seed int64, stream string, i int) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range stream {
		z = (z ^ uint64(c)) * 0x100000001b3
	}
	z += uint64(i) * 0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// replayTrace is the replay workload's generator configuration.
func replayTrace(seed int64) tracegen.Config {
	cfg := tracegen.POPS(replayRefs)
	cfg.CPUs = replayCPUs
	cfg.Seed = derive(seed, "replay", 0)
	return cfg
}

// smallCell builds a cell of the given preset, trace seed, CPU count and
// length running the Section 3 schemes on a matching machine.
func smallCell(preset string, traceSeed int64, cpus, refs int) (spec.Cell, error) {
	tc, err := spec.Preset(preset, refs)
	if err != nil {
		return spec.Cell{}, err
	}
	tc.Seed = traceSeed
	tc.CPUs = cpus
	return spec.Cell{
		Trace:   tc,
		Schemes: append([]string(nil), section3...),
		Machine: coherence.Config{Caches: cpus},
	}, nil
}

// servePoolCell is cell k of serve epoch e: presets rotate with k, and the
// trace seed is fresh for every (epoch, k).
func servePoolCell(seed int64, epoch, k int) (spec.Cell, error) {
	return smallCell(presets[k%len(presets)], derive(seed, fmt.Sprintf("serve/%d", epoch), k), 4, serveRefs)
}

// serveSchedule returns the pool indices of epoch e's requests, in order:
// serveEpoch Zipf(s = serveZipfS) draws over servePool cells. The rank
// of each pool cell is a seeded permutation, so the popular cells differ
// between seeds and epochs.
func serveSchedule(seed int64, epoch int) []int {
	r := rand.New(rand.NewSource(derive(seed, "serve-order", epoch)))
	perm := r.Perm(servePool)
	z := rand.NewZipf(r, serveZipfS, 1, servePool-1)
	out := make([]int, serveEpoch)
	for i := range out {
		out[i] = perm[z.Uint64()]
	}
	return out
}

// fleetGrid returns round r's cells: every preset × fleetCPUs ×
// fleetSeeds replication with fresh trace seeds, in a seeded order.
func fleetGrid(seed int64, round int) ([]spec.Cell, error) {
	var cells []spec.Cell
	for _, p := range presets {
		for _, cpus := range fleetCPUs {
			for s := 0; s < fleetSeeds; s++ {
				c, err := smallCell(p, derive(seed, fmt.Sprintf("fleet/%d/%s/%d", round, p, cpus), s), cpus, fleetRefs)
				if err != nil {
					return nil, err
				}
				cells = append(cells, c)
			}
		}
	}
	r := rand.New(rand.NewSource(derive(seed, "fleet-order", round)))
	r.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells, nil
}

// sample returns k distinct indices below n chosen by the seed, in
// increasing order of choice (all of them when k >= n).
func sample(seed int64, stream string, n, k int) []int {
	perm := rand.New(rand.NewSource(derive(seed, stream, 0))).Perm(n)
	if k < n {
		perm = perm[:k]
	}
	return perm
}
