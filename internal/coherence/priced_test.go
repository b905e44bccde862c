package coherence

import (
	"reflect"
	"testing"
	"testing/quick"
)

// pricingConfigs cover the infinite caches the snoopy pricing needs, and
// the finite caches and sparse directory that refuse some bases.
var pricingConfigs = map[string]Config{
	"inf":    {Caches: 6},
	"finite": {Caches: 6, FiniteSets: 4, FiniteWays: 2},
	"sparse": {Caches: 6, DirEntries: 8},
}

// Property: wherever PricedFrom holds, Price over the basis's Stats equals
// the Stats of simulating the priced engine on the same stream — for
// every ordered pair of registered schemes, not only the basis a driver
// would pick.
func TestQuickPriceEqualsSimulation(t *testing.T) {
	for name, cfg := range pricingConfigs {
		priced := 0
		f := func(raw []uint32) bool {
			engs := allEngines(t, cfg)
			replay(engs, raw, cfg.Caches, 24)
			for _, e := range engs {
				for _, b := range engs {
					st, ok := Price(e, b)
					if ok != PricedFrom(e, b) {
						t.Errorf("%s: Price and PricedFrom disagree on %s from %s", name, e.Name(), b.Name())
						return false
					}
					if !ok {
						continue
					}
					priced++
					if !reflect.DeepEqual(st, e.Stats()) {
						t.Errorf("%s: %s priced from %s:\n got  %+v\n want %+v", name, e.Name(), b.Name(), *st, *e.Stats())
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if priced == 0 {
			t.Errorf("%s: no pair was priced", name)
		}
	}
}

// TestPricedFromRule pins which bases the rule accepts.
func TestPricedFromRule(t *testing.T) {
	for _, tc := range []struct {
		cfg         string
		e, basis    string
		want        bool
		description string
	}{
		{"inf", "berkeley", "dir0b", true, "same engine, free directory"},
		{"finite", "berkeley", "dir0b", true, "any configuration"},
		{"sparse", "berkeley", "dir0b", true, "any configuration"},
		{"sparse", "dir0b", "berkeley", false, "only Berkeley is priced from its twin"},
		{"sparse", "berkeley", "dirnnb", false, "entry evictions depend on the store"},
		{"inf", "dir0b", "berkeley", true, "Berkeley is Dir0B"},
		{"inf", "dir0b", "dirnnb", true, "every invalidation broadcast"},
		{"inf", "dir0b", "tang", true, "Tang's probes do not carry over"},
		{"inf", "dir0b", "codedset", true, "wasted invalidations do not carry over"},
		{"inf", "dir0b", "dir2b", true, "Dir_jB broadcasts instead of evicting"},
		{"finite", "dir0b", "dirnnb", true, "two-bit broadcasts whenever a block is cached"},
		{"finite", "dir0b", "dir1b", true, "a finite Dir_jB still shares the events"},
		{"sparse", "dir0b", "dirnnb", false, "entry evictions depend on the store"},
		{"inf", "dir0b", "dir1nb", false, "pointer evictions"},
		{"inf", "dir0b", "dir2nb", false, "pointer evictions"},
		{"inf", "dir0b", "wti", false, "a snoopy engine keeps no sharer counts"},
		{"inf", "dir1b", "dirnnb", true, "broadcast beyond one holder"},
		{"inf", "dir2b", "tang", true, "broadcast beyond two holders"},
		{"inf", "dir2b", "codedset", true, "the coded set shares the events"},
		{"inf", "dir1b", "dir2b", true, "another pointer budget"},
		{"inf", "dir2b", "dir1b", true, "another pointer budget"},
		{"inf", "dir2b", "dir0b", true, "two-bit shares the events"},
		{"inf", "dir1b", "berkeley", true, "Berkeley is Dir0B"},
		{"finite", "dir1b", "dirnnb", false, "evictions leave the broadcast bit set"},
		{"finite", "dir2b", "dir1b", false, "evictions leave the broadcast bit set"},
		{"sparse", "dir1b", "dirnnb", false, "entry evictions depend on the store"},
		{"inf", "dir2b", "dir1nb", false, "pointer evictions"},
		{"inf", "dir1b", "dir2nb", false, "pointer evictions"},
		{"inf", "berkeley", "dirnnb", true, "as Dir0B"},
		{"inf", "berkeley", "tang", true, "as Dir0B"},
		{"inf", "berkeley", "codedset", true, "as Dir0B"},
		{"inf", "berkeley", "dir2b", true, "as Dir0B"},
		{"finite", "berkeley", "dirnnb", true, "as Dir0B"},
		{"inf", "berkeley", "dir1nb", false, "pointer evictions"},
		{"inf", "berkeley", "dir2nb", false, "pointer evictions"},
		{"inf", "dirnnb", "dir0b", false, "the full map is simulated"},
		{"inf", "codedset", "dirnnb", false, "supersets depend on which caches share"},
		{"inf", "dir1nb", "dirnnb", false, "Dir_iNB evicts copies"},
		{"inf", "tang", "dirnnb", true, "scaled directory accesses"},
		{"sparse", "tang", "dirnnb", true, "any configuration"},
		{"inf", "dirnnb", "tang", false, "only Tang is priced"},
		{"inf", "wti", "dir0b", true, "same state-change model"},
		{"inf", "wti", "berkeley", true, "Berkeley is Dir0B"},
		{"inf", "mesi", "tang", true, "Tang is the full map"},
		{"inf", "writeonce", "dir2b", true, "Dir_iB broadcasts instead of evicting"},
		{"inf", "wti", "codedset", true, "supersets only waste invalidations"},
		{"inf", "wti", "mesi", true, "snoopy basis"},
		{"sparse", "wti", "mesi", true, "snoopy engines have no directory"},
		{"sparse", "wti", "dir0b", false, "entry evictions change sharing"},
		{"finite", "wti", "dir0b", false, "evictions write back differently"},
		{"finite", "wti", "mesi", false, "evictions write back differently"},
		{"inf", "wti", "dir1nb", false, "pointer evictions"},
		{"inf", "wti", "dir2nb", false, "pointer evictions"},
		{"inf", "wti", "moesi", false, "different state-change model"},
		{"inf", "wti", "dragon", false, "update protocol"},
		{"inf", "wti", "readbroadcast", false, "snarfing refills copies"},
		{"inf", "dragon", "firefly", false, "update protocols are simulated"},
		{"inf", "moesi", "mesi", false, "the Owned state is simulated"},
		{"inf", "moesi", "dir0b", false, "the Owned state is simulated"},
		{"sparse", "moesi", "wti", false, "the Owned state is simulated"},
		{"inf", "readbroadcast", "wti", false, "snarfing is simulated"},
		{"inf", "readbroadcast", "dirnnb", false, "snarfing is simulated"},
	} {
		cfg := pricingConfigs[tc.cfg]
		e, b := must(NewByName(tc.e, cfg)), must(NewByName(tc.basis, cfg))
		if got := PricedFrom(e, b); got != tc.want {
			t.Errorf("%s: PricedFrom(%s, %s) = %v, want %v (%s)", tc.cfg, tc.e, tc.basis, got, tc.want, tc.description)
		}
	}
	e := must(NewWTI(pricingConfigs["inf"]))
	if PricedFrom(e, e) {
		t.Error("an engine is its own basis")
	}
	if PricedFrom(e, must(NewDir0B(Config{Caches: 4}))) {
		t.Error("a basis with another configuration was accepted")
	}
}
