package coherence

import (
	"strings"
	"testing"

	"dirsim/internal/trace"
)

// TestEngineNamesRoundTrip keeps the registry closed in both directions:
// every advertised name constructs an engine (case-insensitively), no two
// names construct engines that claim the same display name, and the
// parametric families parse.
func TestEngineNamesRoundTrip(t *testing.T) {
	cfg := Config{Caches: 4}
	display := map[string]string{}
	for _, name := range EngineNames() {
		e, err := NewByName(name, cfg)
		if err != nil {
			t.Fatalf("EngineNames advertises %q but NewByName fails: %v", name, err)
		}
		if e == nil {
			t.Fatalf("%q: nil engine without error", name)
		}
		if prev, dup := display[e.Name()]; dup {
			t.Errorf("%q and %q both construct engine %q", prev, name, e.Name())
		}
		display[e.Name()] = name

		upper, err := NewByName(strings.ToUpper(name), cfg)
		if err != nil {
			t.Errorf("%q: uppercase spelling rejected: %v", name, err)
		} else if upper.Name() != e.Name() {
			t.Errorf("%q: case changes the engine (%q vs %q)", name, upper.Name(), e.Name())
		}
	}
	for _, parametric := range []string{"dir3nb", "dir8b", "competitive2"} {
		if _, err := NewByName(parametric, cfg); err != nil {
			t.Errorf("parametric family member %q rejected: %v", parametric, err)
		}
	}
}

func TestNewByNameRejectsUnknown(t *testing.T) {
	for _, bad := range []string{"", "nope", "dir", "dirxnb", "dir0nb", "competitive0", "competitive-1", "dirb"} {
		if _, err := NewByName(bad, Config{Caches: 4}); err == nil {
			t.Errorf("NewByName(%q) accepted", bad)
		}
	}
}

// FuzzNewByName throws arbitrary names at the registry: any accepted name
// must yield a working engine whose invariants hold before and after a
// couple of references and whose name SchemeName gives without building
// it, and the contracts error==nil ⇔ engine!=nil and SchemeName accepts
// ⇔ NewByName accepts must never break.
func FuzzNewByName(f *testing.F) {
	for _, name := range EngineNames() {
		f.Add(name)
	}
	for _, seed := range []string{
		"DIR1NB", " dirnnb ", "fullmap", "censier-feautrier", "archibald-baer",
		"twobit", "coded-set", "illinois", "goodman", "rudolph-segall",
		"dir1b", "dir16b", "dir1nb", "dir12b", "dir999nb", "competitive4", "competitive16", "competitive",
		"", "dir", "dir-1b", "dir1nbx", "no such scheme", "dir0b\x00",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		e, err := NewByName(name, Config{Caches: 2})
		display, nameErr := SchemeName(name)
		if (nameErr == nil) != (err == nil) {
			t.Fatalf("%q: NewByName error %v, SchemeName error %v", name, err, nameErr)
		}
		if err != nil {
			if e != nil {
				t.Fatalf("NewByName(%q) returned both engine and error %v", name, err)
			}
			return
		}
		if e == nil {
			t.Fatalf("NewByName(%q) returned nil engine without error", name)
		}
		if e.Name() == "" {
			t.Fatalf("NewByName(%q): engine has empty display name", name)
		}
		if display != e.Name() {
			t.Fatalf("SchemeName(%q) = %q, engine is %q", name, display, e.Name())
		}
		if e.Caches() != 2 {
			t.Fatalf("NewByName(%q): engine simulates %d caches, want 2", name, e.Caches())
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("NewByName(%q): fresh engine violates invariants: %v", name, err)
		}
		e.Access(0, trace.Read, 1, true)
		e.Access(1, trace.Write, 1, false)
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("NewByName(%q): invariants violated after two references: %v", name, err)
		}
	})
}
