package spec

import (
	"bytes"
	"context"
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"dirsim/internal/coherence"
	"dirsim/internal/runner"
	"dirsim/internal/sim"
	"dirsim/internal/tracegen"
)

func testCell(t *testing.T) Cell {
	t.Helper()
	return Cell{
		Trace:   tracegen.POPS(5_000),
		Schemes: []string{"dir0b", "dragon"},
		Machine: coherence.Config{Caches: 4},
	}
}

func TestCanonicalIsSortedAndStable(t *testing.T) {
	c := testCell(t)
	b1, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("canonical encoding not stable:\n%s\nvs\n%s", b1, b2)
	}
	// Keys of every object must appear sorted; spot-check the top level.
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b1, &m); err != nil {
		t.Fatalf("canonical bytes are not JSON: %v", err)
	}
	s := string(b1)
	if strings.Index(s, `"filter"`) > strings.Index(s, `"machine"`) && strings.Contains(s, `"filter"`) {
		t.Errorf("keys not sorted: %s", s)
	}
	if strings.Index(s, `"machine"`) > strings.Index(s, `"schemes"`) {
		t.Errorf("keys not sorted: %s", s)
	}
	if strings.Contains(s, " ") {
		t.Errorf("canonical encoding contains whitespace: %s", s)
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	c := testCell(t)
	c.Filter = "DropLockSpins"
	c.Sim = Sim{WarmupRefs: 100, IncludeFirstRefCosts: true}
	b, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var back Cell
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("canonical bytes do not decode into a Cell: %v", err)
	}
	b2, err := back.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("decode+re-encode drifted:\n%s\nvs\n%s", b, b2)
	}
}

// The hash IS the cache key format. If this test fails, every cached
// result on disk is invalidated: change the golden value only when the
// spec encoding is deliberately versioned.
func TestHashStability(t *testing.T) {
	c := testCell(t)
	h, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	const golden = "8dead3c941570b19f03ef87aec0d35f8e571d3a48c9ebbafbf66d207900bc4b1"
	if h != golden {
		t.Errorf("cell hash drifted: got %s want %s", h, golden)
	}
	r := Request{Cell: &c}
	rh, err := r.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately re-pinned when spec schema versioning landed: the
	// canonical request encoding gained a "version" field, which is a
	// designed cache-format break (version 1). The cell hash above is
	// unchanged — cells carry no version; their documents do.
	const goldenReq = "97801161c85c96e0791634f402bde58e1565fa410bb655428a6da6fbf499c91e"
	if rh != goldenReq {
		t.Errorf("request hash drifted: got %s want %s", rh, goldenReq)
	}
	// An unversioned wire request must hash identically to one pinning
	// the current version — "client did not say" means "current".
	pinned := Request{Version: CurrentVersion, Cell: &c}
	ph, err := pinned.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ph != rh {
		t.Errorf("pinned-version hash %s differs from unversioned %s", ph, rh)
	}
}

func TestHashInsensitiveToCosmetics(t *testing.T) {
	a := testCell(t)
	b := testCell(t)
	b.Schemes = []string{" DIR0B ", "Dragon"}
	b.Filter = "none"
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha != hb {
		t.Errorf("cosmetic differences changed the hash: %s vs %s", ha, hb)
	}
	c := testCell(t)
	c.Trace.Seed = 7
	hc, _ := c.Hash()
	if hc == ha {
		t.Error("different seeds hashed equal")
	}
	d := testCell(t)
	d.Schemes = []string{"dragon", "dir0b"} // order matters: lockstep column order
	hd, _ := d.Hash()
	if hd == ha {
		t.Error("scheme order should be significant")
	}
}

func TestSweepCells(t *testing.T) {
	sw := Sweep{
		Workloads: []string{"pero", "pops"},
		Schemes:   []string{"dir0b"},
		CPUs:      []int{2, 4},
		Refs:      1_000,
		Seeds:     3,
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*3 {
		t.Fatalf("got %d cells, want 12", len(cells))
	}
	// Order: (workload, cpus, seed); all three seeds of a grid point are
	// adjacent and distinct.
	if cells[0].Trace.Name != "PERO" || cells[0].Trace.CPUs != 2 {
		t.Errorf("cell 0 = %+v", cells[0])
	}
	if cells[6].Trace.Name != "POPS" || cells[6].Trace.CPUs != 2 {
		t.Errorf("cell 6 = %+v", cells[6])
	}
	if cells[0].Trace.Seed == cells[1].Trace.Seed {
		t.Error("replications share a seed")
	}
	if cells[0].Machine.Caches != 2 || cells[3].Machine.Caches != 4 {
		t.Errorf("machine sizes: %d, %d", cells[0].Machine.Caches, cells[3].Machine.Caches)
	}

	if _, err := (Sweep{Workloads: []string{"nope"}, Schemes: []string{"dir0b"}, CPUs: []int{2}, Refs: 10, Seeds: 1}).Cells(); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := (Sweep{}).Validate(); err == nil {
		t.Error("empty sweep validated")
	}
}

func TestRequestValidate(t *testing.T) {
	c := testCell(t)
	sw := Sweep{Workloads: []string{"pops"}, Schemes: []string{"wti"}, CPUs: []int{2}, Refs: 100, Seeds: 1}
	cases := []struct {
		r  Request
		ok bool
	}{
		{Request{}, false},
		{Request{Cell: &c}, true},
		{Request{Sweep: &sw}, true},
		{Request{Cell: &c, Sweep: &sw}, false},
	}
	for i, tc := range cases {
		err := tc.r.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("case %d: err = %v, want ok=%v", i, err, tc.ok)
		}
	}
	cells, err := Request{Sweep: &sw}.Cells()
	if err != nil || len(cells) != 1 {
		t.Fatalf("sweep request cells = %v, %v", cells, err)
	}
}

func TestCellValidate(t *testing.T) {
	c := testCell(t)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := c
	bad.Schemes = nil
	if err := bad.Validate(); err == nil {
		t.Error("no schemes accepted")
	}
	bad = c
	bad.Schemes = []string{"nosuchscheme"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown scheme accepted")
	}
	bad = c
	bad.Filter = "nosuchfilter"
	if err := bad.Validate(); err == nil {
		t.Error("unknown filter accepted")
	}
	bad = c
	bad.Machine.Caches = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero caches accepted")
	}
}

// A compiled job must execute and produce the same results as handing the
// equivalent job to the runner by hand — spec is a refactoring of the CLI
// cell construction, not a new semantics.
func TestJobMatchesDirectRun(t *testing.T) {
	c := testCell(t)
	j, err := c.Job()
	if err != nil {
		t.Fatal(err)
	}
	if j.Label != c.Label() {
		t.Errorf("label = %q, want %q", j.Label, c.Label())
	}
	got, err := runner.Run(context.Background(), []runner.Job{j}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := tracegen.New(c.Trace)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunSchemes(context.Background(), g, c.Schemes, c.Machine, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != len(want) {
		t.Fatalf("result count %d vs %d", len(got[0]), len(want))
	}
	for i := range want {
		// Stats contains slices; compare the JSON forms.
		gb, _ := json.Marshal(got[0][i].Stats)
		wb, _ := json.Marshal(want[i].Stats)
		if string(gb) != string(wb) {
			t.Errorf("scheme %s: stats differ", want[i].Scheme)
		}
		if got[0][i].Scheme != want[i].Scheme {
			t.Errorf("scheme name %q vs %q", got[0][i].Scheme, want[i].Scheme)
		}
	}
}

func TestPresetAndCanonicalSchemes(t *testing.T) {
	for _, name := range []string{"pops", "THOR", " pero "} {
		if _, err := Preset(name, 100); err != nil {
			t.Errorf("Preset(%q): %v", name, err)
		}
	}
	if _, err := Preset("vax", 100); err == nil {
		t.Error("unknown preset accepted")
	}
	names, err := CanonicalSchemes([]string{"dir0b", "dragon"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if names[0] != "Dir0B" || names[1] != "Dragon" {
		t.Errorf("canonical names = %v", names)
	}
	if _, err := CanonicalSchemes([]string{"zzz"}, 4); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// canonicalTree is the reference canonicalizer canonicalJSON must match
// byte for byte. It marshals v with encoding/json, decodes the output
// into a generic tree with every number kept verbatim as a json.Number,
// and re-emits the tree with object keys sorted.
func canonicalTree(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	var buf bytes.Buffer
	if err := writeTree(&buf, tree); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeTree emits one value of a canonicalTree tree.
func writeTree(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return fmt.Errorf("spec: %w", err)
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := writeTree(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeTree(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case json.Number:
		buf.WriteString(string(x))
	default:
		b, err := json.Marshal(x)
		if err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		buf.Write(b)
	}
	return nil
}

// matchesTree fails t unless canonicalJSON and canonicalTree agree on v:
// the same bytes, or both an error.
func matchesTree(t *testing.T, name string, v any) {
	t.Helper()
	got, gerr := canonicalJSON(v)
	want, werr := canonicalTree(v)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Errorf("%s: canonicalJSON error %v, canonicalTree error %v", name, gerr, werr)
	case gerr == nil && !bytes.Equal(got, want):
		t.Errorf("%s: canonicalJSON\n%s\nwant\n%s", name, got, want)
	}
}

// TestCanonicalMatchesTree holds canonicalJSON to the reference over the
// values whose encoding has a rule of its own: escaped and non-ASCII
// strings, floats at the edges of the fixed and exponent forms, negative
// integers, omitempty zero values, nil against empty slices, nil
// pointers, and the non-finite floats JSON cannot represent.
func TestCanonicalMatchesTree(t *testing.T) {
	base := testCell(t)
	cell := func(f func(*Cell)) Cell {
		c := base
		c.Schemes = append([]string(nil), base.Schemes...)
		f(&c)
		return c
	}
	negZero := math.Copysign(0, -1)
	sw := Sweep{Workloads: []string{"pops", "<thor>"}, Schemes: []string{"dir0b"}, CPUs: []int{-1, 0, 16}, Refs: -5, Seeds: 3}
	for _, tc := range []struct {
		name string
		v    any
	}{
		{"test cell", base},
		{"html and quotes", cell(func(c *Cell) { c.Trace.Name = `<a href="x">&amp;</a> \ /` })},
		{"controls", cell(func(c *Cell) { c.Trace.Name = "\x00\x01\b\f\n\r\t\x1f\x7f" })},
		{"non-ASCII", cell(func(c *Cell) { c.Filter = "é 日本 \u2028\u2029 \U0001F600 \uFFFD" })},
		{"invalid UTF-8", cell(func(c *Cell) { c.Schemes = []string{"\xff", "a\xc3", "\xed\xa0\x80"} })},
		{"small floats", cell(func(c *Cell) {
			c.Trace.InstrFrac, c.Trace.WriteFrac, c.Trace.SharedFrac = 1e-7, 1e-6, 5e-324
		})},
		{"large floats", cell(func(c *Cell) {
			c.Trace.InstrFrac, c.Trace.WriteFrac, c.Trace.SharedFrac = 1e20, 1e21, math.MaxFloat64
		})},
		{"inexact and signed floats", cell(func(c *Cell) {
			c.Trace.InstrFrac, c.Trace.WriteFrac, c.Trace.SharedFrac = 0.1+0.2, negZero, -1.5e-8
		})},
		{"negative integers", cell(func(c *Cell) {
			c.Trace.Seed, c.Trace.CPUs, c.Machine.DirEntries = math.MinInt64, -1, -7
		})},
		{"largest lock kind", cell(func(c *Cell) { c.Trace.LockKind = math.MaxUint8 })},
		{"omitempty set", cell(func(c *Cell) {
			c.Filter = "droplockspins"
			c.Sim = Sim{BlockBytes: 32, CacheByProcess: true, IncludeFirstRefCosts: true, WarmupRefs: 9}
		})},
		{"omitempty zero", Cell{}},
		{"nil schemes", cell(func(c *Cell) { c.Schemes = nil })},
		{"empty schemes", cell(func(c *Cell) { c.Schemes = []string{} })},
		{"sweep", sw},
		{"empty sweep", Sweep{}},
		{"sweep empty slices", Sweep{Workloads: []string{}, Schemes: []string{}, CPUs: []int{}}},
		{"request", Request{Version: CurrentVersion, Cell: &base}},
		{"request nil cell and sweep", Request{}},
		{"request negative version", Request{Version: -3, Sweep: &sw}},
		{"request both", Request{Cell: &Cell{}, Sweep: &Sweep{}}},
		{"NaN", cell(func(c *Cell) { c.Trace.HotBias = math.NaN() })},
		{"+Inf", cell(func(c *Cell) { c.Trace.HotFrac = math.Inf(1) })},
		{"-Inf in a request", Request{Cell: &Cell{Trace: tracegen.Config{KernelFrac: math.Inf(-1)}}}},
	} {
		matchesTree(t, tc.name, tc.v)
	}
	if _, err := canonicalJSON(cell(func(c *Cell) { c.Trace.HotBias = math.NaN() })); err == nil {
		t.Error("NaN encoded")
	}
}

// FuzzCanonicalMatchesTree holds canonicalJSON to the reference over
// cells, sweeps and requests built from the fuzzer's strings, integers,
// floats and shape bits.
func FuzzCanonicalMatchesTree(f *testing.F) {
	f.Add("POPS", "dir0b", int64(1), 0.5, 0.25, 4, 5_000, uint8(0))
	f.Add("<&>\"\\", "é \xff", int64(-1), 1e-7, 1e21, -2, -1, uint8(0xff))
	f.Add("", "", int64(0), 0.1+0.2, math.Copysign(0, -1), 0, 0, uint8(0x2a))
	f.Add("x", "y", int64(math.MinInt64), 1e20, math.NaN(), 1, 1, uint8(0x55))
	f.Fuzz(func(t *testing.T, name, scheme string, seed int64, frac, bias float64, n, refs int, shape uint8) {
		c := Cell{
			Trace: tracegen.Config{
				Name: name, Seed: seed, CPUs: n, Refs: refs, InstrFrac: frac, HotBias: bias,
				LockKind: tracegen.LockKind(shape), Quantum: -refs,
			},
			Filter:  scheme,
			Schemes: []string{scheme, name},
			Machine: coherence.Config{Caches: n, FiniteSets: refs, DirEntries: -n},
			Sim:     Sim{BlockBytes: n, WarmupRefs: refs, CacheByProcess: shape&1 != 0, IncludeFirstRefCosts: shape&2 != 0},
		}
		switch shape >> 2 & 3 {
		case 1:
			c.Schemes = nil
		case 2:
			c.Schemes = []string{}
		}
		sw := Sweep{Workloads: []string{name, scheme}, Schemes: c.Schemes, CPUs: []int{n, refs}, Refs: refs, Seeds: int(seed)}
		if shape&16 != 0 {
			sw.CPUs = nil
		}
		r := Request{Version: int(shape>>5) - 1}
		if shape&32 != 0 {
			r.Cell = &c
		}
		if shape&64 != 0 {
			r.Sweep = &sw
		}
		matchesTree(t, "cell", c)
		matchesTree(t, "sweep", sw)
		matchesTree(t, "request", r)
	})
}

// TestCanonicalKindsSupported walks every type reachable from Request
// through exported fields, pointers and slices, and requires only what
// canonicalJSON encodes: structs of plainly tagged, non-embedded fields,
// pointers, slices other than []byte, strings, bools, integers and
// float64, and no type with its own JSON or text marshaling. A field
// outside that set fails here rather than in a request.
func TestCanonicalKindsSupported(t *testing.T) {
	marshaler := reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	textMarshaler := reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		for _, m := range []reflect.Type{marshaler, textMarshaler} {
			if typ.Implements(m) || reflect.PointerTo(typ).Implements(m) {
				t.Errorf("%s: %s implements %s", path, typ, m)
			}
		}
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				sf := typ.Field(i)
				tag := sf.Tag.Get("json")
				switch {
				case sf.Anonymous:
					t.Errorf("%s.%s: embedded field", path, sf.Name)
				case !sf.IsExported() || tag == "-":
				default:
					if _, opts, ok := strings.Cut(tag, ","); ok && opts != "omitempty" {
						t.Errorf("%s.%s: json tag options %q", path, sf.Name, opts)
					}
					walk(sf.Type, path+"."+sf.Name)
				}
			}
		case reflect.Pointer:
			walk(typ.Elem(), path)
		case reflect.Slice:
			if typ.Elem().Kind() == reflect.Uint8 {
				t.Errorf("%s: %s encodes as base64", path, typ)
			}
			walk(typ.Elem(), path+"[]")
		case reflect.String, reflect.Bool, reflect.Float64,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("%s: unsupported kind %s (%s)", path, typ.Kind(), typ)
		}
	}
	walk(reflect.TypeOf(Request{}), "Request")
	if !seen[reflect.TypeOf(tracegen.LockKind(0))] {
		t.Error("walk did not reach tracegen.LockKind")
	}
}

// section3Cell is a cell shaped like the benchmark's: a POPS trace of
// refs references on cpus processors, run through the paper's Section 3
// schemes on a matching machine.
func section3Cell(cpus, refs int) Cell {
	tc := tracegen.POPS(refs)
	tc.CPUs = cpus
	tc.Seed = 0x5eed
	return Cell{
		Trace:   tc,
		Schemes: []string{"dir1nb", "wti", "dir0b", "dragon"},
		Machine: coherence.Config{Caches: cpus},
	}
}

var sinkHash string

// BenchmarkRequestHash hashes a serve-shaped request: one 4-CPU cell.
func BenchmarkRequestHash(b *testing.B) {
	c := section3Cell(4, 20_000)
	r := Request{Cell: &c}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, err := r.Hash()
		if err != nil {
			b.Fatal(err)
		}
		sinkHash = h
	}
}

// TestHashAllocs bounds the allocations of a serve-shaped Request.Hash
// (4 when the bound was set) and Cell.Hash, well below the 214 of the
// marshal, decode and re-emit canonicalizer.
func TestHashAllocs(t *testing.T) {
	c := section3Cell(4, 20_000)
	r := Request{Cell: &c}
	for _, tc := range []struct {
		name string
		hash func() (string, error)
	}{
		{"Request.Hash", r.Hash},
		{"Cell.Hash", c.Hash},
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() { sinkHash, err = tc.hash() })
		if err != nil {
			t.Fatal(err)
		}
		if allocs > 8 {
			t.Errorf("%s: %.0f allocations, want at most 8", tc.name, allocs)
		}
	}
}

// TestCanonicalConcurrent hashes one request from several goroutines at
// once, starting with no field plan cached, as concurrent daemon
// requests do.
func TestCanonicalConcurrent(t *testing.T) {
	c := section3Cell(4, 20_000)
	r := Request{Cell: &c}
	want, err := r.Hash()
	if err != nil {
		t.Fatal(err)
	}
	fieldPlans.Range(func(k, _ any) bool {
		fieldPlans.Delete(k)
		return true
	})
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50 && errs[i] == nil; j++ {
				h, err := r.Hash()
				if err == nil && h != want {
					err = fmt.Errorf("hash %s, want %s", h, want)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
