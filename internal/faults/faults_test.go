package faults

import (
	"errors"
	"io"
	"strings"
	"testing"

	"dirsim/internal/trace"
)

// input builds a small deterministic trace.
func input(n int) trace.Slice {
	refs := make(trace.Slice, n)
	for i := range refs {
		refs[i] = trace.Ref{CPU: uint8(i % 4), PID: uint16(i % 7), Kind: trace.Read, Addr: uint64(i * 16)}
	}
	return refs
}

// drain reads everything, returning refs and the terminal error.
func drain(rd trace.Reader) (trace.Slice, error) {
	var out trace.Slice
	for {
		ref, err := rd.Next()
		if err != nil {
			return out, err
		}
		out = append(out, ref)
		if len(out) > 1<<20 {
			return out, errors.New("reader did not terminate")
		}
	}
}

func TestWrapInertConfigReturnsReader(t *testing.T) {
	rd := trace.NewSliceReader(input(3))
	if got := Wrap(rd, Config{Seed: 7}); got != trace.Reader(rd) {
		t.Fatal("inert config should return the reader unchanged")
	}
}

func TestDeterministicSameSeed(t *testing.T) {
	cfg := Config{Seed: 42, CorruptProb: 0.2}
	a, erra := drain(Wrap(trace.NewSliceReader(input(500)), cfg))
	b, errb := drain(Wrap(trace.NewSliceReader(input(500)), cfg))
	if erra != io.EOF || errb != io.EOF {
		t.Fatalf("terminal errors: %v, %v", erra, errb)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, _ := drain(Wrap(trace.NewSliceReader(input(500)), Config{Seed: 43, CorruptProb: 0.2}))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical faulted streams")
	}
}

func TestTruncate(t *testing.T) {
	got, err := drain(Wrap(trace.NewSliceReader(input(100)), Config{TruncateAfter: 40}))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("terminal error %v, want ErrTruncated", err)
	}
	if len(got) != 40 {
		t.Fatalf("delivered %d refs, want 40", len(got))
	}
}

func TestCorruptAlwaysPerturbsButPreservesLength(t *testing.T) {
	in := input(200)
	got, err := drain(Wrap(trace.NewSliceReader(in), Config{Seed: 1, CorruptProb: 1}))
	if err != io.EOF {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("corruption changed stream length: %d vs %d", len(got), len(in))
	}
	changed := 0
	for i := range got {
		if got[i] != in[i] {
			changed++
		}
	}
	if changed != len(in) {
		t.Fatalf("CorruptProb=1 changed %d of %d refs", changed, len(in))
	}
}

func TestPanicAfter(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("no panic injected")
		}
		if !strings.Contains(v.(string), "injected panic") {
			t.Fatalf("unexpected panic value %v", v)
		}
	}()
	drain(Wrap(trace.NewSliceReader(input(100)), Config{PanicAfter: 10}))
}
