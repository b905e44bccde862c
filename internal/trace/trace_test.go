package trace

import (
	"io"
	"reflect"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Instr:   "instr",
		Read:    "read",
		Write:   "write",
		Kind(9): "Kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindValid(t *testing.T) {
	if !Instr.Valid() || !Read.Valid() || !Write.Valid() {
		t.Fatal("defined kinds reported invalid")
	}
	if Kind(3).Valid() {
		t.Fatal("Kind(3) reported valid")
	}
}

func TestBlockMapping(t *testing.T) {
	if got := Block(0x1234, 16); got != 0x123 {
		t.Fatalf("Block(0x1234, 16) = %#x, want 0x123", got)
	}
	if got := Block(15, 16); got != 0 {
		t.Fatalf("Block(15, 16) = %d, want 0", got)
	}
	if got := Block(16, 16); got != 1 {
		t.Fatalf("Block(16, 16) = %d, want 1", got)
	}
	if got := Block(100, 4); got != 25 {
		t.Fatalf("Block(100, 4) = %d, want 25", got)
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []int{1, 2, 4, 16, 1024} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false", v)
		}
	}
	for _, v := range []int{0, -4, 3, 12, 17} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true", v)
		}
	}
}

func TestSliceReaderAndReset(t *testing.T) {
	refs := []Ref{
		{CPU: 0, Kind: Read, Addr: 0x10},
		{CPU: 1, Kind: Write, Addr: 0x20},
	}
	r := NewSliceReader(refs)
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual([]Ref(got), refs) {
		t.Fatalf("ReadAll = %v, want %v", got, refs)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next after EOF = %v, want io.EOF", err)
	}
	r.Reset()
	first, err := r.Next()
	if err != nil || first != refs[0] {
		t.Fatalf("after Reset Next = %v, %v", first, err)
	}
}

// TestSliceReaderReadChunk checks that ReadChunk hands over Next's
// stream as views of the replayed slice, at chunk sizes that divide the
// trace, straddle its end or exceed it, and for an empty trace.
func TestSliceReaderReadChunk(t *testing.T) {
	for _, n := range []int{0, 10_000} {
		src := make(Slice, n)
		for i := range src {
			src[i] = Ref{CPU: uint8(i % 4), Kind: Kind(i % 3), Addr: uint64(i) * 16}
		}
		for _, c := range []int{1, 2, 3, 4095, 4096, n, n + 1} {
			if c == 0 {
				continue
			}
			r := NewSliceReader(src)
			buf := make([]Ref, c)
			var got Slice
			for {
				refs, err := r.ReadChunk(buf)
				if len(refs) > c || (len(refs) > 0 && &refs[0] != &src[len(got)]) {
					t.Fatalf("%d refs, chunk %d: chunk of %d is not a view of the trace", n, c, len(refs))
				}
				got = append(got, refs...)
				if err == io.EOF {
					break
				}
				if err != nil || len(refs) == 0 {
					t.Fatalf("%d refs, chunk %d: %d references then err %v", n, c, len(refs), err)
				}
			}
			if !reflect.DeepEqual(got, src) && len(got)+len(src) > 0 {
				t.Errorf("%d refs, chunk %d: ReadChunk differs from the trace", n, c)
			}
			if _, err := r.Next(); err != io.EOF {
				t.Errorf("%d refs, chunk %d: Next after the last chunk: %v, want EOF", n, c, err)
			}
		}
	}
}

func TestSliceWriterCopy(t *testing.T) {
	src := Slice{{Kind: Read, Addr: 1}, {Kind: Instr, Addr: 2}, {Kind: Write, Addr: 3}}
	var dst Slice
	n, err := Copy(&dst, NewSliceReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Copy count = %d, want 3", n)
	}
	if !reflect.DeepEqual(dst, src) {
		t.Fatalf("Copy dst = %v, want %v", dst, src)
	}
}

func TestFilterDropLockSpins(t *testing.T) {
	src := Slice{
		{Kind: Read, Addr: 1, Lock: true},
		{Kind: Read, Addr: 2},
		{Kind: Write, Addr: 3},
		{Kind: Read, Addr: 4, Lock: true},
	}
	got, err := ReadAll(DropLockSpins(NewSliceReader(src)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Addr != 2 || got[1].Addr != 3 {
		t.Fatalf("DropLockSpins = %v", got)
	}
}

func TestLimit(t *testing.T) {
	src := Slice{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	got, err := ReadAll(Limit(NewSliceReader(src), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Limit(2) yielded %d refs", len(got))
	}
	got, err = ReadAll(Limit(NewSliceReader(src), 0))
	if err != nil || len(got) != 0 {
		t.Fatalf("Limit(0) = %v, %v", got, err)
	}
	got, err = ReadAll(Limit(NewSliceReader(src), 10))
	if err != nil || len(got) != 3 {
		t.Fatalf("Limit(10) = %v, %v", got, err)
	}
}
