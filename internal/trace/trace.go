// Package trace defines the multiprocessor memory-reference trace model used
// throughout the simulator.
//
// A trace is an ordered stream of references, each tagged with the issuing
// processor and process, mirroring the ATUM multiprocessor traces of Sites &
// Agarwal that the paper simulates ("CPU numbers and process identifiers of
// the active processes are also included in the trace"). References are
// additionally annotated with two bits the generators know and the paper's
// analyses need: whether the reference is the read half of a
// test-and-test-and-set spin (Section 5.2) and whether it was issued in
// kernel mode (Table 3's User/Sys split).
//
// The package provides streaming readers and writers in both a compact
// binary format and a human-readable text format, plus filters and the
// Table 3 statistics.
package trace

import (
	"fmt"
	"io"
)

// errEOF is the sentinel returned by readers at end of trace. It is io.EOF
// so callers can use the standard idiom.
var errEOF = io.EOF

// Kind classifies a memory reference.
type Kind uint8

const (
	// Instr is an instruction fetch. Per Section 4, instruction references
	// cause no consistency traffic and their misses are not priced.
	Instr Kind = iota
	// Read is a data read.
	Read
	// Write is a data write.
	Write
)

// String returns the conventional short name of the kind.
func (k Kind) String() string {
	switch k {
	case Instr:
		return "instr"
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is one of the defined kinds.
func (k Kind) Valid() bool { return k <= Write }

// Ref is one memory reference in a multiprocessor trace.
type Ref struct {
	// CPU is the processor that issued the reference.
	CPU uint8
	// PID identifies the process that issued the reference. The paper
	// attributes sharing to processes rather than processors so that
	// migration-induced sharing can be excluded (Section 4.4).
	PID uint16
	// Kind is the reference type.
	Kind Kind
	// Addr is the byte address referenced.
	Addr uint64
	// Lock marks a spinning lock probe: the test read of a
	// test-and-test-and-set, or a failing test-and-set attempt (a
	// write). Section 5.2 removes these references to isolate their
	// effect.
	Lock bool
	// Kernel marks operating-system activity (Table 3's "Sys" column).
	Kernel bool
}

// DefaultBlockBytes is the paper's block size: 4 words of 4 bytes
// ("The block size used throughout this paper is 4 words (16 bytes)").
const DefaultBlockBytes = 16

// Block maps a byte address to a block number for the given block size,
// which must be a power of two.
func Block(addr uint64, blockBytes int) uint64 {
	return addr / uint64(blockBytes)
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Reader yields references in trace order. Next returns io.EOF after the
// final reference.
type Reader interface {
	Next() (Ref, error)
}

// ChunkReader is a Reader that can also hand over references a chunk at
// a time, so a batch consumer pays one call per chunk rather than one per
// reference.
type ChunkReader interface {
	Reader
	// ReadChunk returns the next references, at most len(buf) of them,
	// either in buf or in memory the reader owns that stays valid until
	// its next call. The error is io.EOF once the trace is exhausted,
	// possibly alongside a final chunk; a chunk returned with nil error
	// is never empty unless buf is. The references match what Next
	// would have returned, in order, and the two may be mixed.
	ReadChunk(buf []Ref) ([]Ref, error)
}

// Writer consumes references in trace order.
type Writer interface {
	Append(Ref) error
}

// Slice is an in-memory trace. It implements Writer via pointer receiver and
// can be replayed any number of times via NewSliceReader.
type Slice []Ref

// Append implements Writer.
func (s *Slice) Append(r Ref) error {
	*s = append(*s, r)
	return nil
}

// SliceReader replays an in-memory trace.
type SliceReader struct {
	refs []Ref
	pos  int
}

// NewSliceReader returns a Reader over refs. The slice is not copied.
func NewSliceReader(refs []Ref) *SliceReader { return &SliceReader{refs: refs} }

// Next implements Reader.
func (r *SliceReader) Next() (Ref, error) {
	if r.pos >= len(r.refs) {
		return Ref{}, errEOF
	}
	ref := r.refs[r.pos]
	r.pos++
	return ref, nil
}

// Reset rewinds the reader to the beginning of the trace.
func (r *SliceReader) Reset() { r.pos = 0 }

// ReadChunk implements ChunkReader without copying: the chunk is a view
// of the replayed slice, and buf only sizes it.
func (r *SliceReader) ReadChunk(buf []Ref) ([]Ref, error) { return r.View(len(buf)) }

// View returns the next at most n references as a view of the replayed
// slice, with ReadChunk's errors, so a caller needs no buffer to bound
// the chunk.
func (r *SliceReader) View(n int) ([]Ref, error) {
	rem := r.refs[r.pos:]
	if len(rem) > n {
		rem = rem[:n]
	}
	r.pos += len(rem)
	if r.pos == len(r.refs) {
		return rem, errEOF
	}
	return rem, nil
}

// ReadAll drains rd into a Slice. It is intended for tests and small traces;
// simulation should stream instead.
func ReadAll(rd Reader) (Slice, error) {
	var out Slice
	for {
		ref, err := rd.Next()
		if err != nil {
			if err == errEOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, ref)
	}
}

// Copy streams every reference from rd to w and reports the count.
func Copy(w Writer, rd Reader) (int, error) {
	n := 0
	for {
		ref, err := rd.Next()
		if err != nil {
			if err == errEOF {
				return n, nil
			}
			return n, err
		}
		if err := w.Append(ref); err != nil {
			return n, err
		}
		n++
	}
}
