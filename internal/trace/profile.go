package trace

import (
	"fmt"
	"io"
)

// SharingProfile measures the sharing structure of a trace: Section 2
// demands that "we must also examine the dynamic numbers of caches that
// contain a shared datum to evaluate the actual frequency of occurrence"
// before trusting limited-pointer directories. The profile reports both a
// static view (how many distinct processes ever touch each block) and a
// dynamic view (at each write, how many processes touched the block since
// its previous write — the copies an invalidation protocol would find).
type SharingProfile struct {
	// BlockBytes is the block size profiled.
	BlockBytes int
	// StaticDegree[k] counts data blocks touched by exactly k distinct
	// processes over the whole trace (k ≥ 1).
	StaticDegree Histogram
	// RefWeightedDegree[k] counts data references to blocks whose total
	// sharing degree is k — the exposure view (a widely shared block
	// that is barely referenced matters little).
	RefWeightedDegree Histogram
	// DynamicReaders[k] counts writes that found exactly k distinct
	// processes (other than the writer) having touched the block since
	// the previous write — the invalidation fan-out an exact directory
	// would see, measured on the trace alone with no protocol model.
	DynamicReaders Histogram
	// DataRefs is the number of data references profiled.
	DataRefs uint64
	// WritesProfiled is the number of writes contributing to
	// DynamicReaders.
	WritesProfiled uint64
}

// Profile drains rd and computes the sharing profile for the given block
// size.
func Profile(rd Reader, blockBytes int) (*SharingProfile, error) {
	if !IsPow2(blockBytes) {
		return nil, fmt.Errorf("trace: block size %d is not a power of two", blockBytes)
	}
	type blockInfo struct {
		everPIDs  map[uint16]bool // all processes that ever touched it
		sincePIDs map[uint16]bool // processes since the last write
		refs      uint64
	}
	blocks := map[uint64]*blockInfo{}
	p := &SharingProfile{BlockBytes: blockBytes}
	for {
		r, err := rd.Next()
		if err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		if r.Kind == Instr {
			continue
		}
		p.DataRefs++
		b := Block(r.Addr, blockBytes)
		bi := blocks[b]
		if bi == nil {
			bi = &blockInfo{everPIDs: map[uint16]bool{}, sincePIDs: map[uint16]bool{}}
			blocks[b] = bi
		}
		bi.refs++
		bi.everPIDs[r.PID] = true
		if r.Kind == Write {
			// Readers-to-invalidate: distinct processes that touched
			// the block since the previous write, excluding the writer.
			n := len(bi.sincePIDs)
			if bi.sincePIDs[r.PID] {
				n--
			}
			p.DynamicReaders.Observe(n)
			p.WritesProfiled++
			bi.sincePIDs = map[uint16]bool{r.PID: true}
		} else {
			bi.sincePIDs[r.PID] = true
		}
	}
	for _, bi := range blocks {
		k := len(bi.everPIDs)
		p.StaticDegree.Observe(k)
		p.addWeighted(k, bi.refs)
	}
	return p, nil
}

// addWeighted records n observations of degree k in the reference-weighted
// histogram without looping.
func (p *SharingProfile) addWeighted(k int, n uint64) {
	for k >= len(p.RefWeightedDegree.Counts) {
		p.RefWeightedDegree.Counts = append(p.RefWeightedDegree.Counts, 0)
	}
	p.RefWeightedDegree.Counts[k] += n
}

// SharedBlockFraction returns the fraction of data blocks touched by more
// than one process.
func (p *SharingProfile) SharedBlockFraction() float64 {
	if p.StaticDegree.Total() == 0 {
		return 0
	}
	return 1 - p.StaticDegree.Fraction(1)
}

// PointerSufficiency returns the fraction of writes whose invalidation
// fan-out fits within i directory pointers — the quantity that justifies
// a Dir_iB design (Section 6 keeps "exactly one pointer" for the common
// case).
func (p *SharingProfile) PointerSufficiency(i int) float64 {
	if p.DynamicReaders.Total() == 0 {
		return 0
	}
	return p.DynamicReaders.CumulativeFraction(i)
}

// WorkingSets computes Denning-style working-set sizes: the number of
// distinct data blocks touched in each consecutive window of `window` data
// references. The curve sizes caches and sparse directories: a directory
// needs roughly the working set's entries to avoid thrashing.
func WorkingSets(rd Reader, blockBytes, window int) ([]int, error) {
	if !IsPow2(blockBytes) {
		return nil, fmt.Errorf("trace: block size %d is not a power of two", blockBytes)
	}
	if window < 1 {
		return nil, fmt.Errorf("trace: window %d must be positive", window)
	}
	var out []int
	seen := map[uint64]bool{}
	n := 0
	for {
		r, err := rd.Next()
		if err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		if r.Kind == Instr {
			continue
		}
		seen[Block(r.Addr, blockBytes)] = true
		n++
		if n == window {
			out = append(out, len(seen))
			seen = map[uint64]bool{}
			n = 0
		}
	}
	if n > 0 {
		out = append(out, len(seen))
	}
	return out, nil
}
