package trace

import (
	"fmt"
	"io"
)

// Stats summarises a trace in the form of the paper's Table 3, extended with
// the sharing measurements Section 4.4 discusses.
type Stats struct {
	// Table 3 columns.
	Refs   uint64 // total references
	Instr  uint64 // instruction fetches
	DataRd uint64 // data reads
	DataWr uint64 // data writes
	User   uint64 // user-mode references
	Sys    uint64 // kernel-mode references

	// Lock behaviour (Section 4.4: "Roughly one-third of all the reads
	// correspond to reads due to spinning on a lock" in POPS and THOR).
	LockReads uint64

	// Population.
	CPUs      int
	Processes int

	// Sharing, attributed to processes (the paper's model) and to
	// processors. A data block is shared if more than one process
	// (respectively processor) references it anywhere in the trace.
	DataBlocks            int
	SharedBlocksByProcess int
	SharedBlocksByCPU     int
	RefsToSharedByProcess uint64 // data refs to process-shared blocks
	DataRefs              uint64 // total data refs (reads+writes)
	MigratedProcesses     int    // processes observed on >1 CPU
	BlockBytes            int
}

// CollectStats drains rd and computes Stats using the given block size,
// in one pass: a block is process-shared once a second PID references it,
// so each block keeps its first PID and CPU and its data-reference count,
// and each process its first CPU.
func CollectStats(rd Reader, blockBytes int) (Stats, error) {
	if !IsPow2(blockBytes) {
		return Stats{}, fmt.Errorf("trace: block size %d is not a power of two", blockBytes)
	}
	st := Stats{BlockBytes: blockBytes}
	var cpus [256]bool
	type procInfo struct {
		cpu   uint8
		moved bool
	}
	procs := map[uint16]procInfo{}
	type blockInfo struct {
		pid                uint16
		cpu                uint8
		multiPID, multiCPU bool
		refs               uint64
	}
	blocks := map[uint64]*blockInfo{}
	for {
		r, err := rd.Next()
		if err != nil {
			if err == io.EOF {
				break
			}
			return Stats{}, err
		}
		st.Refs++
		if !cpus[r.CPU] {
			cpus[r.CPU] = true
			st.CPUs++
		}
		if p, ok := procs[r.PID]; !ok {
			procs[r.PID] = procInfo{cpu: r.CPU}
		} else if !p.moved && p.cpu != r.CPU {
			p.moved = true
			procs[r.PID] = p
			st.MigratedProcesses++
		}
		if r.Kernel {
			st.Sys++
		} else {
			st.User++
		}
		switch r.Kind {
		case Instr:
			st.Instr++
			continue
		case Read:
			st.DataRd++
			if r.Lock {
				st.LockReads++
			}
		case Write:
			st.DataWr++
		}
		b := Block(r.Addr, blockBytes)
		bi := blocks[b]
		if bi == nil {
			bi = &blockInfo{pid: r.PID, cpu: r.CPU}
			blocks[b] = bi
		}
		bi.multiPID = bi.multiPID || r.PID != bi.pid
		bi.multiCPU = bi.multiCPU || r.CPU != bi.cpu
		bi.refs++
	}
	st.Processes = len(procs)
	st.DataBlocks = len(blocks)
	st.DataRefs = st.DataRd + st.DataWr
	for _, bi := range blocks {
		if bi.multiPID {
			st.SharedBlocksByProcess++
			st.RefsToSharedByProcess += bi.refs
		}
		if bi.multiCPU {
			st.SharedBlocksByCPU++
		}
	}
	return st, nil
}

// SharedRefFraction returns the fraction of data references that touch
// process-shared blocks. Section 5 attributes PERO's low bus traffic to
// this fraction being much smaller than in POPS and THOR.
func (s Stats) SharedRefFraction() float64 {
	if s.DataRefs == 0 {
		return 0
	}
	return float64(s.RefsToSharedByProcess) / float64(s.DataRefs)
}

// LockReadFraction returns the fraction of data reads that are spin-lock
// tests.
func (s Stats) LockReadFraction() float64 {
	if s.DataRd == 0 {
		return 0
	}
	return float64(s.LockReads) / float64(s.DataRd)
}

// ReadWriteRatio returns data reads per data write.
func (s Stats) ReadWriteRatio() float64 {
	if s.DataWr == 0 {
		return 0
	}
	return float64(s.DataRd) / float64(s.DataWr)
}

// Histogram is an integer-bucketed histogram with a dense bucket slice.
// Bucket i counts observations of value i; values beyond the last bucket
// grow the slice. The buckets are the whole state: the observation count
// is their sum, so a decoded histogram can never disagree with itself.
type Histogram struct {
	Counts []uint64 `json:"counts"`
}

// Observe records one observation of value v (v ≥ 0).
func (h *Histogram) Observe(v int) {
	if v < 0 {
		panic(fmt.Sprintf("trace: negative histogram value %d", v))
	}
	for v >= len(h.Counts) {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[v]++
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Fraction returns the fraction of observations with value v.
func (h *Histogram) Fraction(v int) float64 {
	total := h.Total()
	if total == 0 || v < 0 || v >= len(h.Counts) {
		return 0
	}
	return float64(h.Counts[v]) / float64(total)
}

// CumulativeFraction returns the fraction of observations with value ≤ v.
func (h *Histogram) CumulativeFraction(v int) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	var sum uint64
	for i := 0; i <= v && i < len(h.Counts); i++ {
		sum += h.Counts[i]
	}
	return float64(sum) / float64(total)
}

// Mean returns the mean observed value.
func (h *Histogram) Mean() float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	var sum uint64
	for v, c := range h.Counts {
		sum += uint64(v) * c
	}
	return float64(sum) / float64(total)
}

// Max returns the largest observed value, or -1 if empty.
func (h *Histogram) Max() int {
	for v := len(h.Counts) - 1; v >= 0; v-- {
		if h.Counts[v] > 0 {
			return v
		}
	}
	return -1
}

// Add accumulates other into h.
func (h *Histogram) Add(other *Histogram) {
	for v, c := range other.Counts {
		for v >= len(h.Counts) {
			h.Counts = append(h.Counts, 0)
		}
		h.Counts[v] += c
	}
}
