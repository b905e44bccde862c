package trace

import (
	"encoding/json"
	"math"
	"testing"
)

func statsTrace() Slice {
	return Slice{
		{CPU: 0, PID: 1, Kind: Instr, Addr: 0x1000},
		{CPU: 0, PID: 1, Kind: Read, Addr: 0x10},
		{CPU: 0, PID: 1, Kind: Read, Addr: 0x20, Lock: true},
		{CPU: 1, PID: 2, Kind: Write, Addr: 0x10},
		{CPU: 1, PID: 2, Kind: Read, Addr: 0x30, Kernel: true},
		{CPU: 1, PID: 2, Kind: Instr, Addr: 0x1010, Kernel: true},
	}
}

func TestCollectStatsTable3Columns(t *testing.T) {
	st, err := CollectStats(NewSliceReader(statsTrace()), 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.Refs != 6 {
		t.Errorf("Refs = %d, want 6", st.Refs)
	}
	if st.Instr != 2 {
		t.Errorf("Instr = %d, want 2", st.Instr)
	}
	if st.DataRd != 3 {
		t.Errorf("DataRd = %d, want 3", st.DataRd)
	}
	if st.DataWr != 1 {
		t.Errorf("DataWr = %d, want 1", st.DataWr)
	}
	if st.User != 4 || st.Sys != 2 {
		t.Errorf("User/Sys = %d/%d, want 4/2", st.User, st.Sys)
	}
	if st.LockReads != 1 {
		t.Errorf("LockReads = %d, want 1", st.LockReads)
	}
	if st.CPUs != 2 || st.Processes != 2 {
		t.Errorf("CPUs/Processes = %d/%d, want 2/2", st.CPUs, st.Processes)
	}
}

func TestCollectStatsSharing(t *testing.T) {
	st, err := CollectStats(NewSliceReader(statsTrace()), 16)
	if err != nil {
		t.Fatal(err)
	}
	// Block 0x1 (addr 0x10) is touched by PID 1 and PID 2 → shared.
	// Blocks 0x2 and 0x3 are private.
	if st.DataBlocks != 3 {
		t.Errorf("DataBlocks = %d, want 3", st.DataBlocks)
	}
	if st.SharedBlocksByProcess != 1 {
		t.Errorf("SharedBlocksByProcess = %d, want 1", st.SharedBlocksByProcess)
	}
	if st.SharedBlocksByCPU != 1 {
		t.Errorf("SharedBlocksByCPU = %d, want 1", st.SharedBlocksByCPU)
	}
	// Data refs: 4; refs to shared block 0x1: 2 (the read and the write).
	if st.DataRefs != 4 {
		t.Errorf("DataRefs = %d, want 4", st.DataRefs)
	}
	if st.RefsToSharedByProcess != 2 {
		t.Errorf("RefsToSharedByProcess = %d, want 2", st.RefsToSharedByProcess)
	}
	if got := st.SharedRefFraction(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("SharedRefFraction = %v, want 0.5", got)
	}
	if st.MigratedProcesses != 0 {
		t.Errorf("MigratedProcesses = %d, want 0", st.MigratedProcesses)
	}
}

func TestCollectStatsMigration(t *testing.T) {
	// PID 5 moves twice and counts once; PID 6 stays on CPU 2.
	tr := Slice{
		{CPU: 0, PID: 5, Kind: Read, Addr: 0x10},
		{CPU: 1, PID: 5, Kind: Read, Addr: 0x20},
		{CPU: 2, PID: 6, Kind: Instr, Addr: 0x1000},
		{CPU: 2, PID: 5, Kind: Instr, Addr: 0x1000},
		{CPU: 2, PID: 6, Kind: Write, Addr: 0x20},
	}
	st, err := CollectStats(NewSliceReader(tr), 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.MigratedProcesses != 1 || st.Processes != 2 || st.CPUs != 3 {
		t.Errorf("MigratedProcesses/Processes/CPUs = %d/%d/%d, want 1/2/3",
			st.MigratedProcesses, st.Processes, st.CPUs)
	}
}

func TestCollectStatsRejectsBadBlockSize(t *testing.T) {
	if _, err := CollectStats(NewSliceReader(nil), 12); err == nil {
		t.Fatal("block size 12 accepted")
	}
}

func TestStatsRatios(t *testing.T) {
	st := Stats{DataRd: 30, DataWr: 10, LockReads: 10}
	if got := st.ReadWriteRatio(); got != 3 {
		t.Errorf("ReadWriteRatio = %v, want 3", got)
	}
	if got := st.LockReadFraction(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("LockReadFraction = %v, want 1/3", got)
	}
	zero := Stats{}
	if zero.ReadWriteRatio() != 0 || zero.LockReadFraction() != 0 || zero.SharedRefFraction() != 0 {
		t.Error("zero stats should give zero ratios")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Max() != -1 {
		t.Errorf("empty Max = %d, want -1", h.Max())
	}
	for _, v := range []int{0, 1, 1, 3} {
		h.Observe(v)
	}
	if h.Total() != 4 {
		t.Errorf("Total = %d, want 4", h.Total())
	}
	if got := h.Fraction(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Fraction(1) = %v, want 0.5", got)
	}
	if got := h.CumulativeFraction(1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("CumulativeFraction(1) = %v, want 0.75", got)
	}
	if got := h.Mean(); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("Mean = %v, want 1.25", got)
	}
	if h.Max() != 3 {
		t.Errorf("Max = %d, want 3", h.Max())
	}
	if h.Fraction(99) != 0 {
		t.Error("Fraction(out of range) != 0")
	}
}

func TestHistogramAdd(t *testing.T) {
	var a, b Histogram
	a.Observe(0)
	b.Observe(2)
	b.Observe(2)
	a.Add(&b)
	if a.Total() != 3 {
		t.Errorf("Total = %d, want 3", a.Total())
	}
	if a.Counts[2] != 2 {
		t.Errorf("Counts[2] = %d, want 2", a.Counts[2])
	}
}

// A histogram must survive the JSON round trip with its derived state
// intact: remote results carry InvalFanout across the daemon boundary.
func TestHistogramJSONRoundTrip(t *testing.T) {
	var h Histogram
	for _, v := range []int{0, 1, 1, 3} {
		h.Observe(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"counts":[1,2,0,1]}`; string(data) != want {
		t.Errorf("Marshal = %s, want %s", data, want)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Total() != h.Total() {
		t.Errorf("Total = %d, want %d", back.Total(), h.Total())
	}
	if math.Abs(back.Mean()-h.Mean()) > 1e-12 {
		t.Errorf("Mean = %v, want %v", back.Mean(), h.Mean())
	}
	if math.Abs(back.CumulativeFraction(1)-h.CumulativeFraction(1)) > 1e-12 {
		t.Errorf("CumulativeFraction(1) = %v, want %v",
			back.CumulativeFraction(1), h.CumulativeFraction(1))
	}
	var empty Histogram
	data, err = json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"counts":null}`; string(data) != want {
		t.Errorf("Marshal(empty) = %s, want %s", data, want)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Total() != 0 || back.Max() != -1 {
		t.Errorf("empty round trip: Total=%d Max=%d", back.Total(), back.Max())
	}
}

func TestHistogramNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Observe(-1) did not panic")
		}
	}()
	var h Histogram
	h.Observe(-1)
}
