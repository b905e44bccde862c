package coherence

import (
	"errors"
	"fmt"

	"dirsim/internal/bus"
	"dirsim/internal/events"
)

// An opTable lists, for each event, the bus operations one occurrence
// costs. It is the paper's Section 4.1 cost model in executable form:
// event frequencies are measured once, then "weighted by their respective
// costs in bus cycles".
type opTable = [events.NumTypes][]bus.Op

// The per-event operations of every scheme whose bus operations are a
// fixed function of the event type. SnoopyInval's classify emits from its
// table and Price costs a basis's events with it; the directory and
// update engines emit their operations directly, so VerifyAccounting
// checks those emits against these tables. Schemes whose invalidation
// counts depend on the sharer count have none: Dir_nNB sends one message
// per sharer, Dir_iB directs or broadcasts by the sharer count, and the
// coded set's messages depend on which caches share.
var (
	// wtiOps: every write is a one-word transfer to memory, and every
	// miss is served by memory, which is never stale.
	wtiOps = opTable{
		events.ReadMissClean:       {bus.OpMemRead},
		events.ReadMissDirty:       {bus.OpMemRead},
		events.ReadMissUncached:    {bus.OpMemRead},
		events.WriteHitDirty:       {bus.OpWriteThrough},
		events.WriteHitCleanSole:   {bus.OpWriteThrough},
		events.WriteHitCleanShared: {bus.OpWriteThrough},
		events.WriteMissClean:      {bus.OpMemRead, bus.OpWriteThrough},
		events.WriteMissDirty:      {bus.OpMemRead, bus.OpWriteThrough},
		events.WriteMissUncached:   {bus.OpMemRead, bus.OpWriteThrough},
	}

	// writeOnceOps: the first write to a resident block writes through
	// one word; Reserved → Dirty (WriteHitDirty) is a local transition;
	// a block dirty in another cache is supplied by write-back.
	writeOnceOps = opTable{
		events.ReadMissClean:       {bus.OpMemRead},
		events.ReadMissDirty:       {bus.OpWriteBack},
		events.ReadMissUncached:    {bus.OpMemRead},
		events.WriteHitCleanSole:   {bus.OpWriteThrough},
		events.WriteHitCleanShared: {bus.OpWriteThrough},
		events.WriteMissClean:      {bus.OpMemRead, bus.OpWriteThrough},
		events.WriteMissDirty:      {bus.OpWriteBack, bus.OpWriteThrough},
		events.WriteMissUncached:   {bus.OpMemRead, bus.OpWriteThrough},
	}

	// mesiOps: M and E write hits are silent; an S write hit broadcasts
	// the invalidation; a read-for-ownership fetch invalidates as it
	// goes; resident blocks are supplied cache-to-cache, dirty ones
	// with a concurrent write-back.
	mesiOps = opTable{
		events.ReadMissClean:       {bus.OpCacheRead},
		events.ReadMissDirty:       {bus.OpWriteBack},
		events.ReadMissUncached:    {bus.OpMemRead},
		events.WriteHitCleanShared: {bus.OpBroadcastInvalidate},
		events.WriteMissClean:      {bus.OpCacheRead},
		events.WriteMissDirty:      {bus.OpWriteBack},
		events.WriteMissUncached:   {bus.OpMemRead},
	}

	// dir1nbOps: a block lives in one cache, so a write hit needs no
	// directory query, and a miss to a held block carries the one
	// invalidation with its fetch or write-back request.
	dir1nbOps = opTable{
		events.ReadMissClean:     {bus.OpDirCheckOverlapped, bus.OpInvalidate, bus.OpMemRead},
		events.ReadMissDirty:     {bus.OpDirCheckOverlapped, bus.OpInvalidate, bus.OpWriteBack},
		events.ReadMissUncached:  {bus.OpDirCheckOverlapped, bus.OpMemRead},
		events.WriteMissClean:    {bus.OpDirCheckOverlapped, bus.OpInvalidate, bus.OpMemRead},
		events.WriteMissDirty:    {bus.OpDirCheckOverlapped, bus.OpInvalidate, bus.OpWriteBack},
		events.WriteMissUncached: {bus.OpDirCheckOverlapped, bus.OpMemRead},
	}

	// dir0bOps is Dir0B's and Berkeley's: a directory engine's event
	// operations with every owner request and invalidation broadcast.
	dir0bOps = func() (t opTable) {
		for i := range t {
			t[i] = dirEventOps(events.Type(i), bus.OpBroadcastInvalidate)
		}
		for _, ty := range []events.Type{events.WriteHitCleanShared, events.WriteMissClean} {
			t[ty] = append(t[ty], bus.OpBroadcastInvalidate)
		}
		return t
	}()

	// dragonOps is Dragon's and Firefly's: a dirty block is supplied by
	// its cache, a write to a shared block broadcasts the word, and a
	// write miss to an uncached block fetches it and writes locally.
	dragonOps = opTable{
		events.ReadMissClean:     {bus.OpMemRead},
		events.ReadMissDirty:     {bus.OpCacheRead},
		events.ReadMissUncached:  {bus.OpMemRead},
		events.WriteHitUpdate:    {bus.OpWriteUpdate},
		events.WriteMissClean:    {bus.OpMemRead, bus.OpWriteUpdate},
		events.WriteMissDirty:    {bus.OpCacheRead, bus.OpWriteUpdate},
		events.WriteMissUncached: {bus.OpMemRead},
	}
)

// eventOps returns the per-event table of the scheme an engine of that
// Name runs, or nil when its operations are not a fixed function of the
// event type.
func eventOps(scheme string) *opTable {
	switch scheme {
	case "WTI":
		return &wtiOps
	case "WriteOnce":
		return &writeOnceOps
	case "MESI":
		return &mesiOps
	case "Dir1NB":
		return &dir1nbOps
	case "Dir0B", "Berkeley":
		return &dir0bOps
	case "Dragon", "Firefly":
		return &dragonOps
	}
	return nil
}

// dirEventOps lists the operations a directory engine that never evicts a
// copy emits for one event, its invalidations aside; request is the
// owner's write-back request, directed or broadcast.
func dirEventOps(t events.Type, request bus.Op) []bus.Op {
	switch t {
	case events.ReadMissDirty, events.WriteMissDirty:
		return []bus.Op{bus.OpDirCheckOverlapped, request, bus.OpWriteBack}
	case events.ReadMissClean, events.ReadMissUncached, events.WriteMissClean, events.WriteMissUncached:
		return []bus.Op{bus.OpDirCheckOverlapped, bus.OpMemRead}
	case events.WriteHitCleanSole, events.WriteHitCleanShared:
		return []bus.Op{bus.OpDirCheck}
	}
	return nil
}

// ErrNotCheckable is wrapped by VerifyAccounting's error for Stats whose
// operations their events cannot account for: those of a run that
// replaced sparse-directory entries.
var ErrNotCheckable = errors.New("accounting not checkable")

// VerifyAccounting checks the accounting identity of s, the Stats of a
// run of the named scheme (an engine Name), where the scheme has a
// per-event table: its events priced by the table, plus one write-back
// per dirty finite-cache eviction, must equal its operation tally. It
// returns nil for a scheme without a table. Stats with sparse-directory
// entry replacements (DirEntryEvictions) are not checkable: each
// replacement invalidates every copy of the displaced block, a cost no
// event carries, so the error then wraps ErrNotCheckable.
func VerifyAccounting(scheme string, s *Stats) error {
	t := eventOps(scheme)
	if t == nil {
		return nil
	}
	if s.DirEntryEvictions > 0 {
		return fmt.Errorf("coherence: %s: %w: %d sparse-directory entry replacements",
			scheme, ErrNotCheckable, s.DirEntryEvictions)
	}
	var want bus.OpCounts
	for ty, n := range s.Events {
		for _, op := range t[ty] {
			want[op] += n
		}
	}
	// Replacing a dirty block writes it back; the replacement is no
	// event of its own.
	want[bus.OpWriteBack] += s.EvictionWriteBacks
	if want != s.Ops {
		return fmt.Errorf("coherence: %s accounting mismatch:\n events-derived %v\n measured       %v",
			scheme, want, s.Ops)
	}
	return nil
}
