package coherence

import (
	"fmt"
	"strings"

	"dirsim/internal/blockid"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// NUMAEngine models the paper's Section 7 machine at the message level:
// memory and directory are distributed across the processing nodes, and
// coherence actions become point-to-point messages on an interconnect
// instead of bus transactions. Each node is one cache of the core's
// configuration.
//
// The protocol is the full-map directory (Dir_nNB, the organisation the
// paper recommends for scaling): every block has a home node holding its
// memory and directory entry; misses go to the home, which forwards to a
// dirty owner or answers from memory, and writes trigger directed
// invalidations with acknowledgements. Its Table 4 classification is
// therefore Dir_nNB's; what it adds is the message accounting NUMAStats
// reports:
//
//   - protocol messages (interconnect bandwidth demand),
//   - critical-path hops (the latency a requester waits through: the
//     classic 2-hop clean miss and 3-hop dirty miss), and
//   - the fraction of transactions whose home is the local node (free
//     hops).
//
// Two home-assignment policies are provided: Interleaved (home = block mod
// nodes, the hardware-simple choice) and FirstTouch (home = first node to
// reference the block, the locality-preserving OS policy). The contrast
// quantifies why first-touch placement matters on directory machines.
//
// The engine is not a registry scheme: NewByName does not build it, and
// it emits no bus operations, so its Stats carry references, events,
// transactions and per-cache tallies only. A message marks the reference
// as a transaction.
type NUMAEngine struct {
	engineCore
	policy HomePolicy

	// home is each block's home node by block id, -1 until the block's
	// first data reference; only FirstTouch keeps it, since an
	// interleaved home follows from the block address.
	home []int32

	// msgs holds the message tallies. They stay outside Stats, like
	// DirEngine.missSharers; its Refs, Events and Transactions stay zero
	// and NUMAStats takes them from the core.
	msgs NUMAStats
}

// HomePolicy selects how blocks are assigned to home nodes.
type HomePolicy uint8

const (
	// Interleaved homes block b at node b mod n.
	Interleaved HomePolicy = iota
	// FirstTouch homes a block at the node that first references it.
	FirstTouch
)

// String names the policy.
func (p HomePolicy) String() string {
	switch p {
	case Interleaved:
		return "interleaved"
	case FirstTouch:
		return "first-touch"
	default:
		return fmt.Sprintf("HomePolicy(%d)", uint8(p))
	}
}

// NUMAConfig parameterises the distributed machine.
type NUMAConfig struct {
	// Nodes is the number of processor+memory+directory nodes.
	Nodes int
	// Policy selects the home assignment.
	Policy HomePolicy
}

// Validate checks the configuration.
func (c NUMAConfig) Validate() error {
	if c.Nodes < 1 || c.Nodes > 1<<16 {
		return fmt.Errorf("numa: node count %d out of range", c.Nodes)
	}
	if c.Policy > FirstTouch {
		return fmt.Errorf("numa: unknown home policy %d", c.Policy)
	}
	return nil
}

// NUMAStats is the message-level accounting of a distributed run.
type NUMAStats struct {
	// Refs is the number of references processed.
	Refs uint64
	// Events is the Table 4 classification (identical to the bus
	// simulator's DirnNB engine on the same trace — asserted in tests).
	Events events.Counts
	// Messages is the total protocol messages placed on the
	// interconnect (requests, forwards, data, invalidations, acks).
	Messages uint64
	// CriticalHops is the total hops on requesters' critical paths
	// (a hop between two distinct nodes costs 1; a local hop costs 0).
	CriticalHops uint64
	// Transactions counts references that needed any messages.
	Transactions uint64
	// HomeLocal and HomeRemote split transactions by whether the block's
	// home was the requesting node.
	HomeLocal, HomeRemote uint64
	// Invalidations and InvalAcks count directed invalidation traffic.
	Invalidations, InvalAcks uint64
	// ThreeHopMisses counts misses serviced by a dirty remote owner.
	ThreeHopMisses uint64
}

// MessagesPerRef returns average protocol messages per reference.
func (s *NUMAStats) MessagesPerRef() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Messages) / float64(s.Refs)
}

// CriticalHopsPerRef returns average critical-path hops per reference.
func (s *NUMAStats) CriticalHopsPerRef() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.CriticalHops) / float64(s.Refs)
}

// LocalHomeFraction returns the fraction of transactions whose home node
// was local.
func (s *NUMAStats) LocalHomeFraction() float64 {
	t := s.HomeLocal + s.HomeRemote
	if t == 0 {
		return 0
	}
	return float64(s.HomeLocal) / float64(t)
}

// NewNUMA returns a distributed-directory engine.
func NewNUMA(cfg NUMAConfig) (*NUMAEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	core, err := newCore(fmt.Sprintf("NUMA(%s)", cfg.Policy), Config{Caches: cfg.Nodes})
	if err != nil {
		return nil, err
	}
	return &NUMAEngine{engineCore: core, policy: cfg.Policy}, nil
}

// Nodes returns the machine size.
func (e *NUMAEngine) Nodes() int { return e.cfg.Caches }

// NUMAStats returns the message-level accounting so far: the message
// tallies with the core's references, events and transactions.
func (e *NUMAEngine) NUMAStats() *NUMAStats {
	s := e.msgs
	s.Refs, s.Events, s.Transactions = e.stats.Refs, e.stats.Events, e.stats.Transactions
	return &s
}

// ResetStats implements Engine: the tallies, message tallies included,
// are zeroed and the protocol state and homes are kept.
func (e *NUMAEngine) ResetStats() {
	e.engineCore.ResetStats()
	e.msgs = NUMAStats{}
}

// Access implements Engine: intern the block and delegate to AccessID.
func (e *NUMAEngine) Access(c int, kind trace.Kind, block uint64, first bool) events.Type {
	return e.AccessID(c, kind, block, e.intern(kind, block), first)
}

// AccessID implements IndexedEngine for a reference from node c.
func (e *NUMAEngine) AccessID(c int, kind trace.Kind, block uint64, id blockid.ID, first bool) events.Type {
	e.begin(c)
	if kind == trace.Instr {
		e.event(events.Instr)
		return events.Instr
	}
	e.state.ensure(id)
	home := e.homeOf(c, block, id)
	if kind == trace.Read {
		e.read(c, home, id, first)
	} else {
		e.write(c, home, id, first)
	}
	if e.txn {
		if home == c {
			e.msgs.HomeLocal++
		} else {
			e.msgs.HomeRemote++
		}
	}
	e.end(c)
	return e.last
}

// homeOf resolves the block's home node, assigning it to node c on the
// block's first data reference under FirstTouch.
func (e *NUMAEngine) homeOf(c int, block uint64, id blockid.ID) int {
	if e.policy == Interleaved {
		return int(block % uint64(e.cfg.Caches))
	}
	if int(id) >= len(e.home) {
		e.growHomes(id)
	}
	if e.home[id] < 0 {
		e.home[id] = int32(c)
	}
	return int(e.home[id])
}

// growHomes is homeOf's slow path, at least doubling like blockStates.
func (e *NUMAEngine) growHomes(id blockid.ID) {
	old := len(e.home)
	e.home = grow(e.home, int(id)+1+old)
	for i := old; i < len(e.home); i++ {
		e.home[i] = -1
	}
}

// hop counts one message from node a to node b: it always costs a message
// and makes the reference a transaction; it costs a critical-path hop only
// when it crosses nodes and is on the requester's waiting path.
func (e *NUMAEngine) hop(a, b int, critical bool) {
	e.msgs.Messages++
	if critical && a != b {
		e.msgs.CriticalHops++
	}
	e.txn = true
}

func (e *NUMAEngine) read(c, home int, id blockid.ID, first bool) {
	st := &e.state
	if st.sharers[id].Contains(c) {
		e.event(events.ReadHit)
		return
	}
	if first {
		st.sharers[id].Add(c)
		e.event(events.ReadMissFirst)
		return
	}
	// Request to the home.
	e.hop(c, home, true)
	switch {
	case st.dirty[id]:
		// Home forwards to the owner; the owner sends the data to the
		// requester and a sharing write-back to the home.
		owner := int(st.owner[id])
		e.hop(home, owner, true)
		e.hop(owner, c, true)
		e.hop(owner, home, false) // write-back, off the critical path
		e.msgs.ThreeHopMisses++
		st.dirty[id] = false
		st.owner[id] = -1
		e.event(events.ReadMissDirty)
	case !st.sharers[id].Empty():
		e.hop(home, c, true) // data reply from home memory
		e.event(events.ReadMissClean)
	default:
		e.hop(home, c, true)
		e.event(events.ReadMissUncached)
	}
	st.sharers[id].Add(c)
}

func (e *NUMAEngine) write(c, home int, id blockid.ID, first bool) {
	st := &e.state
	holds := st.sharers[id].Contains(c)
	switch {
	case holds && st.dirty[id]:
		// Owner writes locally.
		e.event(events.WriteHitDirty)
		return
	case first:
		e.event(events.WriteMissFirst)
	case holds:
		// Upgrade: ownership request to the home, then invalidations.
		e.hop(c, home, true)
		if st.sharers[id].ContainsOther(c) {
			e.event(events.WriteHitCleanShared)
		} else {
			e.event(events.WriteHitCleanSole)
		}
		e.invalidate(c, home, id)
		e.hop(home, c, true) // ownership grant
	case st.dirty[id]:
		// Dirty elsewhere: forward through the home to the owner, who
		// sends the block (with ownership) to the requester.
		owner := int(st.owner[id])
		e.hop(c, home, true)
		e.hop(home, owner, true)
		e.hop(owner, c, true)
		e.msgs.ThreeHopMisses++
		e.event(events.WriteMissDirty)
	case !st.sharers[id].Empty():
		e.hop(c, home, true)
		e.event(events.WriteMissClean)
		e.invalidate(c, home, id)
		e.hop(home, c, true) // data + ownership
	default:
		e.hop(c, home, true)
		e.hop(home, c, true)
		e.event(events.WriteMissUncached)
	}
	st.sharers[id].Clear()
	st.sharers[id].Add(c)
	st.dirty[id] = true
	st.owner[id] = int32(c)
}

// invalidate sends directed invalidations from the home to every sharer
// but the writer c and collects their acknowledgements at c.
func (e *NUMAEngine) invalidate(c, home int, id blockid.ID) {
	sh := &e.state.sharers[id]
	for h := sh.Next(0); h >= 0; h = sh.Next(h + 1) {
		if h != c {
			e.hop(home, h, true) // invalidation
			e.hop(h, c, true)    // acknowledgement to the writer
			e.msgs.Invalidations++
			e.msgs.InvalAcks++
		}
	}
}

// CheckInvariants implements Engine: a dirty block has exactly one
// holder, its owner, and every assigned home is a node of the machine.
func (e *NUMAEngine) CheckInvariants() error {
	for i := range e.state.sharers {
		sh := &e.state.sharers[i]
		if !e.state.dirty[i] || sh.Empty() {
			continue
		}
		block := e.tab.Block(blockid.ID(i))
		if n := sh.Count(); n != 1 {
			return fmt.Errorf("numa: block %#x dirty with %d holders", block, n)
		}
		if sole, _ := sh.Sole(); sole != int(e.state.owner[i]) {
			return fmt.Errorf("numa: block %#x owner mismatch", block)
		}
	}
	for i, h := range e.home {
		if h < -1 || int(h) >= e.cfg.Caches {
			return fmt.Errorf("numa: block %#x home %d out of range", e.tab.Block(blockid.ID(i)), h)
		}
	}
	return nil
}

// StateKey implements Inspector: the ground truth and, under FirstTouch,
// each block's assigned home, which decides the hops its future misses
// cost.
func (e *NUMAEngine) StateKey(blocks []uint64) string {
	if e.policy == Interleaved {
		return e.engineCore.StateKey(blocks)
	}
	return e.stateKey(blocks, func(b *strings.Builder, id blockid.ID, ok bool) {
		e.state.appendKey(b, id, ok)
		if ok && int(id) < len(e.home) && e.home[id] >= 0 {
			fmt.Fprintf(b, "@%d", e.home[id])
		}
	})
}
