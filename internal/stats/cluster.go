package stats

import (
	"fmt"
	"sync/atomic"
)

// Cluster-layer counters. The cluster router serves every command one of
// two ways — a VAS switch onto a co-resident shard's store, or a urpc call
// to a remote shard node — and the whole point of the layer (paper §5.3,
// Figure 7) is comparing what the two modes cost. The sink therefore keeps,
// besides per-node routing counts, a cycle histogram per mode: the worker
// core's simulated-cycle delta across one request, so the local and remote
// distributions can be read side by side from one snapshot.

// ClusterCounters is the sink's cluster-layer block, nested as ClusterSnap
// is. The Router holds it (Sink.Cluster), and a node its NodeCounters row, and
// they count where the event happens; the methods below are the events that
// also go to the trace ring.
type ClusterCounters struct {
	Local    atomic.Uint64 // commands served on the shared-VAS fast path
	Remote   atomic.Uint64 // commands served over urpc
	Timeouts atomic.Uint64 // remote commands whose retries were exhausted

	LocalCycles    Hist // worker-core cycles per locally-served command
	RemoteCycles   Hist // worker-core cycles per remotely-served command
	URPCCallCycles Hist // cycles of the urpc Call alone (transfer + dispatch + server work)

	Replication replicationCounters
	Migration   migrationCounters
	Fork        forkCounters
	Overload    overloadCounters

	Nodes table[NodeCounters]
}

// replicationCounters is replication and failover activity (replicated
// clusters only).
type replicationCounters struct {
	Ships         atomic.Uint64 // checkpoint generations shipped to replicas
	ShipBytes     atomic.Uint64 // segment-image payload bytes moved
	FullShips     atomic.Uint64 // ships that rebuilt the standby from every page, not a delta
	ShipFailures  atomic.Uint64 // ships abandoned (transport or checkpoint failure)
	Probes        atomic.Uint64 // health probes sent
	ProbeFailures atomic.Uint64 // probes that timed out, were dropped, or hit a dead node
	Promotions    atomic.Uint64 // replicas promoted to serve a dead node's range
	DeltaReplayed atomic.Uint64 // post-checkpoint delta entries replayed at promotion
	LostUpdates   atomic.Uint64 // updates lost to delta-window overflow or replay failure
}

// migrationCounters is elastic-membership activity (slot migrations, node
// join/leave).
type migrationCounters struct {
	SlotMoves        atomic.Uint64 // slots whose ownership flipped after a full copy
	SlotMoveFailures atomic.Uint64 // migrations aborted and rolled back
	KeysMoved        atomic.Uint64 // keys copied into migration targets
	BytesMoved       atomic.Uint64 // key+value payload bytes streamed during migrations
	DeltaReplayed    atomic.Uint64 // writes replayed from migration delta logs
	MovedRetries     atomic.Uint64 // -MOVED refusals sent to commands racing a flip
	NodesAdded       atomic.Uint64 // nodes joined mid-run
	NodesRemoved     atomic.Uint64 // nodes drained and retired mid-run
	SlotKeys         slotKeys      // key count seen when each slot last migrated
}

// forkCounters is COW-fork activity (fork-based checkpoint shipping and
// follower reads).
type forkCounters struct {
	Forks         atomic.Uint64 // frozen views forked off live shards
	Releases      atomic.Uint64 // frozen views released and reclaimed
	Invalidated   atomic.Uint64 // views fenced off by promotion or slot flip
	FollowerReads atomic.Uint64 // read commands served from a frozen view
	StaleRejected atomic.Uint64 // follower reads refused with -STALE past the bound
	ShipNs        Hist          // wall ns per fork-based image extraction + apply, off-mutex
}

// overloadCounters is overload protection (deadline budgets, breakers,
// degradation).
type overloadCounters struct {
	DeadlineExpired  atomic.Uint64 // commands refused with -DEADLINE (budget exhausted)
	Shed             atomic.Uint64 // remote dispatches refused fast by an open breaker
	DegradedReads    atomic.Uint64 // reads served stale because the primary was overloaded
	BreakerOpens     atomic.Uint64 // breaker transitions into open
	BreakerHalfOpens atomic.Uint64 // breaker transitions into half-open
	BreakerCloses    atomic.Uint64 // breaker transitions back to closed
	BudgetRemaining  Hist          // cycles left on the budget when a budgeted command finished
}

// NodeCounters is one shard node's routing activity: how many commands the
// router served against it locally, remotely, and how many remote calls
// timed out or were shed. Multi-key commands count once per node they touch.
type NodeCounters struct {
	Local    atomic.Uint64
	Remote   atomic.Uint64
	Timeouts atomic.Uint64
}

// slotKeys is the per-slot key-count table: one entry per placement slot,
// each the key count observed when that slot last migrated. It snapshots to
// the sparse map MigrationSnap.SlotKeys.
type slotKeys struct {
	table atomic.Pointer[[]atomic.Uint64]
}

func (k *slotKeys) snapshot() map[int]uint64 {
	var out map[int]uint64
	if table := k.table.Load(); table != nil {
		for i := range *table {
			if v := (*table)[i].Load(); v != 0 {
				if out == nil {
					out = map[int]uint64{}
				}
				out[i] = v
			}
		}
	}
	return out
}

// InstallClusterSlots sizes the per-slot key-count table (one entry per
// placement slot). Safe on nil.
func (s *Sink) InstallClusterSlots(n int) {
	if s == nil {
		return
	}
	table := make([]atomic.Uint64, n)
	s.live.Cluster.Migration.SlotKeys.table.Store(&table)
}

// ClusterRemote records one command (or one node's share of a multi-key
// command) served over urpc, with the worker-core cycles it cost end to
// end, and traces it. Safe on nil.
func (s *Sink) ClusterRemote(node int, cycles uint64) {
	if s == nil {
		return
	}
	s.live.Cluster.Remote.Add(1)
	s.live.Cluster.RemoteCycles.Observe(cycles)
	s.live.Cluster.Nodes.Row(node).Remote.Add(1)
	s.Trace(Event{Kind: EvRemoteCall, Core: -1, A: uint64(node), B: cycles})
}

// ClusterShip records one checkpoint generation shipped to a node's
// replica, with the image payload bytes moved and whether the image was a
// full one (the standby rebuilt) or a delta (patched), and traces it. Safe on
// nil.
func (s *Sink) ClusterShip(node int, bytes uint64, full bool) {
	if s == nil {
		return
	}
	s.live.Cluster.Replication.Ships.Add(1)
	s.live.Cluster.Replication.ShipBytes.Add(bytes)
	if full {
		s.live.Cluster.Replication.FullShips.Add(1)
	}
	s.Trace(Event{Kind: EvCheckpointShip, Core: -1, A: uint64(node), B: bytes})
}

// ClusterNodeState traces a node health-state transition. Safe on nil.
func (s *Sink) ClusterNodeState(node int, state string) {
	if s != nil {
		s.Trace(Event{Kind: EvNodeState, Core: -1, A: uint64(node), Label: state})
	}
}

// ClusterPromotion records one replica promotion: how many buffered delta
// entries were replayed onto the standby and how many updates were lost
// (delta-window overflow or replay failure). Safe on nil.
func (s *Sink) ClusterPromotion(node int, replayed, lost uint64) {
	if s == nil {
		return
	}
	s.live.Cluster.Replication.Promotions.Add(1)
	s.live.Cluster.Replication.DeltaReplayed.Add(replayed)
	s.live.Cluster.Replication.LostUpdates.Add(lost)
	ev := Event{Kind: EvPromotion, Core: -1, A: uint64(node), B: replayed}
	if lost > 0 {
		ev.Label = fmt.Sprintf("%d", lost)
	}
	s.Trace(ev)
}

// ClusterSlotMoved records one completed slot migration: keys and payload
// bytes streamed to the new owner, delta-log writes replayed during the
// copy, and the slot's key count at flip time. Traced. Safe on nil.
func (s *Sink) ClusterSlotMoved(slot, src, dst int, keys, bytes, replayed uint64) {
	if s == nil {
		return
	}
	s.live.Cluster.Migration.SlotMoves.Add(1)
	s.live.Cluster.Migration.KeysMoved.Add(keys)
	s.live.Cluster.Migration.BytesMoved.Add(bytes)
	s.live.Cluster.Migration.DeltaReplayed.Add(replayed)
	if table := s.live.Cluster.Migration.SlotKeys.table.Load(); table != nil && slot >= 0 && slot < len(*table) {
		(*table)[slot].Store(keys)
	}
	s.Trace(Event{Kind: EvSlotMove, Core: -1, A: uint64(slot), B: keys,
		Label: fmt.Sprintf("%d->%d", src, dst)})
}

// ClusterSlotMoveFailed records one migration aborted and rolled back;
// the source stays authoritative. Traced with the reason. Safe on nil.
func (s *Sink) ClusterSlotMoveFailed(slot, src, dst int, reason string) {
	if s == nil {
		return
	}
	s.live.Cluster.Migration.SlotMoveFailures.Add(1)
	s.Trace(Event{Kind: EvSlotMoveFailed, Core: -1, A: uint64(slot),
		Label: fmt.Sprintf("%d->%d: %s", src, dst, reason)})
}

// ClusterNodeAdded records and traces a node joining the live cluster.
// Safe on nil.
func (s *Sink) ClusterNodeAdded(node int) {
	if s == nil {
		return
	}
	s.live.Cluster.Migration.NodesAdded.Add(1)
	s.Trace(Event{Kind: EvNodeAdded, Core: -1, A: uint64(node)})
}

// ClusterNodeRemoved records and traces a node drained and retired from the
// live cluster. Safe on nil.
func (s *Sink) ClusterNodeRemoved(node int) {
	if s == nil {
		return
	}
	s.live.Cluster.Migration.NodesRemoved.Add(1)
	s.Trace(Event{Kind: EvNodeRemoved, Core: -1, A: uint64(node)})
}

// ClusterFork records one frozen view forked off node's live shard at
// generation gen, and traces it. Safe on nil.
func (s *Sink) ClusterFork(node int, gen uint64) {
	if s == nil {
		return
	}
	s.live.Cluster.Fork.Forks.Add(1)
	s.Trace(Event{Kind: EvFork, Core: -1, A: uint64(node), B: gen})
}

// ClusterForkRelease records one frozen view released: its private frames
// went back to the allocator. Traced. Safe on nil.
func (s *Sink) ClusterForkRelease(node int, gen uint64) {
	if s == nil {
		return
	}
	s.live.Cluster.Fork.Releases.Add(1)
	s.Trace(Event{Kind: EvForkRelease, Core: -1, A: uint64(node), B: gen})
}

// ClusterForkInvalidate records views fenced off a node by a promotion or
// slot-migration flip. Traced with the reason. Safe on nil.
func (s *Sink) ClusterForkInvalidate(node int, views uint64, reason string) {
	if s == nil {
		return
	}
	s.live.Cluster.Fork.Invalidated.Add(views)
	s.Trace(Event{Kind: EvForkInvalidate, Core: -1, A: uint64(node), B: views, Label: reason})
}

// ClusterBreaker traces one circuit-breaker transition on node; the cluster
// layer, which has the typed state, counts it. Safe on nil.
func (s *Sink) ClusterBreaker(node int, from, to string) {
	if s != nil {
		s.Trace(Event{Kind: EvBreakerState, Core: -1, A: uint64(node), Label: from + "->" + to})
	}
}
