package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"text/tabwriter"

	"spacejmp/internal/arch"
)

// CoreSnap is one core's view in a Snapshot. ByCat decomposes the cycles
// charged since the sink was installed; Cycles is their total and the MMU
// counts are for the same span (CoreCounters.Complete fills them in).
type CoreSnap struct {
	ID        int               `json:"id" stats:"carry"`
	Cycles    uint64            `json:"cycles"`
	ByCat     map[string]uint64 `json:"by_cat,omitempty"`
	TLBHits   uint64            `json:"tlb_hits"`
	TLBMisses uint64            `json:"tlb_misses"`
	Faults    uint64            `json:"faults"`
	CR3Loads  uint64            `json:"cr3_loads"`
}

// TLBSnap aggregates TLB activity machine-wide.
type TLBSnap struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Evictions      uint64 `json:"evictions"`
	Flushes        uint64 `json:"flushes"`
	FlushedEntries uint64 `json:"flushed_entries"`
}

// HitRate returns hits/(hits+misses), or 0 with no probes.
func (t TLBSnap) HitRate() float64 {
	total := t.Hits + t.Misses
	if total == 0 {
		return 0
	}
	return float64(t.Hits) / float64(total)
}

// ASIDSnap is one address-space tag's TLB activity; an eviction is counted
// under the victim entry's tag.
type ASIDSnap struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// HitRate returns hits/(hits+misses), or 0 with no probes.
func (a ASIDSnap) HitRate() float64 {
	total := a.Hits + a.Misses
	if total == 0 {
		return 0
	}
	return float64(a.Hits) / float64(total)
}

// PTSnap is machine-wide page-table activity. NodesTouched is the
// cumulative count of table nodes the hardware walker referenced.
type PTSnap struct {
	NodesAllocated uint64 `json:"nodes_allocated"`
	NodesFreed     uint64 `json:"nodes_freed"`
	NodesTouched   uint64 `json:"nodes_touched"`
	EntriesSet     uint64 `json:"entries_set"`
	EntriesCleared uint64 `json:"entries_cleared"`
	Walks          uint64 `json:"walks"`
}

// NVMSnap counts data writes into the persistent tier.
type NVMSnap struct {
	Writes       uint64 `json:"writes"`
	WrittenBytes uint64 `json:"written_bytes"`
}

// VMSnap counts VM-layer activity across observed spaces.
type VMSnap struct {
	Maps      uint64 `json:"maps"`
	Unmaps    uint64 `json:"unmaps"`
	Faults    uint64 `json:"faults"`
	COWBreaks uint64 `json:"cow_breaks"`
}

// ShardSnap is one worker shard's serving activity.
type ShardSnap struct {
	Conns    uint64 `json:"conns"`
	Commands uint64 `json:"commands"`
	Busy     uint64 `json:"busy"`
	QueueMax uint64 `json:"queue_max" stats:"carry"`
}

// ServerSnap is the serving layer's view: connection and command totals,
// backpressure rejections, and the pipeline/queue/latency histograms, plus
// the per-shard breakdown.
type ServerSnap struct {
	ConnsAccepted uint64 `json:"conns_accepted"`
	ConnsClosed   uint64 `json:"conns_closed"`
	Commands      uint64 `json:"commands"`
	Busy          uint64 `json:"busy"`

	Pipeline   HistSnap `json:"pipeline"`
	QueueDepth HistSnap `json:"queue_depth"`
	LatencyNs  HistSnap `json:"latency_ns"`

	Shards []ShardSnap `json:"shards,omitempty"`
}

// NodeSnap is one cluster shard node's routing activity. Local and Remote sum
// to the ClusterSnap totals. Timeouts counts the -SHARDTIMEOUT replies the
// node's commands got, whichever way: a retry ladder exhausted (the total
// ClusterSnap.Timeouts) or a dispatch shed by the node's open breaker, so
// Σ Nodes[i].Timeouts == Cluster.Timeouts + Overload.Shed.
type NodeSnap struct {
	Local    uint64 `json:"local"`
	Remote   uint64 `json:"remote"`
	Timeouts uint64 `json:"timeouts"`
}

// ReplicationSnap is the replication/failover side of the cluster layer:
// checkpoint shipping, health probing, and promotion activity.
type ReplicationSnap struct {
	Ships         uint64 `json:"ships"`
	ShipBytes     uint64 `json:"ship_bytes"`
	FullShips     uint64 `json:"full_ships"`
	ShipFailures  uint64 `json:"ship_failures"`
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	Promotions    uint64 `json:"promotions"`
	DeltaReplayed uint64 `json:"delta_replayed"`
	LostUpdates   uint64 `json:"lost_updates"`
}

// MigrationSnap is the elastic-membership side of the cluster layer: slot
// migrations, node join/leave, and the -MOVED retries clients absorbed
// while slots flipped. SlotKeys maps slot → key count observed when that
// slot last migrated (point-in-time, not monotonic).
type MigrationSnap struct {
	SlotMoves        uint64         `json:"slot_moves"`
	SlotMoveFailures uint64         `json:"slot_move_failures"`
	KeysMoved        uint64         `json:"keys_moved"`
	BytesMoved       uint64         `json:"bytes_moved"`
	DeltaReplayed    uint64         `json:"delta_replayed"`
	MovedRetries     uint64         `json:"moved_retries"`
	NodesAdded       uint64         `json:"nodes_added"`
	NodesRemoved     uint64         `json:"nodes_removed"`
	SlotKeys         map[int]uint64 `json:"slot_keys,omitempty" stats:"carry"`
}

// ForkSnap is the COW-fork side of the cluster layer: frozen views forked
// for checkpoint shipping and follower reads, their lifecycle (release,
// fence invalidation), the read traffic they absorbed, and how long
// fork-based ships spent off the node mutex.
type ForkSnap struct {
	Forks         uint64   `json:"forks"`
	Releases      uint64   `json:"releases"`
	Invalidated   uint64   `json:"invalidated"`
	FollowerReads uint64   `json:"follower_reads"`
	StaleRejected uint64   `json:"stale_rejected"`
	ShipNs        HistSnap `json:"ship_ns"`
}

// OverloadSnap is the overload-protection side of the cluster layer:
// deadline-budget refusals, breaker-shed dispatches, degraded (stale)
// reads, breaker transition counts, and the budget-margin distribution.
type OverloadSnap struct {
	DeadlineExpired  uint64   `json:"deadline_expired"`
	Shed             uint64   `json:"shed"`
	DegradedReads    uint64   `json:"degraded_reads"`
	BreakerOpens     uint64   `json:"breaker_opens"`
	BreakerHalfOpens uint64   `json:"breaker_half_opens"`
	BreakerCloses    uint64   `json:"breaker_closes"`
	BudgetRemaining  HistSnap `json:"budget_remaining"`
}

// TenantSnap is one tenant's serving activity: admitted commands and their
// payload bytes, quota rejections at admission, and capability denials on
// cross-view addresses (billed to the caller, so a probing tenant shows up
// in its own row). Index order follows tenant registration order.
type TenantSnap struct {
	Commands        uint64 `json:"commands"`
	Bytes           uint64 `json:"bytes"`
	QuotaRejections uint64 `json:"quota_rejections"`
	CapDenials      uint64 `json:"cap_denials"`
}

// ClusterSnap is the cluster layer's view: how many commands were served on
// the shared-VAS fast path versus over urpc, what each mode cost in worker
// cycles, and the per-node breakdown.
type ClusterSnap struct {
	Local    uint64 `json:"local"`
	Remote   uint64 `json:"remote"`
	Timeouts uint64 `json:"timeouts"`

	LocalCycles    HistSnap `json:"local_cycles"`
	RemoteCycles   HistSnap `json:"remote_cycles"`
	URPCCallCycles HistSnap `json:"urpc_call_cycles"`

	Replication *ReplicationSnap `json:"replication,omitempty"`
	Migration   *MigrationSnap   `json:"migration,omitempty"`
	Fork        *ForkSnap        `json:"fork,omitempty"`
	Overload    *OverloadSnap    `json:"overload,omitempty"`

	Nodes []NodeSnap `json:"nodes,omitempty"`
}

// Snapshot is an immutable, point-in-time copy of every counter the
// observability layer maintains. It shares no memory with the live Sink:
// mutating the machine after Snapshot() leaves the snapshot unchanged.
type Snapshot struct {
	Cores    []CoreSnap             `json:"cores,omitempty"`
	Cycles   map[string]uint64      `json:"cycles_by_cat,omitempty"`
	TLB      TLBSnap                `json:"tlb"`
	ASIDs    map[arch.ASID]ASIDSnap `json:"asids,omitempty"`
	PT       PTSnap                 `json:"pt"`
	NVM      NVMSnap                `json:"nvm"`
	VM       VMSnap                 `json:"vm"`
	Syscalls map[string]HistSnap    `json:"syscalls,omitempty"`
	Server   *ServerSnap            `json:"server,omitempty"`
	Cluster  *ClusterSnap           `json:"cluster,omitempty"`
	Tenants  []TenantSnap           `json:"tenants,omitempty"`

	LockWaitNs     HistSnap `json:"lock_wait_ns"`
	LockHoldCycles HistSnap `json:"lock_hold_cycles"`

	Shootdowns     uint64 `json:"shootdowns"`
	ShootdownPages uint64 `json:"shootdown_pages"`
	URPCRetries    uint64 `json:"urpc_retries"`
	FaultsInjected uint64 `json:"faults_injected"`
	Switches       uint64 `json:"switches"`

	TraceRecorded uint64 `json:"trace_recorded"`
	TraceDropped  uint64 `json:"trace_dropped"`
}

// Snapshot copies the sink-owned counters into an immutable Snapshot: the
// regular blocks by name (see fill), then the parts with a shape of their
// own — per-core category shards, per-tag TLB counters, per-op syscall
// histograms, the tracer's totals. Per-core total cycles and MMU counters are
// owned by the hardware layer (hw.Machine.StatsSnapshot completes them) and
// Switches by core.System.Stats. Returns nil on a nil sink.
func (s *Sink) Snapshot() *Snapshot {
	if s == nil {
		return nil
	}
	snap := &Snapshot{
		Cores:    make([]CoreSnap, len(s.cores)),
		Cycles:   make(map[string]uint64, NumCats),
		ASIDs:    map[arch.ASID]ASIDSnap{},
		Syscalls: map[string]HistSnap{},
	}
	fill(reflect.ValueOf(snap).Elem(), reflect.ValueOf(&s.live).Elem())
	if isZero(reflect.ValueOf(snap.Tenants)) {
		snap.Tenants = nil // optional like the pointer blocks, though a slice
	}
	for i := range s.cores {
		by := make(map[string]uint64, NumCats)
		for c := 0; c < NumCats; c++ {
			if v := s.cores[i].cycles[c].Load(); v != 0 {
				by[Cat(c).String()] = v
				snap.Cycles[Cat(c).String()] += v
			}
		}
		snap.Cores[i] = CoreSnap{ID: i, ByCat: by}
		s.cores[i].addASIDs(snap.ASIDs)
	}
	for _, a := range snap.ASIDs {
		snap.TLB.Hits += a.Hits
		snap.TLB.Misses += a.Misses
		snap.TLB.Evictions += a.Evictions
	}
	for op := 0; op < NumOps; op++ {
		if h := s.syscalls[op].Snap(); h.Count != 0 {
			snap.Syscalls[Op(op).String()] = h
		}
	}
	if t := s.tracer.Load(); t != nil {
		snap.TraceRecorded = t.Recorded()
		snap.TraceDropped = t.Dropped()
	}
	return snap
}

// Delta returns this snapshot minus an earlier one, counter by counter —
// the per-measurement view a benchmark prints. A nil before is treated as
// all-zero; so is a block, table row or map entry that before lacks. Map
// entries whose difference is zero are dropped. Histogram Max fields and the
// fields tagged `stats:"carry"` (a label, a high-water mark, a point-in-time
// table) carry the later snapshot's value.
func (s *Snapshot) Delta(before *Snapshot) *Snapshot {
	if s == nil {
		return nil
	}
	if before == nil {
		before = &Snapshot{}
	}
	out := new(Snapshot)
	subtract(reflect.ValueOf(out).Elem(), reflect.ValueOf(s).Elem(), reflect.ValueOf(before).Elem())
	if len(s.Tenants) == 0 {
		out.Tenants = s.Tenants // absent stays absent, as a nil block does
	}
	return out
}

// Dense returns a copy of the snapshot with every optional block present —
// zero where the original has none — so that a reader polling one counter
// can write snap.Dense().Cluster.Replication.Promotions without a nil check
// per level. Safe on a nil snapshot, whose dense form is all zero.
func (s *Snapshot) Dense() *Snapshot {
	out := new(Snapshot)
	if s != nil {
		*out = *s
	}
	allocate(reflect.ValueOf(out).Elem())
	return out
}

// JSON renders the snapshot as indented JSON.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// WriteText renders the snapshot as a human-readable counter table: the
// cycle decomposition with its total, then every block of the Snapshot type
// that recorded anything, named by its JSON tag. Scripts read the JSON; this
// layout is for people and may change.
func (s *Snapshot) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "cycles by category\n")
	var total uint64
	for c := 0; c < NumCats; c++ {
		if n := s.Cycles[Cat(c).String()]; n != 0 {
			fmt.Fprintf(tw, "  %s\t%d\n", Cat(c), n)
			total += n
		}
	}
	fmt.Fprintf(tw, "  total\t%d\n", total)
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Name != "Cycles" {
			text(tw, "", textName(f), v.Field(i))
		}
	}
	return tw.Flush()
}
