package stats

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"spacejmp/internal/arch"
)

// refDelta is the hand-written Snapshot.Delta this package had before Delta
// became a walk over the Snapshot type: one subtraction line per counter,
// kept verbatim as the reference model the walk is compared against.
func refDelta(s, before *Snapshot) *Snapshot {
	if s == nil {
		return nil
	}
	out := *s
	if before == nil {
		before = &Snapshot{}
	}
	out.Cores = make([]CoreSnap, len(s.Cores))
	for i, c := range s.Cores {
		d := c
		d.ByCat = refSubMap(c.ByCat, nil)
		if i < len(before.Cores) {
			b := before.Cores[i]
			d.Cycles -= b.Cycles
			d.TLBHits -= b.TLBHits
			d.TLBMisses -= b.TLBMisses
			d.Faults -= b.Faults
			d.CR3Loads -= b.CR3Loads
			d.ByCat = refSubMap(c.ByCat, b.ByCat)
		}
		out.Cores[i] = d
	}
	out.Cycles = refSubMap(s.Cycles, before.Cycles)
	out.TLB = TLBSnap{
		Hits:           s.TLB.Hits - before.TLB.Hits,
		Misses:         s.TLB.Misses - before.TLB.Misses,
		Evictions:      s.TLB.Evictions - before.TLB.Evictions,
		Flushes:        s.TLB.Flushes - before.TLB.Flushes,
		FlushedEntries: s.TLB.FlushedEntries - before.TLB.FlushedEntries,
	}
	out.ASIDs = map[arch.ASID]ASIDSnap{}
	for asid, a := range s.ASIDs {
		b := before.ASIDs[asid]
		d := ASIDSnap{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Evictions: a.Evictions - b.Evictions}
		if d.Hits != 0 || d.Misses != 0 || d.Evictions != 0 {
			out.ASIDs[asid] = d
		}
	}
	out.PT = PTSnap{
		NodesAllocated: s.PT.NodesAllocated - before.PT.NodesAllocated,
		NodesFreed:     s.PT.NodesFreed - before.PT.NodesFreed,
		NodesTouched:   s.PT.NodesTouched - before.PT.NodesTouched,
		EntriesSet:     s.PT.EntriesSet - before.PT.EntriesSet,
		EntriesCleared: s.PT.EntriesCleared - before.PT.EntriesCleared,
		Walks:          s.PT.Walks - before.PT.Walks,
	}
	out.NVM = NVMSnap{Writes: s.NVM.Writes - before.NVM.Writes, WrittenBytes: s.NVM.WrittenBytes - before.NVM.WrittenBytes}
	out.VM = VMSnap{Maps: s.VM.Maps - before.VM.Maps, Unmaps: s.VM.Unmaps - before.VM.Unmaps, Faults: s.VM.Faults - before.VM.Faults, COWBreaks: s.VM.COWBreaks - before.VM.COWBreaks}
	out.Syscalls = map[string]HistSnap{}
	for op, h := range s.Syscalls {
		d := h.sub(before.Syscalls[op])
		if d.Count != 0 {
			out.Syscalls[op] = d
		}
	}
	if s.Server != nil {
		b := before.Server
		if b == nil {
			b = &ServerSnap{}
		}
		d := &ServerSnap{
			ConnsAccepted: s.Server.ConnsAccepted - b.ConnsAccepted,
			ConnsClosed:   s.Server.ConnsClosed - b.ConnsClosed,
			Commands:      s.Server.Commands - b.Commands,
			Busy:          s.Server.Busy - b.Busy,
			Pipeline:      s.Server.Pipeline.sub(b.Pipeline),
			QueueDepth:    s.Server.QueueDepth.sub(b.QueueDepth),
			LatencyNs:     s.Server.LatencyNs.sub(b.LatencyNs),
		}
		d.Shards = make([]ShardSnap, len(s.Server.Shards))
		for i, sh := range s.Server.Shards {
			ds := sh // QueueMax is a high-water mark; carry the later value
			if i < len(b.Shards) {
				ds.Conns -= b.Shards[i].Conns
				ds.Commands -= b.Shards[i].Commands
				ds.Busy -= b.Shards[i].Busy
			}
			d.Shards[i] = ds
		}
		out.Server = d
	}
	if s.Cluster != nil {
		b := before.Cluster
		if b == nil {
			b = &ClusterSnap{}
		}
		d := &ClusterSnap{
			Local:          s.Cluster.Local - b.Local,
			Remote:         s.Cluster.Remote - b.Remote,
			Timeouts:       s.Cluster.Timeouts - b.Timeouts,
			LocalCycles:    s.Cluster.LocalCycles.sub(b.LocalCycles),
			RemoteCycles:   s.Cluster.RemoteCycles.sub(b.RemoteCycles),
			URPCCallCycles: s.Cluster.URPCCallCycles.sub(b.URPCCallCycles),
		}
		if s.Cluster.Replication != nil {
			br := ReplicationSnap{}
			if b.Replication != nil {
				br = *b.Replication
			}
			r := s.Cluster.Replication
			dr := ReplicationSnap{
				Ships:         r.Ships - br.Ships,
				ShipBytes:     r.ShipBytes - br.ShipBytes,
				FullShips:     r.FullShips - br.FullShips,
				ShipFailures:  r.ShipFailures - br.ShipFailures,
				Probes:        r.Probes - br.Probes,
				ProbeFailures: r.ProbeFailures - br.ProbeFailures,
				Promotions:    r.Promotions - br.Promotions,
				DeltaReplayed: r.DeltaReplayed - br.DeltaReplayed,
				LostUpdates:   r.LostUpdates - br.LostUpdates,
			}
			d.Replication = &dr
		}
		if s.Cluster.Migration != nil {
			bm := MigrationSnap{}
			if b.Migration != nil {
				bm = *b.Migration
			}
			m := s.Cluster.Migration
			dm := MigrationSnap{
				SlotMoves:        m.SlotMoves - bm.SlotMoves,
				SlotMoveFailures: m.SlotMoveFailures - bm.SlotMoveFailures,
				KeysMoved:        m.KeysMoved - bm.KeysMoved,
				BytesMoved:       m.BytesMoved - bm.BytesMoved,
				DeltaReplayed:    m.DeltaReplayed - bm.DeltaReplayed,
				NodesAdded:       m.NodesAdded - bm.NodesAdded,
				NodesRemoved:     m.NodesRemoved - bm.NodesRemoved,
				// Point-in-time counts, not monotonic: carry the later view.
				SlotKeys: m.SlotKeys,
			}
			d.Migration = &dm
		}
		if s.Cluster.Fork != nil {
			bf := ForkSnap{}
			if b.Fork != nil {
				bf = *b.Fork
			}
			f := s.Cluster.Fork
			df := ForkSnap{
				Forks:         f.Forks - bf.Forks,
				Releases:      f.Releases - bf.Releases,
				Invalidated:   f.Invalidated - bf.Invalidated,
				FollowerReads: f.FollowerReads - bf.FollowerReads,
				StaleRejected: f.StaleRejected - bf.StaleRejected,
				ShipNs:        f.ShipNs.sub(bf.ShipNs),
			}
			d.Fork = &df
		}
		if s.Cluster.Overload != nil {
			bo := OverloadSnap{}
			if b.Overload != nil {
				bo = *b.Overload
			}
			o := s.Cluster.Overload
			do := OverloadSnap{
				DeadlineExpired:  o.DeadlineExpired - bo.DeadlineExpired,
				Shed:             o.Shed - bo.Shed,
				DegradedReads:    o.DegradedReads - bo.DegradedReads,
				BreakerOpens:     o.BreakerOpens - bo.BreakerOpens,
				BreakerHalfOpens: o.BreakerHalfOpens - bo.BreakerHalfOpens,
				BreakerCloses:    o.BreakerCloses - bo.BreakerCloses,
				BudgetRemaining:  o.BudgetRemaining.sub(bo.BudgetRemaining),
			}
			d.Overload = &do
		}
		d.Nodes = make([]NodeSnap, len(s.Cluster.Nodes))
		for i, n := range s.Cluster.Nodes {
			dn := n
			if i < len(b.Nodes) {
				dn.Local -= b.Nodes[i].Local
				dn.Remote -= b.Nodes[i].Remote
				dn.Timeouts -= b.Nodes[i].Timeouts
			}
			d.Nodes[i] = dn
		}
		out.Cluster = d
	}
	if len(s.Tenants) > 0 {
		out.Tenants = make([]TenantSnap, len(s.Tenants))
		for i, t := range s.Tenants {
			d := t
			if i < len(before.Tenants) {
				b := before.Tenants[i]
				d.Commands -= b.Commands
				d.Bytes -= b.Bytes
				d.QuotaRejections -= b.QuotaRejections
				d.CapDenials -= b.CapDenials
			}
			out.Tenants[i] = d
		}
	}
	out.LockWaitNs = s.LockWaitNs.sub(before.LockWaitNs)
	out.LockHoldCycles = s.LockHoldCycles.sub(before.LockHoldCycles)
	out.Shootdowns = s.Shootdowns - before.Shootdowns
	out.ShootdownPages = s.ShootdownPages - before.ShootdownPages
	out.URPCRetries = s.URPCRetries - before.URPCRetries
	out.FaultsInjected = s.FaultsInjected - before.FaultsInjected
	out.Switches = s.Switches - before.Switches
	out.TraceRecorded = s.TraceRecorded - before.TraceRecorded
	out.TraceDropped = s.TraceDropped - before.TraceDropped
	return &out
}

func refSubMap(a, b map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(a))
	for k, v := range a {
		if d := v - b[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// TestDeltaMatchesReference drives seeded sequences of every recording method
// — tables growing mid-sequence, queue high-water marks, slot key counts —
// takes snapshots along the way and checks the walk against refDelta for
// every pair (later, earlier) and for a nil earlier one: reflect.DeepEqual on
// the structs, so nil against empty is held too, and byte-equal JSON. The
// earlier snapshot of a pair has shorter tables and lacks the blocks that
// came alive later; hand-built ones lack whole subtrees.
func TestDeltaMatchesReference(t *testing.T) {
	check := func(name string, after, before *Snapshot) {
		t.Helper()
		got, want := after.Delta(before), refDelta(after, before)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Delta differs from refDelta:\ngot  %+v\nwant %+v", name, got, want)
		}
		gj, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Errorf("%s: Delta JSON differs from refDelta:\ngot  %s\nwant %s", name, gj, wj)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSink(1 + rng.Intn(3))
		snaps := []*Snapshot{s.Snapshot()}
		installed := false
		for step := 0; step < 12; step++ {
			switch rng.Intn(4) {
			case 0: // the whole script, once its tables exist
				if !installed {
					s.SetTracer(NewTracer(4))
					s.InstallClusterSlots(4)
					installed = true
				}
				recordAll(s, rng.Uint64()%1000)
			case 1: // tables grow under a live snapshot sequence
				cl := s.Cluster()
				cl.Local.Add(1)
				cl.LocalCycles.Observe(10)
				cl.Nodes.Row(rng.Intn(5)).Local.Add(1)
				cl.Overload.Shed.Add(1)
				cl.Nodes.Row(rng.Intn(5)).Timeouts.Add(1)
				s.Tenant(rng.Intn(4)).Commands.Add(1)
			case 2: // one block alone: optional blocks appear one at a time
				switch rng.Intn(5) {
				case 0:
					s.Server().Commands.Add(1)
					s.Server().LatencyNs.Observe(uint64(rng.Intn(1 << 20)))
				case 1:
					s.ClusterShip(0, uint64(rng.Intn(1<<16)), rng.Intn(8) == 0)
				case 2:
					s.Cluster().Fork.FollowerReads.Add(1)
				case 3:
					s.Cluster().Overload.DeadlineExpired.Add(1)
				case 4:
					s.ClusterNodeAdded(0)
				}
			case 3: // the substrate only
				cc := s.Core(0)
				cc.AddCycles(Cat(rng.Intn(NumCats)), uint64(rng.Intn(100)))
				cc.TLBMiss(arch.ASID(rng.Intn(70)))
				s.Syscall(Op(rng.Intn(NumOps)), uint64(rng.Intn(5000)))
				s.LockWait(uint64(rng.Intn(3)))
			}
			snap := s.Snapshot()
			// What hw and core fill in after the sink's own Snapshot.
			for i := range snap.Cores {
				snap.Cores[i].Cycles = uint64(step*100 + i)
				snap.Cores[i].TLBHits = uint64(step * 7)
				snap.Cores[i].CR3Loads = uint64(step)
			}
			snap.Switches = uint64(step * 3)
			snaps = append(snaps, snap)
		}
		for i, after := range snaps {
			check("nil before", after, nil)
			for j := 0; j <= i; j++ {
				check("snapshot pair", after, snaps[j])
			}
		}
		// A snapshot that came over the wire has nil where JSON omitted.
		last := snaps[len(snaps)-1]
		var wire Snapshot
		buf, _ := json.Marshal(last)
		if err := json.Unmarshal(buf, &wire); err != nil {
			t.Fatal(err)
		}
		check("decoded after", &wire, snaps[len(snaps)/2])
		check("decoded before", last, &wire)
		// Hand-built befores: fewer cores, absent blocks inside present ones.
		check("empty before", last, &Snapshot{})
		check("sparse before", last, &Snapshot{
			Cores:   []CoreSnap{{ByCat: map[string]uint64{"data": 1}}},
			Server:  &ServerSnap{Commands: 1},
			Cluster: &ClusterSnap{Local: 1, Nodes: []NodeSnap{{Local: 1}}},
			Tenants: []TenantSnap{{Commands: 1}},
		})
		check("empty after", &Snapshot{}, last)
	}
}
