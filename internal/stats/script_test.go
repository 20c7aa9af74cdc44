package stats

import "spacejmp/internal/arch"

// recordAll calls every recording method the sink and its substrate blocks
// still have at least once, with arguments derived from k so that successive
// calls differ, and then — the serving layers count into their blocks field by
// field, at their own sites — writes every serving leaf the way those sites do
// (countServing). It is the one script the coverage test, the golden file, the
// reference-model generator and BenchmarkSnapshotDelta share: a new recording
// method that is not added here leaves its Snapshot leaf zero and
// TestEveryLeafRecorded fails; a serving leaf no source writes is
// TestEveryServingLeafWritten's to name.
func recordAll(s *Sink, k uint64) {
	i := int(k % 2)
	cc := s.Core(i) // nil, and still safe, on a one-core or a nil sink
	cc.AddCycles(Cat(k%uint64(NumCats)), 3+k)
	cc.AddCycles(CatData, 4)
	cc.TLBHits(arch.ASID(k%5), 1)
	cc.TLBMiss(arch.ASID(k % 3))
	cc.TLBEvict(arch.ASID(1 + k%2))

	pt := s.PTObs()
	pt.TableAllocated()
	pt.TableFreed()
	pt.EntrySet()
	pt.EntryCleared()
	pt.Walk(4)

	s.TLBFlush(int(k%7) + 1)
	s.Shootdown(2+k, 5)
	s.NVMWrite(1, 64)
	s.VMMap()
	s.VMUnmap()
	s.VMFault()
	s.VMCOWBreak()
	s.LockWait(100 * k)
	s.LockHold(1000 + k)
	s.Syscall(Op(k%uint64(NumOps)), 50+k)
	s.Syscall(OpVASSwitch, 900)
	s.URPCRetry(i, k, 1)
	s.FaultFired("script.point")
	s.VASSwitch(i, 1, k)
	s.SegAttach(i, 1, 2, 3)

	s.ConnAccepted(k, uint64(i))
	s.ConnClosed(k, 7)
	if s != nil {
		countServing(s, i, k)
	}
	s.ClusterRemote(1-i, 9000+k)
	s.ClusterShip(i, 1<<16, i == 0)
	s.ClusterNodeState(i, "suspect")
	s.ClusterPromotion(i, 3, k%2)
	s.ClusterSlotMoved(i, 0, 1, 10+k, 4096, 2)
	s.ClusterSlotMoveFailed(i, 0, 1, "target died")
	s.ClusterNodeAdded(1)
	s.ClusterNodeRemoved(1)
	s.ClusterFork(i, k)
	s.ClusterForkRelease(i, k)
	s.ClusterForkInvalidate(i, 2, "promotion")
	s.ClusterBreaker(i, "closed", "open")
	s.ClusterBreaker(i, "open", "half-open")
	s.ClusterBreaker(i, "half-open", "closed")
}

// countServing is one round of what internal/server, internal/cluster and
// internal/tenant count without a recording method, on rows i and 1-i.
func countServing(s *Sink, i int, k uint64) {
	srv, cl := s.Server(), s.Cluster()
	sh := srv.Shards.Row(i)
	sh.Conns.Add(1)
	sh.Commands.Add(1)
	sh.Busy.Add(1)
	StoreMax(&sh.QueueMax, k%9+1)
	srv.Commands.Add(1)
	srv.LatencyNs.Observe(2000 + k)
	srv.Busy.Add(1)
	srv.Pipeline.Observe(k%16 + 1)
	srv.QueueDepth.Observe(k%4 + 1)

	node, other := cl.Nodes.Row(i), cl.Nodes.Row(1-i)
	cl.Local.Add(1)
	cl.LocalCycles.Observe(4000 + k)
	node.Local.Add(1)
	cl.URPCCallCycles.Observe(5000 + k)
	cl.Timeouts.Add(1)
	node.Timeouts.Add(1)
	cl.Replication.ShipFailures.Add(1)
	cl.Replication.Probes.Add(2)
	cl.Replication.ProbeFailures.Add(1 + k%2)
	cl.Replication.LostUpdates.Add(1)
	cl.Migration.MovedRetries.Add(1)
	cl.Fork.FollowerReads.Add(1)
	cl.Fork.StaleRejected.Add(1)
	cl.Fork.ShipNs.Observe(30000 + k)
	cl.Overload.DeadlineExpired.Add(1)
	cl.Overload.Shed.Add(1)
	other.Timeouts.Add(1)
	cl.Overload.DegradedReads.Add(1)
	cl.Overload.BreakerOpens.Add(1)
	cl.Overload.BreakerHalfOpens.Add(1)
	cl.Overload.BreakerCloses.Add(1)
	cl.Overload.BudgetRemaining.Observe(700 + k)

	tn := s.Tenant(i)
	tn.Commands.Add(1)
	tn.Bytes.Add(128 + k)
	tn.QuotaRejections.Add(1)
	s.Tenant(1 - i).CapDenials.Add(1)
}

// scriptedSink is a sink with every table two wide and recordAll run rounds
// times — the populated shape the benchmark and the golden use.
func scriptedSink(cores, rounds int) *Sink {
	s := NewSink(cores)
	s.SetTracer(NewTracer(8))
	s.Cluster().Nodes.Row(1)
	s.InstallClusterSlots(4)
	s.Tenant(1)
	s.Server().Shards.Row(1)
	for k := 0; k < rounds; k++ {
		recordAll(s, uint64(k))
	}
	return s
}
