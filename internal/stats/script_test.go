package stats

import "spacejmp/internal/arch"

// recordAll calls every recording method of the sink and its sub-blocks at
// least once, with arguments derived from k so that successive calls differ.
// It is the one list the coverage test, the golden file, the reference-model
// generator and BenchmarkSnapshotDelta share: a new recording method that is
// not added here leaves its Snapshot leaf zero and TestEveryLeafRecorded fails.
// The sink needs tables for node, tenant, slot and shard index 0..1.
func recordAll(s *Sink, shards []*ShardCounters, k uint64) {
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

	sh := shards[i]
	sh.Conn()
	sh.Command()
	sh.Busy()
	sh.QueueDepth(int(k%9) + 1)
	s.ConnAccepted(k, uint64(i))
	s.ConnClosed(k, 7)
	s.ServerCommand(2000 + k)
	s.ServerBusy()
	s.ServerPipeline(int(k%16) + 1)
	s.ServerQueue(int(k%4) + 1)

	s.ClusterLocal(i, 4000+k)
	s.ClusterRemote(1-i, 9000+k)
	s.ClusterURPCCall(5000 + k)
	s.ClusterTimeout(i)
	s.ClusterShip(i, 1<<16, i == 0)
	s.ClusterShipFailure()
	s.ClusterProbe(k%2 == 0)
	s.ClusterProbe(false)
	s.ClusterNodeState(i, "suspect")
	s.ClusterPromotion(i, 3, k%2)
	s.ClusterLostUpdates(1)
	s.ClusterSlotMoved(i, 0, 1, 10+k, 4096, 2)
	s.ClusterSlotMoveFailed(i, 0, 1, "target died")
	s.ClusterMovedRetry()
	s.ClusterNodeAdded(1)
	s.ClusterNodeRemoved(1)
	s.ClusterFork(i, k)
	s.ClusterForkRelease(i, k)
	s.ClusterForkInvalidate(i, 2, "promotion")
	s.ClusterFollowerRead()
	s.ClusterStaleRejected()
	s.ClusterShipDuration(30000 + k)
	s.ClusterDeadlineExpired()
	s.ClusterShed(1 - i)
	s.ClusterDegradedRead()
	s.ClusterBreaker(i, "closed", "open")
	s.ClusterBreaker(i, "open", "half-open")
	s.ClusterBreaker(i, "half-open", "closed")
	s.ClusterBudgetRemaining(700 + k)

	s.TenantCommand(i, 128+k)
	s.TenantQuotaRejected(i)
	s.TenantDenied(1 - i)
}

// scriptedSink is a sink with every table installed two wide and recordAll
// run rounds times — the populated shape the benchmark and the golden use.
func scriptedSink(cores, rounds int) *Sink {
	s := NewSink(cores)
	s.SetTracer(NewTracer(8))
	s.InstallClusterNodes(2)
	s.InstallClusterSlots(4)
	s.InstallTenants(2)
	shards := s.InstallServerShards(2)
	for k := 0; k < rounds; k++ {
		recordAll(s, shards, uint64(k))
	}
	return s
}
