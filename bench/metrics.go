package main

import (
	"slices"
	"time"

	"spacejmp/internal/stats"
)

// metricDef names one reported number. clock says which of the system's two
// clocks it is read on: "sim" (simulated cycles and event counts, the
// paper's currency) or "host" (what the Go process costs).
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	clock  string
}

// endToEnd is what a user of the system sees; BENCHMARK.json gates these.
var endToEnd = []metricDef{
	{"cmds_per_s", "1/s", true, 0.20, "host"},
	{"p50_us", "us", false, 0.20, "host"},
	{"cpu_us_per_cmd", "us", false, 0.20, "host"},
	{"sim_cycles_per_cmd", "cycles", false, 0.03, "sim"},
	{"allocs_per_cmd", "count", false, 0.05, "host"},
	{"heap_mb", "MB", false, 0.10, "host"},
	{"setup_s", "s", false, 0.25, "host"},
}

// perLayer is the layer ladder: one group per module, measured from outside.
// README.md says which come off the loaded run's counters, which off the
// serial traced replays and which off the micro-rungs.
var perLayer = []metricDef{
	{"tlb.lookup_hit_ns", "ns", false, 0, "host"},
	{"tlb.lookup_miss_ns", "ns", false, 0, "host"},
	{"tlb.miss_ratio", "ratio", false, 0, "sim"},
	{"tlb.flushes_per_cmd", "count", false, 0, "sim"},
	{"pt.walk_ns", "ns", false, 0, "host"},
	{"pt.map_page_ns", "ns", false, 0, "host"},
	{"pt.walks_per_cmd", "count", false, 0, "sim"},
	{"hw.load64_hit_ns", "ns", false, 0, "host"},
	{"hw.load64_miss_ns", "ns", false, 0, "host"},
	{"hw.accesses_per_cmd", "count", false, 0, "sim"},
	{"hw.host_ns_per_access", "ns", false, 0, "host"},
	{"hw.cr3_loads_per_cmd", "count", false, 0, "sim"},
	{"hw.sim_cycles_switch_share", "ratio", false, 0, "sim"},
	{"hw.sim_cycles_walk_share", "ratio", false, 0, "sim"},
	{"hw.sim_cycles_data_share", "ratio", false, 0, "sim"},
	{"vm.fault_ns", "ns", false, 0, "host"},
	{"vm.breakcow_ns", "ns", false, 0, "host"},
	{"vm.faults_per_cmd", "count", false, 0, "sim"},
	{"core.switch_ns", "ns", false, 0, "host"},
	{"core.switch_sim_cycles", "cycles", false, 0, "sim"},
	{"core.switches_per_cmd", "count", false, 0, "sim"},
	{"core.lock_wait_ns_per_cmd", "ns", false, 0, "host"},
	{"mspace.alloc_free_ns", "ns", false, 0, "host"},
	{"redis.parse_ns_per_cmd", "ns", false, 0, "host"},
	{"redis.parse_allocs_per_cmd", "count", false, 0, "host"},
	{"redis.store_ns_per_cmd", "ns", false, 0, "host"},
	{"redis.store_sim_cycles_per_cmd", "cycles", false, 0, "sim"},
	{"redis.store_allocs_per_cmd", "count", false, 0, "host"},
	{"urpc.call_ns", "ns", false, 0, "host"},
	{"urpc.call_sim_cycles", "cycles", false, 0, "sim"},
	{"urpc.call_allocs", "count", false, 0, "host"},
	{"urpc.callbulk_ns_per_kib", "ns", false, 0, "host"},
	{"urpc.retries_per_kcmd", "count", false, 0, "sim"},
	{"fork.fork_ns", "ns", false, 0, "host"},
	{"fork.release_ns", "ns", false, 0, "host"},
	{"fork.forks_per_kcmd", "count", false, 0, "sim"},
	{"cluster.submit_ns_per_cmd", "ns", false, 0, "host"},
	{"cluster.submit_allocs_per_cmd", "count", false, 0, "host"},
	{"cluster.self_ns_per_cmd", "ns", false, 0, "host"},
	{"cluster.remote_share", "ratio", false, 0, "sim"},
	{"cluster.follower_read_share", "ratio", true, 0, "sim"},
	{"cluster.ship_bytes_per_cmd", "B", false, 0, "sim"},
	{"cluster.busy_share", "ratio", false, 0, "host"},
	{"server.rtt_ns_per_cmd", "ns", false, 0, "host"},
	{"server.pipelined_ns_per_cmd", "ns", false, 0, "host"},
	{"server.self_ns_per_cmd", "ns", false, 0, "host"},
	{"server.allocs_per_cmd", "count", false, 0, "host"},
	{"server.queue_max", "count", false, 0, "host"},
	{"tenant.overhead_ns_per_cmd", "ns", false, 0, "host"},
	{"tenant.overhead_ci_ns", "ns", false, 0, "host"},
	{"overload.deadline_overhead_ns_per_cmd", "ns", false, 0, "host"},
	{"overload.deadline_overhead_ci_ns", "ns", false, 0, "host"},
	{"stats.snapshot_ns", "ns", false, 0, "host"},
	{"stats.overhead_ratio", "ratio", false, 0, "host"},
	{"stats.overhead_ratio_ci", "ratio", false, 0, "host"},
	{"client.host_speed", "ratio", true, 0, "host"},
	{"client.raw_cmds_per_s", "1/s", true, 0, "host"},
	{"client.raw_p50_us", "us", false, 0, "host"},
	{"client.raw_cpu_us_per_cmd", "us", false, 0, "host"},
	{"client.p99_us", "us", false, 0, "host"},
	{"client.p999_us", "us", false, 0, "host"},
	{"client.get_p50_us", "us", false, 0, "host"},
	{"client.set_p50_us", "us", false, 0, "host"},
	{"client.mget_p50_us", "us", false, 0, "host"},
	{"client.slice_spread", "ratio", false, 0, "host"},
	{"client.span_overhead_ns", "ns", false, 0, "host"},
	{"client.failed_share", "ratio", false, 0, "host"},
	{"runtime.alloc_bytes_per_cmd", "B", false, 0, "host"},
	{"runtime.gc_cpu_share", "ratio", false, 0, "host"},
	{"runtime.gc_cycles_per_s", "1/s", false, 0, "host"},
	{"repo.nontest_go_loc", "lines", false, 0, "host"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sumCats adds up the named cycle categories of a snapshot.
func sumCats(snap *stats.Snapshot, cats ...stats.Cat) uint64 {
	var sum uint64
	for _, c := range cats {
		sum += snap.Cycles[c.String()]
	}
	return sum
}

func clusterOf(snap *stats.Snapshot) stats.ClusterSnap {
	if snap.Cluster == nil {
		return stats.ClusterSnap{}
	}
	return *snap.Cluster
}

func serverOf(snap *stats.Snapshot) stats.ServerSnap {
	if snap.Server == nil {
		return stats.ServerSnap{}
	}
	return *snap.Server
}

func shipBytes(c stats.ClusterSnap) uint64 {
	if c.Replication == nil {
		return 0
	}
	return c.Replication.ShipBytes
}

func followerReads(c stats.ClusterSnap) uint64 {
	if c.Fork == nil {
		return 0
	}
	return c.Fork.FollowerReads
}

func cr3Loads(snap *stats.Snapshot) uint64 {
	var sum uint64
	for _, c := range snap.Cores {
		sum += c.CR3Loads
	}
	return sum
}

// metrics turns one slice into named numbers: every end-to-end metric and
// the per-layer ones that are read off the loaded run's counter deltas.
func (r *sliceResult) metrics() map[string]float64 {
	a, b := r.a, r.b
	cmds := r.cmds()
	// The host-clock end-to-end metrics are taken window by window at the
	// reference host speed (see hostspeed.go); the median over windows then
	// also votes away a window that a fork or a GC cycle landed in.
	var secs float64
	var cpu time.Duration
	nw := len(r.windows)
	rate, p50, cpuPer, speed := make([]float64, nw), make([]float64, nw), make([]float64, nw), make([]float64, nw)
	for i, w := range r.windows {
		secs += w.elapsed.Seconds()
		cpu += w.cpu
		rate[i] = ratio(w.cmds, w.elapsed.Seconds()) / w.speed
		p50[i] = w.p50 / 1e3 * w.speed
		cpuPer[i] = ratio(float64(w.cpu.Nanoseconds())/1e3, w.cmds) * w.speed
		speed[i] = w.speed
	}
	all := r.tally.kindLatencies(0, true)
	us := func(sorted []uint32, p float64) float64 {
		v, _, _ := percentile(sorted, p)
		return v / 1e3
	}
	m := map[string]float64{
		"cmds_per_s":         median(rate),
		"p50_us":             median(p50),
		"cpu_us_per_cmd":     median(cpuPer),
		"sim_cycles_per_cmd": r.simPerCmd,
		"allocs_per_cmd":     ratio(float64(b.mem.Mallocs-a.mem.Mallocs), cmds),
		"heap_mb":            float64(r.heapLive-hostReference().heap) / 1e6,
		"setup_s":            r.setup.Seconds() * r.setupSpeed,

		"client.host_speed":         median(speed),
		"client.raw_cmds_per_s":     ratio(cmds, secs),
		"client.raw_p50_us":         us(all, 0.5),
		"client.raw_cpu_us_per_cmd": ratio(float64(cpu.Nanoseconds())/1e3, cmds),
		"client.p99_us":             us(all, 0.99),
		"client.p999_us":            us(all, 0.999),
		"client.get_p50_us":         us(r.tally.kindLatencies(opGet, false), 0.5),
		"client.set_p50_us":         us(r.tally.kindLatencies(opSet, false), 0.5),
		"client.mget_p50_us":        us(r.tally.kindLatencies(opMGet, false), 0.5),
		"client.failed_share":       ratio(float64(r.tally.failed()), float64(r.tally.attempted)),

		"runtime.alloc_bytes_per_cmd": ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), cmds),
		"runtime.gc_cpu_share":        ratio(b.gcCPU-a.gcCPU, cpu.Seconds()),
		"runtime.gc_cycles_per_s":     ratio(float64(b.mem.NumGC-a.mem.NumGC), secs),
	}

	sa, sb := a.snap, b.snap
	accesses := float64(sb.TLB.Hits + sb.TLB.Misses - sa.TLB.Hits - sa.TLB.Misses)
	cycles := float64(b.cycles - a.cycles)
	cat := func(cats ...stats.Cat) float64 {
		return ratio(float64(sumCats(sb, cats...)-sumCats(sa, cats...)), cycles)
	}
	ca, cb := clusterOf(sa), clusterOf(sb)
	va, vb := serverOf(sa), serverOf(sb)
	var queueMax uint64
	for _, sh := range vb.Shards {
		queueMax = max(queueMax, sh.QueueMax)
	}
	routed := float64(cb.Local + cb.Remote - ca.Local - ca.Remote)
	for k, v := range map[string]float64{
		"tlb.miss_ratio":             ratio(float64(sb.TLB.Misses-sa.TLB.Misses), accesses),
		"tlb.flushes_per_cmd":        ratio(float64(sb.TLB.Flushes-sa.TLB.Flushes), cmds),
		"pt.walks_per_cmd":           ratio(float64(sb.PT.Walks-sa.PT.Walks), cmds),
		"hw.accesses_per_cmd":        ratio(accesses, cmds),
		"hw.host_ns_per_access":      ratio(float64(cpu.Nanoseconds()), accesses),
		"hw.cr3_loads_per_cmd":       ratio(float64(cr3Loads(sb)-cr3Loads(sa)), cmds),
		"hw.sim_cycles_switch_share": cat(stats.CatSwitch, stats.CatFlush, stats.CatSyscall),
		"hw.sim_cycles_walk_share":   cat(stats.CatWalk, stats.CatTLBProbe),
		"hw.sim_cycles_data_share":   cat(stats.CatData, stats.CatNVMWrite),
		"vm.faults_per_cmd":          ratio(float64(sb.VM.Faults-sa.VM.Faults), cmds),
		"core.switches_per_cmd":      ratio(float64(sb.Switches-sa.Switches), cmds),
		"core.lock_wait_ns_per_cmd":  ratio(float64(sb.LockWaitNs.Sum-sa.LockWaitNs.Sum), cmds),
		"urpc.retries_per_kcmd":      1e3 * ratio(float64(sb.URPCRetries-sa.URPCRetries), cmds),
		"fork.forks_per_kcmd":        1e3 * ratio(float64(forks(sb)-forks(sa)), cmds),
		"cluster.remote_share":       ratio(float64(cb.Remote-ca.Remote), routed),
		"cluster.follower_read_share": ratio(float64(followerReads(cb)-followerReads(ca)),
			float64(r.tally.attempted)),
		"cluster.ship_bytes_per_cmd": ratio(float64(shipBytes(cb)-shipBytes(ca)), cmds),
		"cluster.busy_share":         ratio(float64(vb.Busy-va.Busy), float64(r.tally.attempted)),
		"server.queue_max":           float64(queueMax),
	} {
		m[k] = v
	}
	return m
}

// runResult is one workload's timed run: the slices and their medians.
type runResult struct {
	slices  []map[string]float64
	medians map[string]float64

	attempted, refused, mismatched uint64
}

// aggregate takes the median over slices of every metric. The exceptions
// are stated where they are made.
func (rr *runResult) aggregate() {
	rr.medians = map[string]float64{}
	for name := range rr.slices[0] {
		vs := make([]float64, len(rr.slices))
		for i, s := range rr.slices {
			vs[i] = s[name]
		}
		rr.medians[name] = median(vs)
		switch name {
		case "server.queue_max", "client.failed_share":
			// A queue high-water mark and a failure are not noise to be
			// voted away by the other slices.
			rr.medians[name] = slices.Max(vs)
		case "cmds_per_s":
			rr.medians["client.slice_spread"] = spread(vs)
		}
	}
}
