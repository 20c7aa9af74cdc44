package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// startCluster boots a small machine, a kernel, a cluster router, and the
// RESP front-end over it. The caller owns srv.Shutdown (which closes the
// router).
func startCluster(t *testing.T, cfg Config, reg *fault.Registry) (*hw.Machine, *Router, *server.Server) {
	t.Helper()
	return startClusterSrvCfg(t, cfg, reg, server.Config{})
}

// startClusterSrvCfg is startCluster with an explicit front-end config —
// the overload tests stamp per-command deadline defaults there.
func startClusterSrvCfg(t *testing.T, cfg Config, reg *fault.Registry, srvCfg server.Config) (*hw.Machine, *Router, *server.Server) {
	t.Helper()
	return startClusterOn(t, hw.SmallTest(), cfg, reg, srvCfg)
}

// startClusterOn is startClusterSrvCfg on a machine of the caller's
// choosing — for tests that need more than the small machine's four cores.
func startClusterOn(t *testing.T, hwCfg hw.MachineConfig, cfg Config, reg *fault.Registry, srvCfg server.Config) (*hw.Machine, *Router, *server.Server) {
	t.Helper()
	if cfg.Replication.Enabled {
		// Checkpoint shipping needs somewhere durable to put generations;
		// the small test machine has NVM but no superblock by default.
		hwCfg.Mem.NVMSuperblock = 1 << 20
	}
	m := hw.NewMachine(hwCfg)
	if reg != nil {
		m.SetFaults(reg)
	}
	sys := kernel.New(m)
	sys.EnableStats(4096)
	r, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	srv := server.NewWithBackend(sys, ln, srvCfg, r)
	return m, r, srv
}

// keyOnNode finds a key whose slot is currently owned by the wanted node.
func keyOnNode(t *testing.T, r *Router, node int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if r.Owner(r.Slot(k)) == node {
			return k
		}
	}
	t.Fatalf("no key found for node %d", node)
	return ""
}

func roundTrip(t *testing.T, nc net.Conn, br *bufio.Reader, args ...string) ([]byte, bool, error) {
	t.Helper()
	if _, err := nc.Write(redis.EncodeCommand(args...)); err != nil {
		t.Fatalf("write %v: %v", args, err)
	}
	return redis.ReadReply(br)
}

// TestClusterRoutesBothModes drives every node of an auto-split cluster
// through single-key commands and checks both serving paths ran and were
// attributed.
func TestClusterRoutesBothModes(t *testing.T) {
	// 2 workers + 1 remote node = 3 cores on the 4-core test machine.
	m, r, srv := startCluster(t, Config{Nodes: 3, Workers: 2, Mode: ModeAuto, Locals: 2}, nil)
	defer srv.Shutdown()
	obs := m.Observer()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	for node := 0; node < 3; node++ {
		key := keyOnNode(t, r, node)
		val := fmt.Sprintf("v\r\n%d\x00", node)
		if v, _, err := roundTrip(t, nc, br, "SET", key, val); err != nil || string(v) != "OK" {
			t.Fatalf("SET on node %d: %q %v", node, v, err)
		}
		if v, isNil, err := roundTrip(t, nc, br, "GET", key); err != nil || isNil || string(v) != val {
			t.Fatalf("GET on node %d: %q %v %v", node, v, isNil, err)
		}
		if v, _, err := roundTrip(t, nc, br, "DEL", key); err != nil || string(v) != "1" {
			t.Fatalf("DEL on node %d: %q %v", node, v, err)
		}
	}
	if obs.Snapshot().Dense().Cluster.Local == 0 {
		t.Error("no commands took the shared-VAS path")
	}
	if obs.Snapshot().Dense().Cluster.Remote == 0 {
		t.Error("no commands took the urpc path")
	}
	// Nodes 0 and 1 are local, node 2 remote — the per-node counters in
	// the snapshot must agree with the placement.
	snap := obs.Snapshot()
	if snap.Cluster == nil || len(snap.Cluster.Nodes) != 3 {
		t.Fatalf("cluster snapshot: %+v", snap.Cluster)
	}
	for i, n := range snap.Cluster.Nodes {
		local := i < 2
		if local && (n.Local == 0 || n.Remote != 0) {
			t.Errorf("node %d (local): local=%d remote=%d", i, n.Local, n.Remote)
		}
		if !local && (n.Remote == 0 || n.Local != 0) {
			t.Errorf("node %d (remote): local=%d remote=%d", i, n.Local, n.Remote)
		}
	}
}

// TestClusterMGetSpansLocalAndRemote issues one MGET whose keys hash onto a
// co-resident node and a remote node, and verifies the merged reply keeps
// key order with per-key values and nils.
func TestClusterMGetSpansLocalAndRemote(t *testing.T) {
	m, r, srv := startCluster(t, Config{Nodes: 3, Workers: 2, Mode: ModeAuto, Locals: 2}, nil)
	defer srv.Shutdown()
	obs := m.Observer()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	kLocal := keyOnNode(t, r, 0)   // shared-VAS path
	kRemote := keyOnNode(t, r, 2)  // urpc path
	kMissing := keyOnNode(t, r, 1) // never set: must come back nil

	for _, kv := range [][2]string{{kLocal, "local\r\nval"}, {kRemote, "remote\x00val"}} {
		if v, _, err := roundTrip(t, nc, br, "SET", kv[0], kv[1]); err != nil || string(v) != "OK" {
			t.Fatalf("SET %q: %q %v", kv[0], v, err)
		}
	}
	localBefore, remoteBefore := obs.Snapshot().Dense().Cluster.Local, obs.Snapshot().Dense().Cluster.Remote

	if _, err := nc.Write(redis.EncodeCommand("MGET", kRemote, kMissing, kLocal)); err != nil {
		t.Fatal(err)
	}
	vals, nils, err := redis.ReadArrayReply(br)
	if err != nil {
		t.Fatalf("MGET reply: %v", err)
	}
	if len(vals) != 3 {
		t.Fatalf("MGET returned %d values, want 3", len(vals))
	}
	if nils[0] || string(vals[0]) != "remote\x00val" {
		t.Errorf("vals[0] = %q (nil=%v), want remote value", vals[0], nils[0])
	}
	if !nils[1] {
		t.Errorf("vals[1] = %q, want nil for missing key", vals[1])
	}
	if nils[2] || string(vals[2]) != "local\r\nval" {
		t.Errorf("vals[2] = %q (nil=%v), want local value", vals[2], nils[2])
	}

	// The one command crossed both paths.
	if obs.Snapshot().Dense().Cluster.Local == localBefore {
		t.Error("MGET did not touch the shared-VAS path")
	}
	if obs.Snapshot().Dense().Cluster.Remote == remoteBefore {
		t.Error("MGET did not touch the urpc path")
	}
}

// TestClusterVASBeatsURPC holds the cluster to Figure 7's ordering: a
// command served by switching into a co-resident shard's VAS costs fewer
// worker cycles than the same command served over message passing, because
// the urpc path pays cache-line transfers and dispatch on top of mirroring
// all the server-side work into the caller's busy-wait.
func TestClusterVASBeatsURPC(t *testing.T) {
	m, _, srv := startCluster(t, Config{Nodes: 3, Workers: 2, Mode: ModeAuto, Locals: 2}, nil)
	defer srv.Shutdown()

	res, err := server.RunLoad(server.LoadConfig{
		Addr:        srv.Addr().String(),
		Conns:       8,
		Pipeline:    4,
		Requests:    128,
		SetPercent:  20,
		MGetPercent: 30,
		MGetKeys:    4,
		Keys:        256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatches != 0 || res.Errors != 0 {
		t.Fatalf("load: %d mismatches, %d errors", res.Mismatches, res.Errors)
	}
	if res.MGets == 0 {
		t.Fatal("load issued no MGETs")
	}

	snap := m.Observer().Snapshot()
	if snap.Cluster == nil {
		t.Fatal("no cluster stats")
	}
	local, remote := snap.Cluster.LocalCycles, snap.Cluster.RemoteCycles
	if local.Count == 0 || remote.Count == 0 {
		t.Fatalf("cycle samples: local %d, remote %d", local.Count, remote.Count)
	}
	if local.Mean() >= remote.Mean() {
		t.Errorf("Figure 7 ordering violated: VAS mean %.0f cycles ≥ urpc mean %.0f cycles",
			local.Mean(), remote.Mean())
	}
	if snap.Cluster.URPCCallCycles.Count == 0 {
		t.Error("urpc call latency histogram empty")
	}
}

// TestClusterLossyRemote runs real load while the interconnect drops and
// delays urpc messages. The at-most-once protocol must hide the loss:
// every reply correct, retries observed, no timeouts at this loss rate.
func TestClusterLossyRemote(t *testing.T) {
	reg := fault.New(7)
	m, _, srv := startCluster(t, Config{Nodes: 3, Workers: 2, Mode: ModeAuto, Locals: 2}, reg)
	defer srv.Shutdown()
	reg.Enable(fault.URPCDrop, fault.Probability(0.15))
	reg.Enable(fault.URPCDelay, fault.Probability(0.10))

	res, err := server.RunLoad(server.LoadConfig{
		Addr:        srv.Addr().String(),
		Conns:       4,
		Pipeline:    4,
		Requests:    96,
		SetPercent:  25,
		MGetPercent: 25,
		MGetKeys:    3,
		Keys:        128,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.Reset()
	if res.Mismatches != 0 {
		t.Errorf("%d mismatched replies under loss", res.Mismatches)
	}
	if res.Errors != 0 {
		t.Errorf("%d error replies under loss", res.Errors)
	}
	snap := m.Observer().Snapshot()
	if snap.URPCRetries == 0 {
		t.Error("no urpc retries recorded despite 15%% drop rate")
	}
	if snap.FaultsInjected == 0 {
		t.Error("no injected faults recorded")
	}
}

// TestClusterRemoteTimeout partitions the remote node entirely and checks
// that its keys answer with a retryable timeout error while co-resident
// keys keep being served, with the timeouts attributed to the right node.
func TestClusterRemoteTimeout(t *testing.T) {
	reg := fault.New(1)
	m, r, srv := startCluster(t, Config{Nodes: 3, Workers: 1, Mode: ModeAuto, Locals: 2}, reg)
	defer srv.Shutdown()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	kLocal, kRemote := keyOnNode(t, r, 0), keyOnNode(t, r, 2)
	reg.Enable(fault.URPCDrop, fault.Always())

	var re redis.ReplyError
	_, _, err = roundTrip(t, nc, br, "SET", kRemote, "x")
	if !errors.As(err, &re) || !errors.Is(re, redis.ErrShardTimeout) {
		t.Fatalf("partitioned SET: want SHARDTIMEOUT error reply, got %v", err)
	}
	if !redis.IsRetryableReply(re) {
		t.Fatalf("shard timeout %q not classified retryable", re)
	}
	if v, _, err := roundTrip(t, nc, br, "SET", kLocal, "y"); err != nil || string(v) != "OK" {
		t.Fatalf("local SET during partition: %q %v", v, err)
	}
	// An MGET touching the dead node fails whole; one avoiding it works.
	_, _, err = roundTrip(t, nc, br, "MGET", kLocal, kRemote)
	if !errors.As(err, &re) || !errors.Is(re, redis.ErrShardTimeout) {
		t.Fatalf("MGET across partition: want SHARDTIMEOUT error reply, got %v", err)
	}
	reg.Reset()

	if v, isNil, err := roundTrip(t, nc, br, "GET", kRemote); err != nil || !isNil {
		t.Fatalf("GET after heal: %q %v %v (SET must not have been applied)", v, isNil, err)
	}

	snap := m.Observer().Snapshot()
	if snap.Cluster == nil || snap.Cluster.Timeouts == 0 {
		t.Fatal("no cluster timeouts recorded")
	}
	if snap.Cluster.Nodes[2].Timeouts == 0 {
		t.Error("timeouts not attributed to the partitioned node")
	}
}

// TestClusterDrainReleasesEverything holds the cluster to the serving
// layer's drain contract: after Shutdown no goroutines survive, no urpc
// frames sit in any ring, and the kernel reaper has reclaimed every
// simulated frame the cluster allocated — worker processes, node
// processes, every shard store, every scratch heap.
func TestClusterDrainReleasesEverything(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	sys := kernel.New(m)
	sys.EnableStats(1024)
	base := m.PM.AllocatedBytes()
	before := runtime.NumGoroutine()

	r, err := New(sys, Config{Nodes: 3, Workers: 2, Mode: ModeAuto, Locals: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithBackend(sys, ln, server.Config{}, r)

	// Real traffic on both paths, then an open connection mid-stream so
	// Shutdown has to unblock a parked reader.
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	for node := 0; node < 3; node++ {
		key := keyOnNode(t, r, node)
		v, _, err := roundTrip(t, nc, br, "SET", key, "drain\r\nme")
		if err != nil || !bytes.Equal(v, []byte("OK")) {
			t.Fatalf("SET node %d: %q %v", node, v, err)
		}
	}

	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if n := r.PendingFrames(); n != 0 {
		t.Errorf("%d urpc frames still queued after drain", n)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Errorf("frame leak after drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked: %d before, %d after\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
	if err := srv.Shutdown(); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestClusterSmoke is the CI smoke scenario: a 3-shard cluster under the
// stock load generator, asserting end-to-end health and a nonzero remote
// command count (the wire actually carried traffic).
func TestClusterSmoke(t *testing.T) {
	m, _, srv := startCluster(t, Config{Nodes: 3, Workers: 2, Mode: ModeAuto, Locals: 2}, nil)
	defer srv.Shutdown()

	res, err := server.RunLoad(server.LoadConfig{
		Addr:        srv.Addr().String(),
		Conns:       8,
		Pipeline:    8,
		Requests:    64,
		MGetPercent: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(8 * 64)
	if res.Commands != want {
		t.Errorf("completed %d commands, want %d", res.Commands, want)
	}
	if res.Mismatches != 0 {
		t.Errorf("%d mismatches", res.Mismatches)
	}
	obs := m.Observer()
	if obs.Snapshot().Dense().Cluster.Remote == 0 {
		t.Error("no remote commands served")
	}
	if obs.Snapshot().Dense().Cluster.Local == 0 {
		t.Error("no local commands served")
	}
}

// replicatedConfig is the smallest replicated cluster the 4-core test
// machine can host: 2 workers + 1 remote node + the health monitor claim
// every core, and the aggressive timers keep failover inside test budgets.
func replicatedConfig() Config {
	return Config{
		Nodes: 3, Workers: 2, Mode: ModeAuto, Locals: 2,
		SegSize: 1 << 20,
		Replication: ReplicationConfig{
			Enabled:        true,
			ShipEvery:      8,
			ShipInterval:   25 * time.Millisecond,
			ProbeInterval:  2 * time.Millisecond,
			ProbeThreshold: 3,
			DeltaLog:       256,
		},
	}
}

// waitFor polls cond until it holds or the deadline trips.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterFailoverUnderLoad is the headline failover scenario: a
// replicated cluster takes pipelined SET/GET/MGET load, the remote shard
// node is crashed mid-run by the cluster.node.crash fault point, and the
// health monitor promotes its warm standby. The load must finish with zero
// verification failures and zero hard errors (commands caught mid-failover
// come back as retryable timeouts, counted busy), and a key checkpointed
// before the crash must still read back correctly from the standby.
func TestClusterFailoverUnderLoad(t *testing.T) {
	reg := fault.New(11)
	cfg := replicatedConfig()
	m, r, srv := startCluster(t, cfg, reg)
	defer srv.Shutdown()
	obs := m.Observer()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	// Seed a durable key on the remote node and write past ShipEvery so a
	// checkpoint generation carrying it lands on the standby.
	kRemote := keyOnNode(t, r, 2)
	shipsBefore := obs.Snapshot().Dense().Cluster.Replication.Ships
	for i := 0; i <= cfg.Replication.ShipEvery; i++ {
		if v, _, err := roundTrip(t, nc, br, "SET", kRemote, "survive\r\nme"); err != nil || string(v) != "OK" {
			t.Fatalf("seed SET: %q %v", v, err)
		}
	}
	waitFor(t, "checkpoint ship", func() bool { return obs.Snapshot().Dense().Cluster.Replication.Ships > shipsBefore })

	// Run the load, then crash the primary a beat in so the generator is
	// mid-pipeline when the range fails over.
	type loadOut struct {
		res *server.LoadResult
		err error
	}
	done := make(chan loadOut, 1)
	go func() {
		res, err := server.RunLoad(server.LoadConfig{
			Addr:        srv.Addr().String(),
			Conns:       4,
			Pipeline:    4,
			Requests:    160,
			SetPercent:  25,
			MGetPercent: 20,
			MGetKeys:    3,
			Keys:        128,
			Seed:        11,
		})
		done <- loadOut{res, err}
	}()
	time.Sleep(20 * time.Millisecond)
	reg.Enable(fault.ClusterNodeCrash, fault.OnNth(1))
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Mismatches != 0 || out.res.Errors != 0 {
		t.Fatalf("load across failover: %d mismatches, %d hard errors (busy %d)",
			out.res.Mismatches, out.res.Errors, out.res.Busy)
	}

	waitFor(t, "standby promotion", func() bool { return obs.Snapshot().Dense().Cluster.Replication.Promotions == 1 })
	if v, isNil, err := roundTrip(t, nc, br, "GET", kRemote); err != nil || isNil || string(v) != "survive\r\nme" {
		t.Fatalf("checkpointed key after failover: %q nil=%v err=%v", v, isNil, err)
	}

	health := r.Health()
	if len(health) != 3 {
		t.Fatalf("health reports %d nodes", len(health))
	}
	h := health[2]
	if !h.Promoted || h.Degraded || h.State != "healthy" {
		t.Fatalf("failed-over node health: %+v", h)
	}
	snap := obs.Snapshot()
	rep := snap.Cluster.Replication
	if rep == nil || rep.Ships == 0 || rep.Promotions != 1 {
		t.Fatalf("replication snapshot: %+v", rep)
	}
	// Updates may be lost in the crash window, but the loss is bounded by
	// what was actually written after the last shipped checkpoint.
	if max := out.res.Sets + uint64(cfg.Replication.ShipEvery) + 1; rep.LostUpdates > max {
		t.Errorf("%d lost updates, more than the %d post-checkpoint writes", rep.LostUpdates, max)
	}
	if snap.FaultsInjected == 0 {
		t.Error("crash fault not recorded as injected")
	}
}

// TestClusterDoubleFaultDegrades tears every checkpoint write (the paper's
// torn-write power-failure model) so no generation ever validates, then
// kills the primary: promotion finds neither an applied standby image nor a
// recoverable checkpoint, and the range must degrade to typed errors — not
// panic, and not take the rest of the key space down.
func TestClusterDoubleFaultDegrades(t *testing.T) {
	reg := fault.New(3)
	// Each checkpoint is exactly two superblock writes — payload then
	// header — and nothing else in the serving path uses mem.WriteAt, so
	// the even-hit policy tears every header: magic lands, CRC doesn't.
	reg.Enable(fault.MemWriteTorn, func(hit uint64, _ *rand.Rand) bool { return hit%2 == 0 })
	cfg := replicatedConfig()
	cfg.Replication.ShipEvery = 4
	m, r, srv := startCluster(t, cfg, reg)
	defer srv.Shutdown()
	obs := m.Observer()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	kLocal, kRemote := keyOnNode(t, r, 0), keyOnNode(t, r, 2)
	for i := 0; i < cfg.Replication.ShipEvery; i++ {
		if v, _, err := roundTrip(t, nc, br, "SET", kRemote, "doomed"); err != nil || string(v) != "OK" {
			t.Fatalf("SET: %q %v", v, err)
		}
	}
	// Both superblock slots take a torn generation before the crash.
	waitFor(t, "two failed ships", func() bool {
		snap := obs.Snapshot()
		return snap.Cluster != nil && snap.Cluster.Replication != nil &&
			snap.Cluster.Replication.ShipFailures >= 2
	})

	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "range degraded", func() bool {
		return r.Health()[2].State == "degraded"
	})

	var re redis.ReplyError
	_, _, err = roundTrip(t, nc, br, "GET", kRemote)
	if !errors.As(err, &re) || !errors.Is(re, redis.ErrShardDegraded) {
		t.Fatalf("degraded GET: want SHARDDEGRADED error reply, got %v", err)
	}
	if redis.IsRetryableReply(re) {
		t.Errorf("degraded reply %q classified retryable", re)
	}
	if v, _, err := roundTrip(t, nc, br, "SET", kLocal, "alive"); err != nil || string(v) != "OK" {
		t.Fatalf("local SET while range degraded: %q %v", v, err)
	}

	h := r.Health()[2]
	if !h.Degraded || h.Promoted {
		t.Fatalf("degraded node health: %+v", h)
	}
	if !strings.Contains(h.Detail, "no recoverable replica") {
		t.Errorf("health detail %q does not explain the failed recovery", h.Detail)
	}
	if h.LostUpdates == 0 {
		t.Error("degraded range reports no lost updates despite buffered writes")
	}
	if obs.Snapshot().Dense().Cluster.Replication.Promotions != 0 {
		t.Error("promotion recorded despite unrecoverable replica")
	}
}

// TestClusterReplicatedDrain extends the drain contract to the replication
// machinery: with a monitor running, ships landed, a primary crashed and
// its standby promoted, Shutdown must still reclaim every goroutine, every
// urpc frame, and every simulated frame — including the crashed process's
// orphaned store and scratch heap and the standby's segment and VASes.
func TestClusterReplicatedDrain(t *testing.T) {
	hwCfg := hw.SmallTest()
	hwCfg.Mem.NVMSuperblock = 1 << 20
	m := hw.NewMachine(hwCfg)
	sys := kernel.New(m)
	sys.EnableStats(1024)
	base := m.PM.AllocatedBytes()
	before := runtime.NumGoroutine()
	obs := m.Observer()

	cfg := replicatedConfig()
	r, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithBackend(sys, ln, server.Config{}, r)

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	for node := 0; node < 3; node++ {
		key := keyOnNode(t, r, node)
		for i := 0; i <= cfg.Replication.ShipEvery; i++ {
			v, _, err := roundTrip(t, nc, br, "SET", key, "drain\r\nme")
			if err != nil || !bytes.Equal(v, []byte("OK")) {
				t.Fatalf("SET node %d: %q %v", node, v, err)
			}
		}
	}

	// Crash the replicated primary and serve from its promoted standby, so
	// teardown has real failover debris to reclaim. The ship the writes
	// triggered runs on the monitor's goroutine: wait for it to land, or a
	// kill that beats it finds nothing to promote from and degrades the
	// range instead.
	waitFor(t, "checkpoint ship", func() bool { return obs.Snapshot().Dense().Cluster.Replication.Ships > 0 })
	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "standby promotion", func() bool { return obs.Snapshot().Dense().Cluster.Replication.Promotions == 1 })
	kRemote := keyOnNode(t, r, 2)
	if v, isNil, err := roundTrip(t, nc, br, "GET", kRemote); err != nil || isNil || string(v) != "drain\r\nme" {
		t.Fatalf("GET from standby: %q nil=%v err=%v", v, isNil, err)
	}

	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if n := r.PendingFrames(); n != 0 {
		t.Errorf("%d urpc frames still queued after drain", n)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Errorf("frame leak after drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked: %d before, %d after\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
	if err := srv.Shutdown(); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestParseMode pins the flag surface.
func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"vas", ModeVAS, true}, {"URPC", ModeURPC, true}, {"auto", ModeAuto, true},
		{"", ModeAuto, true}, {"both", "", false},
	} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseMode(%q) = %q, %v", tc.in, got, err)
		}
	}
}

// TestTopologyPlacement pins node placement per mode.
func TestTopologyPlacement(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	sys := kernel.New(m)
	r, err := New(sys, Config{Nodes: 3, Workers: 1, Mode: ModeURPC})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	topo := r.Topology()
	if len(topo) != 3 {
		t.Fatalf("topology has %d nodes", len(topo))
	}
	var cross int
	for _, n := range topo {
		if n.Local {
			t.Errorf("node %d local in urpc mode", n.ID)
		}
		if n.CrossSocket {
			cross++
		}
	}
	// Worker on core 0 (socket 0), nodes on cores 1..3: cores 2 and 3 sit
	// on the second socket, so two channels must be cross-socket.
	if cross != 2 {
		t.Errorf("%d cross-socket nodes, want 2 on the 2x2 test machine", cross)
	}
	if s := r.String(); !strings.Contains(s, "cross socket") {
		t.Errorf("String() lacks socket placement:\n%s", s)
	}
}

// TestNewFailureLeavesNothing fails New at each of its stages — a worker's
// core claim, a remote node's boot, the wiring of a worker to a co-resident
// store, the monitor's core claim: by a machine too small for the config, and
// by failing one frame allocation at a time — and holds the unwind (Close, the
// same one a built cluster gets) to what Close promises: every frame back, no
// goroutine behind, every core and store name free for the next New.
func TestNewFailureLeavesNothing(t *testing.T) {
	hwCfg := hw.SmallTest() // four cores
	hwCfg.Mem.NVMSuperblock = 1 << 20
	m := hw.NewMachine(hwCfg)
	reg := fault.New(1)
	m.SetFaults(reg)
	sys := kernel.New(m)
	sys.EnableStats(1024)
	base := m.PM.AllocatedBytes()
	before := runtime.NumGoroutine()

	good := Config{Nodes: 2, Workers: 1, Mode: ModeAuto, Locals: 1, SegSize: 1 << 20}
	good.Replication.Enabled = true // cores: one worker, one remote node, the monitor
	seen := map[string]bool{}
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: New succeeded", what)
		}
		// "cluster: <stage>[ <id>]: cause"
		stage, _, _ := strings.Cut(strings.TrimPrefix(err.Error(), "cluster: "), ":")
		seen[strings.TrimRight(stage, " 0123456789")] = true
		if leak := m.PM.CheckLeaks(base); leak != nil {
			t.Fatalf("%s (%v): %v", what, err, leak)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%s: %d goroutines, %d before", what, n, before)
		}
	}

	with := func(edit func(*Config)) Config { c := good; edit(&c); return c }
	for what, cfg := range map[string]Config{
		"five workers":            with(func(c *Config) { c.Workers = 5 }),
		"four remote nodes":       with(func(c *Config) { c.Nodes, c.Mode = 4, ModeURPC }),
		"no core left to monitor": with(func(c *Config) { c.Workers = 2; c.Nodes, c.Locals = 3, 1 }),
	} {
		_, err := New(sys, cfg)
		check(what, err)
	}
	for nth := uint64(1); ; nth++ {
		reg.Enable(fault.MemAlloc, fault.OnNth(nth))
		r, err := New(sys, good)
		fired := reg.Fired(fault.MemAlloc) > 0
		reg.Disable(fault.MemAlloc)
		if err == nil {
			// Past New's last allocation, or one it survives losing.
			if err := r.Close(); err != nil {
				t.Fatalf("allocation %d: close: %v", nth, err)
			}
			if err := m.PM.CheckLeaks(base); err != nil {
				t.Fatalf("allocation %d, after a clean close: %v", nth, err)
			}
			if !fired {
				break
			}
			continue
		}
		check(fmt.Sprintf("allocation %d", nth), err)
	}
	for _, stage := range []string{"worker", "node", "wiring worker", "health monitor"} {
		if !seen[stage] {
			t.Errorf("no New failed at stage %q (saw %v)", stage, seen)
		}
	}
}
