package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/stats"
)

// send is roundTrip without the testing.T, safe to call from goroutines.
func send(nc net.Conn, br *bufio.Reader, args ...string) ([]byte, error) {
	if _, err := nc.Write(redis.EncodeCommand(args...)); err != nil {
		return nil, err
	}
	v, _, err := redis.ReadReply(br)
	return v, err
}

// keysInSlot collects n distinct keys hashing into one placement slot.
func keysInSlot(t *testing.T, slot, n int) []string {
	t.Helper()
	var keys []string
	for i := 0; len(keys) < n && i < 200000; i++ {
		k := fmt.Sprintf("mig-%d", i)
		if redis.SlotForKey(k, NumSlots) == slot {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("found only %d/%d keys for slot %d", len(keys), n, slot)
	}
	return keys
}

// TestPlacementTable pins the placement API's startup contract: epoch 1
// stripes slots round-robin and PlacementInfo covers the whole slot space.
func TestPlacementTable(t *testing.T) {
	_, r, srv := startCluster(t, Config{Nodes: 3, Workers: 1, Locals: 2}, nil)
	defer srv.Shutdown()

	tab := r.Table()
	if tab.Version != 1 {
		t.Fatalf("initial table version = %d, want 1", tab.Version)
	}
	for s, owner := range tab.Owners {
		if owner != s%3 {
			t.Fatalf("slot %d owned by %d, want %d", s, owner, s%3)
		}
	}
	info := r.PlacementInfo()
	if info.Version != 1 || info.Slots != NumSlots {
		t.Fatalf("placement info = %+v", info)
	}
	covered := 0
	for _, rg := range info.Ranges {
		covered += rg.End - rg.Start + 1
	}
	if covered != NumSlots {
		t.Fatalf("placement ranges cover %d slots, want %d", covered, NumSlots)
	}
}

// TestMigrateSlot moves a populated slot local→remote and back: the data
// must follow, the table version must bump per move, and the migration
// counters must attribute both moves.
func TestMigrateSlot(t *testing.T) {
	m, r, srv := startCluster(t, Config{Nodes: 3, Workers: 1, Locals: 2}, nil)
	defer srv.Shutdown()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	slot := 0 // owned by node 0 (local) at epoch 1
	keys := keysInSlot(t, slot, 8)
	for i, k := range keys {
		if v, err := send(nc, br, "SET", k, fmt.Sprintf("v-%d", i)); err != nil || string(v) != "OK" {
			t.Fatalf("SET %s: %q %v", k, v, err)
		}
	}

	verify := func(stage string) {
		t.Helper()
		for i, k := range keys {
			v, err := send(nc, br, "GET", k)
			if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
				t.Fatalf("%s: GET %s = %q, %v", stage, k, v, err)
			}
		}
	}

	if err := r.MigrateSlot(slot, 2); err != nil {
		t.Fatalf("migrate %d → 2: %v", slot, err)
	}
	if got := r.Owner(slot); got != 2 {
		t.Fatalf("slot %d owned by %d after migrate, want 2", slot, got)
	}
	if v := r.Table().Version; v != 2 {
		t.Fatalf("table version = %d after one migrate, want 2", v)
	}
	verify("on remote node")

	if err := r.MigrateSlot(slot, 1); err != nil {
		t.Fatalf("migrate %d → 1: %v", slot, err)
	}
	if got, v := r.Owner(slot), r.Table().Version; got != 1 || v != 3 {
		t.Fatalf("slot %d: owner %d version %d, want owner 1 version 3", slot, got, v)
	}
	verify("back on a local node")

	// Migrating a slot to its current owner is a no-op, not an error.
	if err := r.MigrateSlot(slot, 1); err != nil {
		t.Fatalf("no-op migrate: %v", err)
	}
	if v := r.Table().Version; v != 3 {
		t.Fatalf("no-op migrate bumped the version to %d", v)
	}

	snap := m.Observer().Snapshot()
	if snap.Cluster == nil || snap.Cluster.Migration == nil {
		t.Fatalf("no migration stats: %+v", snap.Cluster)
	}
	mig := snap.Cluster.Migration
	if mig.SlotMoves != 2 || mig.SlotMoveFailures != 0 {
		t.Fatalf("migration counters = %+v, want 2 moves, 0 failures", mig)
	}
	if mig.KeysMoved < uint64(2*len(keys)) || mig.BytesMoved == 0 {
		t.Fatalf("migration volume = %+v, want >= %d keys", mig, 2*len(keys))
	}
}

// TestMigrateSlotUnderLoad races a writer against repeated ownership flips
// of its slot: every write must either apply exactly once or come back as
// a retryable refusal (-MOVED/-BUSY), and after the dust settles every key
// must read back the last acknowledged value — zero mismatches.
func TestMigrateSlotUnderLoad(t *testing.T) {
	_, r, srv := startCluster(t, Config{Nodes: 3, Workers: 1, Locals: 2}, nil)
	defer srv.Shutdown()

	slot := 0
	keys := keysInSlot(t, slot, 4)

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	stop := make(chan struct{})
	done := make(chan struct{})
	last := make(map[string]string)
	var mu sync.Mutex
	var writerErr error
	go func() {
		defer close(done)
		wc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			writerErr = err
			return
		}
		defer wc.Close()
		wbr := bufio.NewReader(wc)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k, v := keys[i%len(keys)], fmt.Sprintf("w-%d", i)
			for {
				resp, err := send(wc, wbr, "SET", k, v)
				if err == nil && string(resp) == "OK" {
					mu.Lock()
					last[k] = v
					mu.Unlock()
					break
				}
				var re redis.ReplyError
				if errors.As(err, &re) && redis.IsRetryableReply(re) {
					continue // raced a flip; the retry routes on the new table
				}
				writerErr = fmt.Errorf("SET %s: %q %v", k, resp, err)
				return
			}
		}
	}()

	// Bounce the slot across every placement: local→remote, remote→local,
	// and again, with the writer hammering it the whole time.
	for _, dst := range []int{2, 1, 2, 0} {
		time.Sleep(10 * time.Millisecond)
		if err := r.MigrateSlot(slot, dst); err != nil {
			close(stop)
			<-done
			t.Fatalf("migrate slot %d → %d: %v", slot, dst, err)
		}
	}
	close(stop)
	<-done
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}

	mu.Lock()
	defer mu.Unlock()
	for k, want := range last {
		v, err := send(nc, br, "GET", k)
		if err != nil || string(v) != want {
			t.Fatalf("after flips: GET %s = %q %v, want %q", k, v, err, want)
		}
	}
	if v := r.Table().Version; v != 5 {
		t.Fatalf("table version = %d after 4 migrations, want 5", v)
	}
}

// TestAddRemoveNode grows the cluster by one node, rebalances a fair share
// of slots onto it, then drains and removes it — data intact end to end,
// membership visible in health, topology, and the counters.
func TestAddRemoveNode(t *testing.T) {
	m, r, srv := startCluster(t, Config{Nodes: 3, Workers: 1, Locals: 2}, nil)
	defer srv.Shutdown()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	const n = 128
	for i := 0; i < n; i++ {
		k, v := fmt.Sprintf("k-%d", i), fmt.Sprintf("v-%d", i)
		if resp, err := send(nc, br, "SET", k, v); err != nil || string(resp) != "OK" {
			t.Fatalf("SET %s: %q %v", k, resp, err)
		}
	}
	verify := func(stage string) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, err := send(nc, br, "GET", fmt.Sprintf("k-%d", i))
			if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
				t.Fatalf("%s: GET k-%d = %q, %v", stage, i, v, err)
			}
		}
	}

	id, err := r.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if id != 3 {
		t.Fatalf("AddNode id = %d, want 3", id)
	}
	moved, err := r.RebalanceInto(id)
	if err != nil {
		t.Fatalf("RebalanceInto: %v", err)
	}
	fair := NumSlots / 4
	if moved != fair {
		t.Fatalf("rebalance moved %d slots, want the fair share %d", moved, fair)
	}
	if got := len(r.Table().slotsOf(id)); got != fair {
		t.Fatalf("node %d owns %d slots after rebalance, want %d", id, got, fair)
	}
	verify("after add+rebalance")

	if err := r.RemoveNode(id); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if got := len(r.Table().slotsOf(id)); got != 0 {
		t.Fatalf("removed node still owns %d slots", got)
	}
	verify("after remove")

	// Removed nodes surface as such, and stay gone.
	var seen bool
	for _, h := range r.Health() {
		if h.Node == id {
			seen = true
			if h.State != "removed" {
				t.Fatalf("removed node health = %+v", h)
			}
		}
	}
	if !seen {
		t.Fatal("removed node missing from health report")
	}
	if s := r.String(); !strings.Contains(s, fmt.Sprintf("node %d: removed", id)) {
		t.Fatalf("topology does not mention the removed node:\n%s", s)
	}
	if err := r.RemoveNode(id); err == nil {
		t.Fatal("removing a removed node succeeded")
	}

	snap := m.Observer().Snapshot()
	mig := snap.Cluster.Migration
	if mig == nil || mig.NodesAdded != 1 || mig.NodesRemoved != 1 {
		t.Fatalf("membership counters = %+v, want 1 added / 1 removed", mig)
	}
	if mig.SlotMoves != uint64(2*fair) {
		t.Fatalf("slot moves = %d, want %d (in and back out)", mig.SlotMoves, 2*fair)
	}
}

// TestRemoveReplicatedNode drains a replicated remote node: its slots move
// to the survivors, and both its primary store and its standby are
// destroyed without wedging the monitor.
func TestRemoveReplicatedNode(t *testing.T) {
	_, r, srv := startCluster(t, Config{
		Nodes: 3, Workers: 1, Locals: 2,
		SegSize:     1 << 20,
		Replication: ReplicationConfig{Enabled: true, ShipEvery: 4},
	}, nil)
	defer srv.Shutdown()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	key := keyOnNode(t, r, 2)
	if v, err := send(nc, br, "SET", key, "replicated"); err != nil || string(v) != "OK" {
		t.Fatalf("SET: %q %v", v, err)
	}

	if err := r.RemoveNode(2); err != nil {
		t.Fatalf("RemoveNode(2): %v", err)
	}
	if got := r.Owner(r.Slot(key)); got == 2 {
		t.Fatal("key still routes to the removed node")
	}
	if v, err := send(nc, br, "GET", key); err != nil || string(v) != "replicated" {
		t.Fatalf("GET after remove: %q %v", v, err)
	}
}

// TestAddReplicatedNodeWarmsAndPromotes pins how a replicated node added at
// run time reaches the monitor: AddNode pokes the ship channel, the first
// ship connects the monitor's endpoint and warms the standby — before the
// node owns a slot or has taken a write, so nothing but the poke can have
// asked for it — and when the node is later killed, its promotion loses no
// update.
func TestAddReplicatedNodeWarmsAndPromotes(t *testing.T) {
	// Cores: worker, remote node 2, monitor, the added node, the engine.
	hwCfg := hw.SmallTest()
	hwCfg.CoresPerSocket = 4
	cfg := replicatedConfig()
	cfg.Workers = 1
	m, r, srv := startClusterOn(t, hwCfg, cfg, nil, server.Config{})
	defer srv.Shutdown()
	obs := m.Observer()

	id, err := r.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	waitFor(t, "the added node's first checkpoint ship", func() bool {
		for _, ev := range obs.Tracer().Events() {
			if ev.Kind == stats.EvCheckpointShip && ev.A == uint64(id) {
				return true
			}
		}
		return false
	})
	if _, err := r.RebalanceInto(id); err != nil {
		t.Fatalf("RebalanceInto: %v", err)
	}

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	// 21 writes against ShipEvery 8: some are inside a shipped image, the
	// tail only in the delta log promotion replays.
	var keys []string
	for i := 0; len(keys) < 21; i++ {
		if k := fmt.Sprintf("added-%d", i); r.Owner(r.Slot(k)) == id {
			keys = append(keys, k)
			if v, err := send(nc, br, "SET", k, "v-"+k); err != nil || string(v) != "OK" {
				t.Fatalf("SET %s: %q %v", k, v, err)
			}
		}
	}
	if err := r.KillNode(id); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the added node's promotion", func() bool {
		h := r.Health()[id]
		return h.Promoted && h.State == "healthy"
	})
	for _, k := range keys {
		if v, err := send(nc, br, "GET", k); err != nil || string(v) != "v-"+k {
			t.Fatalf("GET %s from the promoted standby: %q %v", k, v, err)
		}
	}
	if lost := obs.Snapshot().Dense().Cluster.Replication.LostUpdates; lost != 0 {
		t.Fatalf("promotion lost %d updates", lost)
	}
}

// TestMigrateTargetCrashed points a migration at a node armed to crash on
// its next dispatch: the copy must abort and roll back, the source stays
// authoritative, and the failure is counted exactly once.
func TestMigrateTargetCrashed(t *testing.T) {
	reg := fault.New(1)
	m, r, srv := startCluster(t, Config{Nodes: 3, Workers: 1, Locals: 2}, reg)
	defer srv.Shutdown()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	slot := 0
	keys := keysInSlot(t, slot, 4)
	for i, k := range keys {
		if v, err := send(nc, br, "SET", k, fmt.Sprintf("v-%d", i)); err != nil || string(v) != "OK" {
			t.Fatalf("SET %s: %q %v", k, v, err)
		}
	}

	reg.EnableAt(fault.ClusterNodeCrash, 2, "always", fault.Always())
	if err := r.MigrateSlot(slot, 2); err == nil {
		t.Fatal("migration into a crashing node succeeded")
	}
	if got, v := r.Owner(slot), r.Table().Version; got != 0 || v != 1 {
		t.Fatalf("after aborted migrate: owner %d version %d, want owner 0 version 1", got, v)
	}
	for i, k := range keys {
		v, err := send(nc, br, "GET", k)
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("source lost %s: %q %v", k, v, err)
		}
	}
	// A second attempt fails fast: the target is now known-crashed.
	if err := r.MigrateSlot(slot, 2); err == nil {
		t.Fatal("migration into a crashed node succeeded")
	}

	snap := m.Observer().Snapshot()
	mig := snap.Cluster.Migration
	if mig == nil || mig.SlotMoves != 0 || mig.SlotMoveFailures != 2 {
		t.Fatalf("migration counters = %+v, want 0 moves / 2 failures", mig)
	}
}

// TestClusterCommands drives the RESP introspection surface: CLUSTER NODES
// describes every node, CLUSTER SLOTS tracks the live table (ranges merge
// as neighbouring slots land on one owner), and unknown subcommands error.
func TestClusterCommands(t *testing.T) {
	_, r, srv := startCluster(t, Config{Nodes: 3, Workers: 1, Locals: 2}, nil)
	defer srv.Shutdown()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	nodes, err := send(nc, br, "CLUSTER", "NODES")
	if err != nil {
		t.Fatalf("CLUSTER NODES: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(nodes)), "\n")
	if len(lines) != 3 {
		t.Fatalf("CLUSTER NODES listed %d nodes, want 3:\n%s", len(lines), nodes)
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, fmt.Sprintf("node-%d ", i)) ||
			!strings.Contains(line, "master") || !strings.Contains(line, "connected") {
			t.Fatalf("CLUSTER NODES line %d: %q", i, line)
		}
	}

	// The striped initial table has no mergeable neighbours: 256 ranges.
	slots := r.clusterSlotsReply()
	if !strings.HasPrefix(string(slots), fmt.Sprintf("*%d\r\n", NumSlots)) {
		t.Fatalf("CLUSTER SLOTS header: %q", slots[:16])
	}
	// Moving slot 0 onto slot 1's owner merges them into one range.
	if err := r.MigrateSlot(0, r.Owner(1)); err != nil {
		t.Fatal(err)
	}
	slots = r.clusterSlotsReply()
	if !strings.HasPrefix(string(slots), fmt.Sprintf("*%d\r\n", NumSlots-1)) {
		t.Fatalf("CLUSTER SLOTS after merge: %q", slots[:16])
	}

	if _, err := send(nc, br, "CLUSTER", "FORGET"); err == nil {
		t.Fatal("unknown CLUSTER subcommand succeeded")
	}
}
