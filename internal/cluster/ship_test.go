package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/stats"
)

// pokedShipCluster is a replicated cluster (two co-resident nodes, remote
// node 2 with a standby) whose monitor ships only when poked: no write count
// and no timer gets there first, so a test counts ships exactly. It returns
// once the boot ship — the one full ship a healthy node ever needs — landed.
func pokedShipCluster(t *testing.T, reg *fault.Registry) (*hw.Machine, *Router, uint64) {
	t.Helper()
	return pokedShipClusterOn(t, reg, hw.SmallTest(), replicatedConfig())
}

// pokedShipClusterOn is pokedShipCluster on a machine and a replicated
// configuration of the caller's choosing: one with a core to spare for the
// migration engine, one with another probe threshold.
func pokedShipClusterOn(t *testing.T, reg *fault.Registry, hwCfg hw.MachineConfig, cfg Config) (*hw.Machine, *Router, uint64) {
	t.Helper()
	hwCfg.Mem.NVMSuperblock = 1 << 20
	m := hw.NewMachine(hwCfg)
	if reg != nil {
		m.SetFaults(reg)
	}
	sys := kernel.New(m)
	sys.EnableStats(1024)
	base := m.PM.AllocatedBytes()
	cfg.Replication.ShipEvery = 1 << 20
	cfg.Replication.ShipInterval = time.Hour
	r, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "boot ship", func() bool { return replSnap(m).Ships == 1 })
	if rep := replSnap(m); rep.FullShips != 1 {
		t.Fatalf("after the boot ship: %+v", rep)
	}
	return m, r, base
}

func replSnap(m *hw.Machine) stats.ReplicationSnap {
	return *m.Observer().Snapshot().Dense().Cluster.Replication
}

// pokeShip asks the monitor for one ship of node 2 and waits for its outcome,
// a ship or a failure.
func pokeShip(t *testing.T, m *hw.Machine, r *Router) stats.ReplicationSnap {
	t.Helper()
	before := replSnap(m)
	r.shipCh <- 2
	waitFor(t, "poked ship", func() bool {
		rep := replSnap(m)
		return rep.Ships+rep.ShipFailures > before.Ships+before.ShipFailures
	})
	return replSnap(m)
}

// do runs one command through the router and returns its decoded reply.
func do(t *testing.T, r *Router, args ...string) (string, bool) {
	t.Helper()
	v, isNil, err := redis.DecodeReply(submitWait(r, args))
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return string(v), isNil
}

// keysOnNode returns n distinct keys whose slots node owns.
func keysOnNode(t *testing.T, r *Router, node, n int) []string {
	t.Helper()
	var keys []string
	for i := 0; len(keys) < n && i < 100000; i++ {
		if k := fmt.Sprintf("ship-%d", i); r.Owner(r.Slot(k)) == node {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("found only %d/%d keys on node %d", len(keys), n, node)
	}
	return keys
}

// TestShipForkIsOneFrameEachWay: a ship's CLUSTER.FORK answers with one
// integer line through the one call into a node, so it costs the monitor's
// endpoint one request frame and one response frame, not a header and a
// chunk. Probes are held off, so the ship is all that endpoint carries.
func TestShipForkIsOneFrameEachWay(t *testing.T) {
	hwCfg := hw.SmallTest()
	hwCfg.Mem.NVMSuperblock = 1 << 20
	m := hw.NewMachine(hwCfg)
	sys := kernel.New(m)
	sys.EnableStats(1024)
	cfg := replicatedConfig()
	cfg.Replication.ShipEvery = 1 << 20
	cfg.Replication.ShipInterval = time.Hour
	cfg.Replication.ProbeInterval = time.Hour
	r, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitFor(t, "boot ship", func() bool { return replSnap(m).Ships == 1 })
	frames := func() (req, resp uint64) {
		n := r.nodes[2]
		n.mu.Lock()
		defer n.mu.Unlock()
		rq, rs := r.mon.eps.get(2).ChannelStats()
		return rq.Sends, rs.Sends
	}
	do(t, r, "SET", keysOnNode(t, r, 2, 1)[0], "v")
	req, resp := frames()
	if rep := pokeShip(t, m, r); rep.Ships != 2 || rep.ShipFailures != 0 {
		t.Fatalf("after the poked ship: %+v", rep)
	}
	if gotReq, gotResp := frames(); gotReq-req != 1 || gotResp-resp != 1 {
		t.Fatalf("one ship cost the monitor's endpoint %d request and %d response frames, want 1 and 1", gotReq-req, gotResp-resp)
	}
}

// TestKillAfterDeltaShipsServesEveryWrite is the failover contract over a
// standby that was built once and patched ever since: four rounds of SET,
// overwrite with a shorter value and DEL, a poked ship after each — all four
// deltas, a small fraction of the segment each — then writes that only the
// delta log holds, then the primary is killed. The promoted standby must
// serve every acknowledged write and miss every deleted key, with nothing
// lost; and closing the router returns every frame.
func TestKillAfterDeltaShipsServesEveryWrite(t *testing.T) {
	m, r, base := pokedShipCluster(t, nil)
	rng := rand.New(rand.NewSource(3))
	keys := keysOnNode(t, r, 2, 48)
	want := map[string]string{}
	write := func() {
		t.Helper()
		switch key := keys[rng.Intn(len(keys))]; {
		case want[key] != "" && rng.Intn(4) == 0:
			delete(want, key)
			do(t, r, "DEL", key)
		case want[key] != "" && rng.Intn(2) == 0:
			want[key] = want[key][:1+len(want[key])/2]
			do(t, r, "SET", key, want[key])
		default:
			want[key] = strings.Repeat(string(rune('a'+rng.Intn(26))), 8+rng.Intn(1200))
			do(t, r, "SET", key, want[key])
		}
	}
	const deltaShips = 4
	for round := 1; round <= deltaShips; round++ {
		for i := 0; i < 24; i++ {
			write()
		}
		before := replSnap(m)
		rep := pokeShip(t, m, r)
		if rep.Ships != before.Ships+1 || rep.FullShips != 1 || rep.ShipFailures != 0 {
			t.Fatalf("round %d: %+v; want one more ship, still the one full ship, no failure", round, rep)
		}
		if shipped := rep.ShipBytes - before.ShipBytes; shipped == 0 || shipped > r.cfg.SegSize/4 {
			t.Fatalf("round %d: the delta ship moved %d bytes of a %d-byte segment", round, shipped, r.cfg.SegSize)
		}
	}
	tail := 0
	for ; tail < 16; tail++ {
		write()
	}

	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "standby promotion", func() bool { return replSnap(m).Promotions == 1 })
	rep := replSnap(m)
	if rep.LostUpdates != 0 || rep.DeltaReplayed != uint64(tail) || rep.FullShips != 1 {
		t.Fatalf("after the promotion: %+v; want %d entries replayed, none lost, one full ship", rep, tail)
	}
	for _, key := range keys {
		got, isNil := do(t, r, "GET", key)
		if val, ok := want[key]; isNil == ok || got != val {
			t.Fatalf("GET %s from the promoted standby: %d bytes (nil %v), want %d bytes (present %v)", key, len(got), isNil, len(val), ok)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Fatalf("after Close with delta ships in the history: %v", err)
	}
}

// TestInvalidatedViewRestoresWindowThenFullShip fences node 2's view in the
// one window that matters: after its CLUSTER.FORK made the view and counted
// the delta log, before the monitor extracted it. (The fence rides the urpc
// delay point, whose policy runs as the node sends the fork reply; it never
// fires.) That ship must fail with the log still holding the writes; the
// standby still holds the generation before the lost one, so the next ship
// cannot be a delta and is a full rebuild; the one after that is a delta
// again. The promoted standby then serves every write.
func TestInvalidatedViewRestoresWindowThenFullShip(t *testing.T) {
	reg := fault.New(1)
	m, r, base := pokedShipCluster(t, reg)
	n := r.nodeByID(2)
	keys := keysOnNode(t, r, 2, 12)
	set := func(from, to int, val string) {
		t.Helper()
		for _, key := range keys[from:to] {
			if v, _ := do(t, r, "SET", key, val); v != "OK" {
				t.Fatalf("SET %s: %q", key, v)
			}
		}
	}

	set(0, 4, strings.Repeat("a", 900))
	var armed atomic.Bool
	boot := r.forks.Current(2).Gen()
	reg.Enable(fault.URPCDelay, func(uint64, *rand.Rand) bool {
		if v := r.forks.Current(2); armed.Load() && v != nil && v.Gen() > boot {
			armed.Store(false)
			r.forks.InvalidateNode(2, "test: fenced between fork and extraction")
		}
		return false
	})
	armed.Store(true)
	rep := pokeShip(t, m, r)
	reg.Disable(fault.URPCDelay)
	if armed.Load() || rep.ShipFailures != 1 || rep.Ships != 1 {
		t.Fatalf("ship of a view fenced before extraction (fence ran: %v): %+v; want one failure", !armed.Load(), rep)
	}
	if buffered, dropped := n.delta.pending(); buffered != 4 || dropped != 0 {
		t.Fatalf("delta window after the failed ship: %d buffered, %d dropped; want the 4 writes back", buffered, dropped)
	}

	set(4, 8, strings.Repeat("b", 700))
	if rep = pokeShip(t, m, r); rep.Ships != 2 || rep.FullShips != 2 || rep.ShipFailures != 1 {
		t.Fatalf("ship after the lost generation: %+v; want a second full ship", rep)
	}
	if buffered, _ := n.delta.pending(); buffered != 0 {
		t.Fatalf("%d writes still buffered after a ship", buffered)
	}
	set(8, 12, strings.Repeat("c", 500))
	before := rep
	if rep = pokeShip(t, m, r); rep.Ships != 3 || rep.FullShips != 2 || rep.ShipBytes-before.ShipBytes > r.cfg.SegSize/4 {
		t.Fatalf("ship after the rebuild: %+v (was %+v); want a delta", rep, before)
	}

	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "standby promotion", func() bool { return replSnap(m).Promotions == 1 })
	for i, key := range keys {
		if got, _ := do(t, r, "GET", key); got != strings.Repeat(string(rune('a'+i/4)), 900-200*(i/4)) {
			t.Fatalf("GET %s from the promoted standby: %d bytes of %q", key, len(got), got[:min(1, len(got))])
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaLogKeepsTheStoresOrder: two workers overwrite the same keys of the
// replicated remote node with values of their own. The delta log must hold
// the writes in the order the store applied them: the last entry per key is
// the value the primary serves, and after a kill the promoted standby serves
// that value. A log appended after the node's mutex is released can record
// two workers' writes the other way round; that shows only when they
// interleave in that window, so one clean run proves little, which is why the
// test runs again under -race -count=5.
func TestDeltaLogKeepsTheStoresOrder(t *testing.T) {
	m, r, base := pokedShipCluster(t, nil)
	keys := keysOnNode(t, r, 2, 4)
	var wg sync.WaitGroup
	for w := range uint64(2) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 120 { // two workers' writes stay inside the 256-entry log
				req := server.NewRequest([]string{"SET", keys[i%len(keys)], fmt.Sprintf("w%d-%d", w, i)})
				for !r.Submit(w, req) {
				}
				if v := req.Wait(); string(v) != "+OK\r\n" {
					t.Errorf("worker %d SET %d: %q", w, i, v)
				}
			}
		}()
	}
	wg.Wait()
	n := r.nodeByID(2)
	n.delta.mu.Lock()
	entries, dropped := len(n.delta.entries), n.delta.dropped
	logged := map[string]string{}
	for _, e := range n.delta.entries {
		logged[e[1]] = e[2]
	}
	n.delta.mu.Unlock()
	want := map[string]string{}
	for _, key := range keys {
		if want[key], _ = do(t, r, "GET", key); logged[key] != want[key] {
			t.Fatalf("%s: the primary serves %q, the delta log ends with %q (%d entries, %d dropped)", key, want[key], logged[key], entries, dropped)
		}
	}
	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "standby promotion", func() bool { return replSnap(m).Promotions == 1 })
	for _, key := range keys {
		if got, _ := do(t, r, "GET", key); got != want[key] {
			t.Fatalf("GET %s from the promoted standby: %q, want %q", key, got, want[key])
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Fatal(err)
	}
}

// failApply pokes one ship of node 2 whose apply fails at its first frame
// allocation after the fork (found as the node sends its fork reply, on the
// urpc delay point, which never fires) and returns its outcome.
func failApply(t *testing.T, reg *fault.Registry, m *hw.Machine, r *Router) stats.ReplicationSnap {
	t.Helper()
	var forked, failed atomic.Bool
	last := r.forks.Current(2).Gen()
	reg.Enable(fault.URPCDelay, func(uint64, *rand.Rand) bool {
		if v := r.forks.Current(2); v != nil && v.Gen() > last {
			forked.Store(true)
		}
		return false
	})
	defer reg.Disable(fault.URPCDelay)
	reg.Enable(fault.MemAlloc, func(uint64, *rand.Rand) bool { return forked.Load() && failed.CompareAndSwap(false, true) })
	defer reg.Disable(fault.MemAlloc)
	return pokeShip(t, m, r)
}

// TestFailedApplyThenKillServesEveryWrite: four warm ships, then a ship whose
// apply fails, which leaves the standby cold and the log holding only what the
// node applied since the previous landed fork; the primary then dies before
// the next ship. Promotion rebuilds the standby from a generation it writes
// into NVM then, and replays the window. One that read the generation the
// last cold ship wrote would lose what the warm ships carried, and worse: the
// sweeps of the forks since have freed frames that generation names. Round i
// rewrites keys[50·i:] with values of 300 bytes, so the freed frames go back
// into use for other pages.
func TestFailedApplyThenKillServesEveryWrite(t *testing.T) {
	reg := fault.New(1)
	m, r, base := pokedShipCluster(t, reg)
	keys := keysOnNode(t, r, 2, 300)
	want := map[string]string{}
	round := func(i int) {
		t.Helper()
		for _, key := range keys[50*i:] {
			v := fmt.Sprintf("%d-%s-", i, key)
			v += strings.Repeat("v", 300-len(v))
			if got, _ := do(t, r, "SET", key, v); got != "OK" {
				t.Fatalf("SET %s: %q", key, got)
			}
			want[key] = v
		}
	}
	for i := 0; i < 4; i++ {
		round(i)
		if rep := pokeShip(t, m, r); rep.Ships != uint64(2+i) || rep.FullShips != 1 || rep.ShipFailures != 0 {
			t.Fatalf("warm ship %d: %+v", i+1, rep)
		}
	}
	round(4)
	rep := failApply(t, reg, m, r)
	n := r.nodeByID(2)
	if buffered, _ := n.delta.pending(); rep.ShipFailures != 1 || n.held != 0 || buffered != 100 {
		t.Fatalf("the ship whose apply failed: %+v, standby holding generation %d, %d writes buffered; want one failure, a cold standby and the 100 writes back", rep, n.held, buffered)
	}
	round(5)
	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "standby promotion", func() bool { return replSnap(m).Promotions == 1 || n.curState() == StateDegraded })
	if cause := n.cause.Load(); cause != nil {
		t.Fatalf("the range degraded: %s", *cause)
	}
	if rep := replSnap(m); rep.LostUpdates != 0 || rep.DeltaReplayed != 150 {
		t.Fatalf("after the promotion: %+v; want the 150 buffered writes replayed, none lost", rep)
	}
	for _, key := range keys {
		if got, _ := do(t, r, "GET", key); got != want[key] {
			t.Fatalf("GET %s from the promoted standby: %q, want %q", key, got, want[key])
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Fatal(err)
	}
}

// TestWarmShipsWriteNoCheckpoint: only a ship to a cold standby writes a
// superblock generation. After the boot ship, warm ships leave the newest
// generation where it was (the one whose apply fails among them: it forked
// for a warm standby), and the ship after the failed apply writes the next.
func TestWarmShipsWriteNoCheckpoint(t *testing.T) {
	reg := fault.New(1)
	m, r, base := pokedShipCluster(t, reg)
	n := r.nodeByID(2)
	newest := func() uint64 {
		t.Helper()
		img, err := r.sys.CheckpointSegment(n.names.Seg)
		if err != nil {
			t.Fatal(err)
		}
		return img.Seq
	}
	boot := newest()
	keys := keysOnNode(t, r, 2, 6)
	for i, key := range keys {
		if v, _ := do(t, r, "SET", key, "v-"+key); v != "OK" {
			t.Fatalf("SET %s: %q", key, v)
		}
		if rep := pokeShip(t, m, r); rep.Ships != uint64(2+i) || rep.ShipFailures != 0 {
			t.Fatalf("warm ship %d: %+v", i+1, rep)
		}
		if seq := newest(); seq != boot {
			t.Fatalf("warm ship %d wrote generation %d; the boot ship's is %d", i+1, seq, boot)
		}
	}
	if rep := failApply(t, reg, m, r); rep.ShipFailures != 1 || newest() != boot {
		t.Fatalf("the warm ship whose apply failed: %+v, newest generation %d; want one failure and %d", rep, newest(), boot)
	}
	if rep := pokeShip(t, m, r); rep.FullShips != 2 || newest() <= boot {
		t.Fatalf("the ship to the cold standby: %+v, newest generation %d; want a full ship and a generation past %d", rep, newest(), boot)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Fatal(err)
	}
}

// TestWriteInFlightAcrossPromotionSurvives: probes to node 2 are lost while
// its data path stays up, as in a partition, and a SET that resolved the
// primary is held at the node's mutex until the monitor is promoting. The
// write lands on the primary after the fence; the promotion waits it out
// before it takes the log, so the acknowledged write is replayed into the
// standby, not lost.
func TestWriteInFlightAcrossPromotionSurvives(t *testing.T) {
	reg := fault.New(1)
	cfg := replicatedConfig()
	cfg.Replication.ProbeThreshold = 10
	m, r, base := pokedShipClusterOn(t, reg, hw.SmallTest(), cfg)
	key := keysOnNode(t, r, 2, 1)[0]
	if v, _ := do(t, r, "SET", key, "old"); v != "OK" {
		t.Fatalf("SET %s: %q", key, v)
	}
	if rep := pokeShip(t, m, r); rep.Ships != 2 || rep.ShipFailures != 0 {
		t.Fatalf("the warm ship: %+v", rep)
	}
	// The probes are lost before the test takes the node's mutex, so none
	// waits on it; ten of them, backing off, take the monitor about 46 probe
	// intervals, and the SET resolves long before.
	reg.EnableAt(fault.ClusterProbeDrop, 2, "partition", fault.Always())
	n := r.nodeByID(2)
	n.mu.Lock()
	reply := make(chan []byte, 1)
	go func() { reply <- submitWait(r, []string{"SET", key, "new"}) }()
	waitFor(t, "the promotion", func() bool { return n.curState() == StatePromoting })
	n.mu.Unlock()
	select {
	case got := <-reply:
		if string(got) != "+OK\r\n" {
			t.Fatalf("SET %s new across the promotion: %q", key, got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the SET's reply")
	}
	waitFor(t, "standby promotion", func() bool { return replSnap(m).Promotions == 1 })
	if rep := replSnap(m); rep.LostUpdates != 0 || rep.DeltaReplayed != 1 {
		t.Fatalf("after the promotion: %+v; want the write replayed, none lost", rep)
	}
	if got, _ := do(t, r, "GET", key); got != "new" {
		t.Fatalf("GET %s from the promoted standby: %q, want \"new\"", key, got)
	}
	reg.DisableAt(fault.ClusterProbeDrop, 2)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Fatal(err)
	}
}

// eightCores is the small machine with a core for the migration engine
// beside the workers, node 2 and the monitor.
func eightCores() hw.MachineConfig {
	hwCfg := hw.SmallTest()
	hwCfg.CoresPerSocket = 4
	return hwCfg
}

// killAndPromote kills node 2 and waits for its standby to serve.
func killAndPromote(t *testing.T, m *hw.Machine, r *Router) stats.ReplicationSnap {
	t.Helper()
	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "standby promotion", func() bool { return replSnap(m).Promotions == 1 })
	return replSnap(m)
}

// TestSlotMovedOntoAReplicatedNodeSurvivesItsKill moves a slot of 8 keys from
// a co-resident node onto replicated node 2 and kills node 2 before any ship
// after the move. The slot's import reached node 2 from the migration engine,
// not from a worker: the node logs it all the same, and the promoted standby
// serves every key, with nothing lost.
func TestSlotMovedOntoAReplicatedNodeSurvivesItsKill(t *testing.T) {
	m, r, base := pokedShipClusterOn(t, nil, eightCores(), replicatedConfig())
	slot := 0
	for r.Owner(slot) != 0 {
		slot++
	}
	keys := keysInSlot(t, slot, 8)
	for _, key := range keys {
		if v, _ := do(t, r, "SET", key, "v-"+key); v != "OK" {
			t.Fatalf("SET %s: %q", key, v)
		}
	}
	if err := r.MigrateSlot(slot, 2); err != nil {
		t.Fatal(err)
	}
	if rep := killAndPromote(t, m, r); rep.LostUpdates != 0 || rep.Ships != 1 {
		t.Fatalf("after the promotion: %+v; want nothing lost and only the boot ship", rep)
	}
	missing := 0
	for _, key := range keys {
		if got, isNil := do(t, r, "GET", key); isNil || got != "v-"+key {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d keys moved onto node 2 do not read back from its promoted standby", missing, len(keys))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteSurvivesItsSlotMovingOffAndBack: a key shipped to node 2's
// standby moves with its slot to node 0 and is deleted there; node 2 dies
// and its slot comes back onto the promoted standby. The slot's cleanup on
// node 2 is in node 2's log, so the standby no longer holds the key, and the
// empty slot moving back cannot bring the old value back.
func TestDeleteSurvivesItsSlotMovingOffAndBack(t *testing.T) {
	m, r, base := pokedShipClusterOn(t, nil, eightCores(), replicatedConfig())
	key := keysOnNode(t, r, 2, 1)[0]
	slot := r.Slot(key)
	if v, _ := do(t, r, "SET", key, "old"); v != "OK" {
		t.Fatalf("SET: %q", v)
	}
	if rep := pokeShip(t, m, r); rep.Ships != 2 || rep.ShipFailures != 0 {
		t.Fatalf("the ship of the key: %+v", rep)
	}
	if err := r.MigrateSlot(slot, 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := do(t, r, "DEL", key); v != "1" {
		t.Fatalf("DEL on node 0: %q", v)
	}
	if rep := killAndPromote(t, m, r); rep.LostUpdates != 0 {
		t.Fatalf("after the promotion: %+v; want nothing lost", rep)
	}
	if err := r.MigrateSlot(slot, 2); err != nil {
		t.Fatal(err)
	}
	if got, isNil := do(t, r, "GET", key); !isNil {
		t.Fatalf("GET of the deleted key after its slot came back to node 2: %q", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveNodeWaitsOutTheMonitor removes replicated node 2 while SETs keep
// coming and every logged record pokes a ship: the drain's last cleanup can
// start a ship that is still applying into the standby when the drain ends.
// RemoveNode must wait it out, or destroying the standby finds it attached.
// The race is narrow, hence 20 rounds.
func TestRemoveNodeWaitsOutTheMonitor(t *testing.T) {
	for round := 0; round < 20; round++ {
		hwCfg := eightCores()
		hwCfg.Mem.NVMSuperblock = 1 << 20
		m := hw.NewMachine(hwCfg)
		sys := kernel.New(m)
		sys.EnableStats(1024)
		base := m.PM.AllocatedBytes()
		cfg := replicatedConfig()
		cfg.Replication.ShipEvery = 1
		cfg.Replication.ShipInterval = time.Millisecond
		r, err := New(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				submitWait(r, []string{"SET", fmt.Sprintf("k-%d", i%512), "v"})
			}
		}()
		err = r.RemoveNode(2)
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := m.PM.CheckLeaks(base); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
