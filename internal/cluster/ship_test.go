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
	hwCfg := hw.SmallTest()
	hwCfg.Mem.NVMSuperblock = 1 << 20
	m := hw.NewMachine(hwCfg)
	if reg != nil {
		m.SetFaults(reg)
	}
	sys := kernel.New(m)
	sys.EnableStats(1024)
	base := m.PM.AllocatedBytes()
	cfg := replicatedConfig()
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
// one window that matters: after its CLUSTER.FORK made the view and truncated
// the delta log, before the monitor extracted it. (The fence rides the urpc
// delay point, whose policy runs as the node sends the fork reply; it never
// fires.) That ship must fail with the window put back; the standby still
// holds the generation before the lost one, so the next ship cannot be a
// delta and is a full rebuild; the one after that is a delta again. The
// promoted standby then serves every write.
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
	entries, dropped := n.delta.take()
	n.delta.restore(entries, dropped)
	logged := map[string]string{}
	for _, e := range entries {
		logged[e[1]] = e[2]
	}
	want := map[string]string{}
	for _, key := range keys {
		if want[key], _ = do(t, r, "GET", key); logged[key] != want[key] {
			t.Fatalf("%s: the primary serves %q, the delta log ends with %q (%d entries, %d dropped)", key, want[key], logged[key], len(entries), dropped)
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

// TestFailedApplyThenKillServesEveryWrite: a ship to a warm standby whose
// apply fails leaves the standby cold and puts back only the window since the
// previous fork; the primary then dies before the next ship. Promotion
// rebuilds the standby from the newest checkpoint in NVM and replays the
// window, so that checkpoint must hold the writes the previous, successful
// ship carried: a primary that checkpointed only for a cold standby would
// lose them. The apply fails at its first frame allocation after the fork
// (found as the node sends its fork reply, on the urpc delay point, which
// never fires).
func TestFailedApplyThenKillServesEveryWrite(t *testing.T) {
	reg := fault.New(1)
	m, r, base := pokedShipCluster(t, reg)
	keys := keysOnNode(t, r, 2, 12)
	set := func(from, to int) {
		t.Helper()
		for _, key := range keys[from:to] {
			if v, _ := do(t, r, "SET", key, "v-"+key); v != "OK" {
				t.Fatalf("SET %s: %q", key, v)
			}
		}
	}
	set(0, 4)
	if rep := pokeShip(t, m, r); rep.Ships != 2 || rep.FullShips != 1 || rep.ShipFailures != 0 {
		t.Fatalf("the warm ship: %+v", rep)
	}
	set(4, 8)
	var forked, failed atomic.Bool
	warm := r.forks.Current(2).Gen()
	reg.Enable(fault.URPCDelay, func(uint64, *rand.Rand) bool {
		if v := r.forks.Current(2); v != nil && v.Gen() > warm {
			forked.Store(true)
		}
		return false
	})
	reg.Enable(fault.MemAlloc, func(uint64, *rand.Rand) bool { return forked.Load() && failed.CompareAndSwap(false, true) })
	rep := pokeShip(t, m, r)
	reg.Disable(fault.MemAlloc)
	reg.Disable(fault.URPCDelay)
	n := r.nodeByID(2)
	if buffered, _ := n.delta.pending(); rep.ShipFailures != 1 || n.warm || buffered != 4 {
		t.Fatalf("the ship whose apply failed: %+v, standby warm %v, %d writes buffered; want one failure, a cold standby and the 4 writes back", rep, n.warm, buffered)
	}
	set(8, 12)
	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "standby promotion", func() bool { return replSnap(m).Promotions == 1 })
	if rep := replSnap(m); rep.LostUpdates != 0 || rep.DeltaReplayed != 8 {
		t.Fatalf("after the promotion: %+v; want the 8 buffered writes replayed, none lost", rep)
	}
	for _, key := range keys {
		if got, _ := do(t, r, "GET", key); got != "v-"+key {
			t.Fatalf("GET %s from the promoted standby: %q", key, got)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Fatal(err)
	}
}
