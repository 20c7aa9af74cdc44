package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
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
