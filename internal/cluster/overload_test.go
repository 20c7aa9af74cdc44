package cluster

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"spacejmp/internal/fault"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// TestClusterBreakerTimeoutStorm drives a deterministic timeout storm into
// the remote node (every urpc frame dropped, seeded registry) and walks the
// breaker through its whole life: closed while the first calls burn full
// retry ladders, open once the threshold trips (subsequent writes shed fast
// without touching the wire), half-open after the fault heals and the
// cooldown elapses, closed again when the probe call succeeds.
func TestClusterBreakerTimeoutStorm(t *testing.T) {
	reg := fault.New(1)
	cfg := Config{
		Nodes: 3, Workers: 1, Mode: ModeAuto, Locals: 2,
		Overload: OverloadConfig{
			Breakers: true, BreakerThreshold: 3,
			BreakerCooldown: 50 * time.Millisecond,
		},
	}
	m, r, srv := startCluster(t, cfg, reg)
	defer srv.Shutdown()
	obs := m.Observer()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	kRemote := keyOnNode(t, r, 2)
	reg.Enable(fault.URPCDrop, fault.Always())

	// Threshold failures: each burns a full retry ladder and answers
	// -SHARDTIMEOUT; the breaker counts them but stays closed until the
	// last one trips it.
	var re redis.ReplyError
	for i := 0; i < 3; i++ {
		_, _, err := roundTrip(t, nc, br, "SET", kRemote, "x")
		if !errors.As(err, &re) || !errors.Is(re, redis.ErrShardTimeout) {
			t.Fatalf("storm SET %d: want SHARDTIMEOUT, got %v", i, err)
		}
	}
	if got := obs.Snapshot().Dense().Cluster.Overload.BreakerOpens; got != 1 {
		t.Fatalf("breaker opens after threshold = %d, want 1", got)
	}

	// Open: the next write sheds before the wire — no new retries charged.
	retriesAtTrip := obs.Snapshot().URPCRetries
	_, _, err = roundTrip(t, nc, br, "SET", kRemote, "x")
	if !errors.As(err, &re) || !errors.Is(re, redis.ErrShardTimeout) {
		t.Fatalf("shed SET: want SHARDTIMEOUT, got %v", err)
	}
	if !redis.IsRetryableReply(re) {
		t.Fatalf("shed reply %q not classified retryable", re)
	}
	snap := obs.Snapshot()
	if snap.URPCRetries != retriesAtTrip {
		t.Errorf("shed dispatch burned urpc retries: %d -> %d", retriesAtTrip, snap.URPCRetries)
	}
	if snap.Cluster == nil || snap.Cluster.Overload == nil {
		t.Fatal("no overload snapshot despite breaker activity")
	}
	if snap.Cluster.Overload.Shed == 0 {
		t.Error("no shed dispatches recorded")
	}
	if snap.Cluster.Overload.BreakerOpens != 1 {
		t.Errorf("snapshot breaker opens = %d, want 1", snap.Cluster.Overload.BreakerOpens)
	}
	// The per-node column counts -SHARDTIMEOUT replies, whichever way they
	// came about: exhausted ladders (the total) plus breaker sheds.
	var perNode uint64
	for _, n := range snap.Cluster.Nodes {
		perNode += n.Timeouts
	}
	if want := snap.Cluster.Timeouts + snap.Cluster.Overload.Shed; perNode != want || snap.Cluster.Timeouts != 3 {
		t.Errorf("node timeouts sum to %d, want timeouts %d + shed %d (3 ladders exhausted)",
			perNode, snap.Cluster.Timeouts, snap.Cluster.Overload.Shed)
	}

	// Heal the interconnect and let the cooldown elapse: the next write is
	// admitted as the half-open probe, succeeds, and recloses the breaker.
	reg.Reset()
	time.Sleep(60 * time.Millisecond)
	if v, _, err := roundTrip(t, nc, br, "SET", kRemote, "y"); err != nil || string(v) != "OK" {
		t.Fatalf("probe SET after heal: %q %v", v, err)
	}
	snap = obs.Snapshot()
	if snap.Cluster.Overload.BreakerCloses != 1 {
		t.Errorf("snapshot breaker closes = %d, want 1", snap.Cluster.Overload.BreakerCloses)
	}
	if v, isNil, err := roundTrip(t, nc, br, "GET", kRemote); err != nil || isNil || string(v) != "y" {
		t.Fatalf("GET after reclose: %q %v %v", v, isNil, err)
	}
}

// TestClusterDeadlineBudget pins the deadline-budget contract end to end: a
// default budget smaller than one urpc dispatch makes the router refuse
// every remote hop with a typed retryable -DEADLINE (local keys keep
// serving — their path needs no dispatch reservation), an MGET fanning out
// across local and remote nodes dies at the remote group instead of
// queueing doomed work, and a connection raising its budget with the
// DEADLINE prefix command gets the remote path back.
func TestClusterDeadlineBudget(t *testing.T) {
	cfg := Config{Nodes: 3, Workers: 1, Mode: ModeAuto, Locals: 2}
	m, r, srv := startClusterSrvCfg(t, cfg, nil, server.Config{
		// Less than one urpc dispatch reservation (DefaultTimeoutCycles
		// 1<<14): every remote hop is refused before it starts.
		DeadlineCycles: 8000,
	})
	defer srv.Shutdown()
	obs := m.Observer()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	kLocal, kRemote := keyOnNode(t, r, 0), keyOnNode(t, r, 2)

	// Local keys serve inside the budget's reach.
	if v, _, err := roundTrip(t, nc, br, "SET", kLocal, "l"); err != nil || string(v) != "OK" {
		t.Fatalf("local SET under deadline: %q %v", v, err)
	}

	// A remote hop cannot be afforded: typed, retryable refusal.
	var re redis.ReplyError
	_, _, err = roundTrip(t, nc, br, "SET", kRemote, "x")
	if !errors.As(err, &re) || !errors.Is(re, redis.ErrDeadline) {
		t.Fatalf("remote SET under tiny deadline: want DEADLINE, got %v", err)
	}
	if !redis.IsRetryableReply(re) {
		t.Fatalf("deadline reply %q not classified retryable", re)
	}

	// MGET fan-out spanning both placements dies at the remote group.
	_, _, err = roundTrip(t, nc, br, "MGET", kLocal, kRemote)
	if !errors.As(err, &re) || !errors.Is(re, redis.ErrDeadline) {
		t.Fatalf("spanning MGET under tiny deadline: want DEADLINE, got %v", err)
	}
	snap := obs.Snapshot()
	if snap.Cluster == nil || snap.Cluster.Overload == nil {
		t.Fatal("no overload snapshot despite deadline refusals")
	}
	if got := snap.Cluster.Overload.DeadlineExpired; got < 2 {
		t.Errorf("deadline expirations = %d, want >= 2", got)
	}
	if snap.Cluster.Overload.BudgetRemaining.Count == 0 {
		t.Error("budget-remaining histogram never observed a request")
	}

	// The connection raises its own budget: remote serving resumes.
	if v, _, err := roundTrip(t, nc, br, "DEADLINE", "100"); err != nil || string(v) != "OK" {
		t.Fatalf("DEADLINE 100: %q %v", v, err)
	}
	if v, _, err := roundTrip(t, nc, br, "SET", kRemote, "x"); err != nil || string(v) != "OK" {
		t.Fatalf("remote SET with raised deadline: %q %v", v, err)
	}
	if _, err := nc.Write(redis.EncodeCommand("MGET", kLocal, kRemote)); err != nil {
		t.Fatal(err)
	}
	if vals, _, err := redis.ReadArrayReply(br); err != nil || len(vals) != 2 {
		t.Fatalf("spanning MGET with raised deadline: %v %v", vals, err)
	}

	// The SET refused under the tiny budget must not have been applied:
	// deadline refusal happens before dispatch, not after.
	if v, _, err := roundTrip(t, nc, br, "DEADLINE", "0"); err != nil || string(v) != "OK" {
		t.Fatalf("DEADLINE 0: %q %v", v, err)
	}
	if v, isNil, err := roundTrip(t, nc, br, "GET", kRemote); err != nil || isNil || string(v) != "x" {
		t.Fatalf("GET after deadline dance: %q %v %v", v, isNil, err)
	}
}
