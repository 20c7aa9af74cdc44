package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"spacejmp/internal/redis"
)

// waitForFork blocks until node's published frozen view holds every write
// the caller has had acknowledged: a view whose generation is newer than
// the one current now was forked after those acknowledgements. The boot
// ship's empty view, or a ship that raced the writes, is not enough. The
// poke asks the monitor for a ship the same way a ShipEvery trigger does,
// so the wait does not depend on a trigger that may already have fired.
func waitForFork(t *testing.T, r *Router, node int) {
	t.Helper()
	var after uint64
	if v := r.forks.Current(node); v != nil {
		after = v.Gen()
	}
	select {
	case r.shipCh <- node:
	default: // channel full: ships for this node are already queued
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v := r.forks.Current(node); v != nil && v.Gen() > after {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no frozen view newer than generation %d published for node %d", after, node)
}

// TestFollowerReadsServeFromFork drives the whole follower-read path over
// the wire: a READONLY connection's GET and MGET against a replicated
// remote node are answered from the frozen fork left behind by checkpoint
// shipping, READWRITE flips the same connection back to the primary, and
// the served reads are attributed to the follower counter.
func TestFollowerReadsServeFromFork(t *testing.T) {
	m, r, srv := startCluster(t, Config{
		Nodes: 3, Workers: 1, Locals: 2, SegSize: 1 << 20,
		Replication: ReplicationConfig{
			Enabled: true, ShipEvery: 2,
			FollowerReads: true, StaleBound: time.Minute,
		},
	}, nil)
	defer srv.Shutdown()
	obs := m.Observer()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	// Two keys on the replicated remote node; enough writes to trip the
	// ShipEvery=2 trigger and get a fork published.
	var keys [2]string
	keys[0] = keyOnNode(t, r, 2)
	for i := 0; ; i++ {
		k := fmt.Sprintf("fkey-%d", i)
		if r.Owner(r.Slot(k)) == 2 && k != keys[0] {
			keys[1] = k
			break
		}
	}
	for i, k := range keys {
		want := fmt.Sprintf("fork-v%d", i)
		if v, err := send(nc, br, "SET", k, want); err != nil || string(v) != "OK" {
			t.Fatalf("SET %s: %q %v", k, v, err)
		}
	}
	waitForFork(t, r, 2)

	if v, err := send(nc, br, "READONLY"); err != nil || string(v) != "OK" {
		t.Fatalf("READONLY: %q %v", v, err)
	}
	for i, k := range keys {
		v, err := send(nc, br, "GET", k)
		if err != nil || string(v) != fmt.Sprintf("fork-v%d", i) {
			t.Fatalf("follower GET %s: %q %v", k, v, err)
		}
	}
	served := obs.Snapshot().Dense().Cluster.Fork.FollowerReads
	if served == 0 {
		t.Fatal("no reads attributed to the frozen view")
	}

	// MGET mixing both fork-served keys with a primary-served local key.
	local := keyOnNode(t, r, 0)
	if v, err := send(nc, br, "SET", local, "local-v"); err != nil || string(v) != "OK" {
		t.Fatalf("SET %s: %q %v", local, v, err)
	}
	if _, err := nc.Write(redis.EncodeCommand("MGET", keys[0], local, keys[1])); err != nil {
		t.Fatal(err)
	}
	vals, nils, err := redis.ReadArrayReply(br)
	if err != nil {
		t.Fatalf("follower MGET: %v", err)
	}
	want := []string{"fork-v0", "local-v", "fork-v1"}
	if len(vals) != len(want) {
		t.Fatalf("follower MGET returned %d values, want %d", len(vals), len(want))
	}
	for i, v := range vals {
		if nils[i] || string(v) != want[i] {
			t.Fatalf("follower MGET[%d] = %q (nil=%v), want %q", i, v, nils[i], want[i])
		}
	}
	if got := obs.Snapshot().Dense().Cluster.Fork.FollowerReads; got <= served {
		t.Fatalf("MGET not attributed to the frozen view: %d -> %d", served, got)
	}

	// A write on the frozen-view node after the fork must not be visible
	// through the view (the fork is a point-in-time image), but READWRITE
	// must route the same connection back to the fresh primary.
	if v, err := send(nc, br, "SET", keys[0], "fresh-v"); err != nil || string(v) != "OK" {
		t.Fatalf("post-fork SET: %q %v", v, err)
	}
	// The SET itself may have tripped another ship; pin the comparison to
	// whatever the view serves vs what the primary serves.
	followerVal, err := send(nc, br, "GET", keys[0])
	if err != nil {
		t.Fatalf("follower GET after write: %v", err)
	}
	if v, err := send(nc, br, "READWRITE"); err != nil || string(v) != "OK" {
		t.Fatalf("READWRITE: %q %v", v, err)
	}
	primaryVal, err := send(nc, br, "GET", keys[0])
	if err != nil || string(primaryVal) != "fresh-v" {
		t.Fatalf("primary GET after READWRITE: %q %v", primaryVal, err)
	}
	_ = followerVal // either generation is legal from the view; the primary must be fresh
}

// TestFollowerReadStaleBound pins the bound: with a nanosecond budget every
// published view is already too old, so a READONLY GET must answer the
// typed -STALE refusal (never silently serve), be counted, and leave the
// primary path untouched for READWRITE connections.
func TestFollowerReadStaleBound(t *testing.T) {
	m, r, srv := startCluster(t, Config{
		Nodes: 3, Workers: 1, Locals: 2, SegSize: 1 << 20,
		Replication: ReplicationConfig{
			Enabled: true, ShipEvery: 2,
			FollowerReads: true, StaleBound: time.Nanosecond,
		},
	}, nil)
	defer srv.Shutdown()
	obs := m.Observer()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	key := keyOnNode(t, r, 2)
	for i := 0; i < 3; i++ {
		if v, err := send(nc, br, "SET", key, "bounded"); err != nil || string(v) != "OK" {
			t.Fatalf("SET: %q %v", v, err)
		}
	}
	waitForFork(t, r, 2)

	if v, err := send(nc, br, "READONLY"); err != nil || string(v) != "OK" {
		t.Fatalf("READONLY: %q %v", v, err)
	}
	_, err = send(nc, br, "GET", key)
	if !errors.Is(err, redis.ErrStale) {
		t.Fatalf("GET past the bound: err=%v, want -STALE", err)
	}
	if got := obs.Snapshot().Dense().Cluster.Fork.StaleRejected; got == 0 {
		t.Fatal("stale refusal not counted")
	}
	if got := obs.Snapshot().Dense().Cluster.Fork.FollowerReads; got != 0 {
		t.Fatalf("%d reads served from a view that was past the bound", got)
	}

	// The same connection recovers by opting back out.
	if v, err := send(nc, br, "READWRITE"); err != nil || string(v) != "OK" {
		t.Fatalf("READWRITE: %q %v", v, err)
	}
	if v, err := send(nc, br, "GET", key); err != nil || string(v) != "bounded" {
		t.Fatalf("primary GET: %q %v", v, err)
	}
}

// TestArityRefusedBeforeRouting pins the bug the command table fixed: the
// router used to check only "at least one key", so a READONLY connection's
// malformed GET was served from the frozen view while the same bytes on a
// READWRITE connection were refused, and a malformed write to a remote node
// paid a urpc round trip to be refused there. Arity is now refused once, in
// the connection reader, identically on both kinds of connection and
// without touching a node.
func TestArityRefusedBeforeRouting(t *testing.T) {
	m, r, srv := startCluster(t, Config{
		Nodes: 3, Workers: 1, Locals: 2, SegSize: 1 << 20,
		Replication: ReplicationConfig{
			Enabled: true, ShipEvery: 2,
			FollowerReads: true, StaleBound: time.Minute,
		},
	}, nil)
	defer srv.Shutdown()
	obs := m.Observer()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	key := keyOnNode(t, r, 2)
	if v, err := send(nc, br, "SET", key, "v"); err != nil || string(v) != "OK" {
		t.Fatalf("SET: %q %v", v, err)
	}
	waitForFork(t, r, 2)

	wrongArity := func(args ...string) {
		t.Helper()
		_, err := send(nc, br, args...)
		var re redis.ReplyError
		if !errors.As(err, &re) || !strings.Contains(string(re), "wrong number of arguments") {
			t.Errorf("%q: got %v, want the wrong-arity reply", args, err)
		}
	}
	remote, follower := obs.Snapshot().Dense().Cluster.Remote, obs.Snapshot().Dense().Cluster.Fork.FollowerReads
	for _, mode := range []string{"READONLY", "READWRITE"} {
		if v, err := send(nc, br, mode); err != nil || string(v) != "OK" {
			t.Fatalf("%s: %q %v", mode, v, err)
		}
		wrongArity("GET", key, "extra")
		wrongArity("MGET")
		wrongArity("SET", key)
		wrongArity("DEL", key, "extra")
	}
	if got := obs.Snapshot().Dense().Cluster.Fork.FollowerReads; got != follower {
		t.Errorf("a malformed read was served from the frozen view (%d follower reads)", got-follower)
	}
	if got := obs.Snapshot().Dense().Cluster.Remote; got != remote {
		t.Errorf("a malformed command paid %d urpc round trips to be refused", got-remote)
	}

	// The connection-inline commands are table rows too.
	wrongArity("DEADLINE")
	wrongArity("READONLY", "x")
}
