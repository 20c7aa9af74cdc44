package cluster

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"spacejmp/internal/redis"
)

// TestSubmittedArgsOwnTheirMemory pins the contract between the connection
// reader and everything behind Backend.Submit: a command's arguments are
// immutable and self-owned. The router keeps them long after the reader has
// moved on — in the node's replication delta and in a live migration's
// delta log — so arguments that aliased the connection's read buffer would
// read back as whatever command came through the buffer later. 10 000
// distinct SETs are pipelined down one connection into a replicated remote
// node whose slot has a migration in flight; every retained entry must
// still say what was sent.
func TestSubmittedArgsOwnTheirMemory(t *testing.T) {
	const n = 10000
	_, r, srv := startCluster(t, Config{
		Nodes: 3, Workers: 2, Mode: ModeAuto, Locals: 2,
		MigrationDeltaLog: 2 * n,
		Replication: ReplicationConfig{
			Enabled: true,
			// Nothing ships during the test: the window must hold it all.
			ShipEvery: 1 << 30, ShipInterval: time.Hour, DeltaLog: 2 * n,
		},
	}, nil)
	defer srv.Shutdown()

	const remote = 2
	slot := 0
	for r.Owner(slot) != remote {
		slot++
	}
	keys := keysInSlot(t, slot, 16)
	mig := &migration{slot: slot, src: remote, dst: 0, delta: deltaLog{bound: 2 * n}}
	r.migs[slot].Store(mig)
	defer r.migs[slot].Store(nil)

	sent := make([][]string, n)
	for i := range sent {
		// Lengths vary so frames meet the read buffer's end at every offset.
		sent[i] = []string{"SET", keys[i%len(keys)], fmt.Sprintf("value-%05d-%s", i, strings.Repeat("x", i%97))}
	}
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	werr := make(chan error, 1)
	go func() {
		bw := bufio.NewWriter(nc)
		for _, args := range sent {
			bw.Write(redis.EncodeCommand(args...))
		}
		werr <- bw.Flush()
	}()
	br := bufio.NewReader(nc)
	for i := range sent {
		if v, _, err := redis.ReadReply(br); err != nil || string(v) != "OK" {
			t.Fatalf("SET %d: %q, %v", i, v, err)
		}
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}

	check := func(what string, got [][]string) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s holds %d entries, want %d", what, len(got), n)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], sent[i]) {
				t.Fatalf("%s entry %d reads %q, sent %q", what, i, got[i], sent[i])
			}
		}
	}
	entries, dropped := r.nodes[remote].delta.take()
	if dropped != 0 {
		t.Fatalf("replication delta dropped %d entries", dropped)
	}
	check("replication delta", entries)
	migrated, overflow := mig.delta.take()
	if overflow != 0 {
		t.Fatal("migration delta log overflowed")
	}
	check("migration delta log", migrated)
}
