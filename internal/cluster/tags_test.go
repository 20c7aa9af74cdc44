package cluster

import (
	"fmt"
	"testing"
	"time"

	"spacejmp/internal/arch"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
)

// TestStackRunsTagged: every VAS the serving path switches between is
// tagged — the worker's primary and the store's read VAS here — so once the
// keys are warm, GETs on a co-resident node walk no page table and flush no
// TLB. A tag dropped anywhere on the path flushes at its switch and shows as
// flushes and walks.
func TestStackRunsTagged(t *testing.T) {
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	r, err := New(sys, Config{Nodes: 2, Workers: 1, Mode: ModeVAS})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}()
	keys := keysOnNode(t, r, 0, 8)
	for _, k := range keys {
		if resp := submitWait(r, []string{"SET", k, "v"}); string(resp) != "+OK\r\n" {
			t.Fatalf("SET %s: %q", k, resp)
		}
	}
	gets := func() {
		for _, k := range keys {
			if resp := submitWait(r, []string{"GET", k}); string(resp) != "$1\r\nv\r\n" {
				t.Fatalf("GET %s: %q", k, resp)
			}
		}
	}
	gets()
	before := sys.Stats()
	for range 4 {
		gets()
	}
	after := sys.Stats()
	if walks, flushes := after.PT.Walks-before.PT.Walks, after.TLB.Flushes-before.TLB.Flushes; walks != 0 || flushes != 0 {
		t.Fatalf("%d warm GETs: %d page walks and %d TLB flushes, want none", 4*len(keys), walks, flushes)
	}
	if after.Switches == before.Switches {
		t.Fatal("the GETs switched no VAS: the test measures nothing")
	}
}

// TestStackNeverRunsOutOfTags: a fork view's tag goes back to the pool when
// the view is released. A replicated cluster on the small machine shipping
// after every write forks 5 000 views — more than there are tags — with
// every fork succeeding and the tags in use staying near what boot took.
func TestStackNeverRunsOutOfTags(t *testing.T) {
	hwCfg := hw.SmallTest()
	hwCfg.Mem.NVMSuperblock = 1 << 20
	m := hw.NewMachine(hwCfg)
	sys := kernel.New(m)
	cfg := replicatedConfig()
	cfg.Replication.ShipEvery = 1
	cfg.Replication.ShipInterval = time.Millisecond
	r, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, "boot ship", func() bool { return replSnap(m).Ships == 1 })
	forks := func() uint64 { return m.Observer().Snapshot().Dense().Cluster.Fork.Forks }
	boot := sys.TagsInUse()
	keys := keysOnNode(t, r, 2, 64)
	deadline := time.Now().Add(time.Minute)
	for i := 0; forks() < 5000; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("%d forks in a minute", forks())
		}
		if resp := submitWait(r, []string{"SET", keys[i%len(keys)], fmt.Sprint(i)}); string(resp) != "+OK\r\n" {
			t.Fatalf("SET: %q", resp)
		}
		if n := sys.TagsInUse(); n > boot+4 {
			t.Fatalf("after %d forks, %d tags in use; boot took %d", forks(), n, boot)
		}
	}
	// The last SET's ship may supersede and release the view between reading
	// it and looking its VAS up: read again while the view moved on.
	for {
		v := r.forks.Current(2)
		if v == nil {
			t.Fatal("node 2 has no current view")
		}
		vas, err := sys.VASByID(v.VID())
		if err != nil && r.forks.Current(2) != v {
			continue
		}
		if err != nil || vas.Tag() == arch.ASIDFlush {
			t.Fatalf("node 2's view is untagged (%v): the test measures nothing", err)
		}
		break
	}
	if rep := replSnap(m); rep.ShipFailures != 0 {
		t.Fatalf("%d forks, %d ship failures: %+v", forks(), rep.ShipFailures, rep)
	}
}
