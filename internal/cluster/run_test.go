package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"spacejmp/internal/fault"
	"spacejmp/internal/fork"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
)

// route is one way the migration engine reaches a copy of a key range.
type route struct {
	name string
	n    *node
	t    target
}

// content reads everything the copy holds, in table order, without going
// through target.run: on the client the route already has, or the remote
// node's own.
func (rt route) content(t *testing.T) []redis.KV {
	t.Helper()
	c := rt.t.client
	if c == nil {
		c = rt.n.client
	}
	rt.n.mu.Lock()
	defer rt.n.mu.Unlock()
	pairs, err := c.DumpSlot(0, 1)
	if err != nil {
		t.Fatalf("%s: reading the store: %v", rt.name, err)
	}
	return pairs
}

// TestTargetRunSameOnBothRoutes drives two identically loaded stores — node 0
// co-resident, reached by a client, and node 1 remote, reached by an
// endpoint — through everything the cluster's agents send a copy of a key
// range: replayed SET/DEL windows, CLUSTER.MIGRATE, CLUSTER.IMPORT,
// CLUSTER.CLEANUP. Payloads, refusals and the stores' content afterwards
// must be equal command by command: redis.Run carries the command out on
// both, and the route decides nothing. The refusal texts are the ones the
// node handler answered before the commands moved into Run.
func TestTargetRunSameOnBothRoutes(t *testing.T) {
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	r, err := New(sys, Config{Nodes: 2, Workers: 1, Mode: ModeAuto, Locals: 1, SegSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}()
	r.lifecycleMu.Lock()
	e, err := r.ensureEngine()
	r.lifecycleMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var routes []route
	for _, n := range r.nodes {
		tg, err := e.reach(n)
		if err != nil {
			t.Fatal(err)
		}
		routes = append(routes, route{name: resolveKind(tg), n: n, t: tg})
	}
	if routes[0].name != "client" || routes[1].name != "endpoint" {
		t.Fatalf("routes are %s and %s, want a client and an endpoint", routes[0].name, routes[1].name)
	}

	// run sends one command down both routes and holds them to each other.
	run := func(argv ...string) (payload []byte, err error) {
		t.Helper()
		var errs [2]error
		var payloads [2][]byte
		for i, rt := range routes {
			payloads[i], errs[i] = rt.t.run(rt.n, argv...)
		}
		name := argv[0]
		if !reflect.DeepEqual(payloads[0], payloads[1]) {
			t.Fatalf("%s: payload %q through the client, %q through the endpoint", name, payloads[0], payloads[1])
		}
		if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
			t.Fatalf("%s: error %v through the client, %v through the endpoint", name, errs[0], errs[1])
		}
		for i, err := range errs {
			if err != nil && !errors.As(err, new(redis.ReplyError)) {
				t.Fatalf("%s through the %s: %v is not the reply's ReplyError", name, routes[i].name, err)
			}
		}
		if a, b := routes[0].content(t), routes[1].content(t); !reflect.DeepEqual(a, b) {
			t.Fatalf("after %s: %d pairs behind the client, %d behind the endpoint, or not the same ones", name, len(a), len(b))
		}
		return payloads[0], errs[0]
	}
	must := func(argv ...string) []byte {
		t.Helper()
		payload, err := run(argv...)
		if err != nil {
			t.Fatalf("%q: %v", argv[0], err)
		}
		return payload
	}

	value := func(i int) string { return fmt.Sprintf("v%d\r\n\x00%s", i, strings.Repeat("y", i%50)) }
	for i := 0; i < 64; i++ {
		if got := must("SET", fmt.Sprintf("k%d", i), value(i)); string(got) != "OK" {
			t.Fatalf("SET: %q", got)
		}
	}

	// A replayed window: overwrites, deletes, a delete of nothing.
	window := [][]string{
		{"SET", "k1", "rewritten"}, {"DEL", "k2"}, {"DEL", "never-set"}, {"SET", "new\r\n", "\x00"}, {"DEL", "k1"},
	}
	for _, rt := range routes {
		if applied, err := replay(rt.n, rt.t, window); applied != uint64(len(window)) || err != nil {
			t.Fatalf("replay through the %s: applied %d of %d, %v", rt.name, applied, len(window), err)
		}
	}
	if a, b := routes[0].content(t), routes[1].content(t); !reflect.DeepEqual(a, b) || len(a) != 63 {
		t.Fatalf("after the replayed window: %d pairs behind the client, %d behind the endpoint, want the same 63", len(a), len(b))
	}

	// Dump every slot, import a chunk, clean a slot up.
	dumped := 0
	for slot := 0; slot < NumSlots; slot++ {
		pairs, err := redis.DecodePairs(must(redis.ClusterMigrate, strconv.Itoa(slot), strconv.Itoa(NumSlots)))
		if err != nil {
			t.Fatalf("slot %d dump: %v", slot, err)
		}
		for _, kv := range pairs {
			if r.Slot(string(kv.Key)) != slot {
				t.Fatalf("slot %d dump holds %q of slot %d", slot, kv.Key, r.Slot(string(kv.Key)))
			}
		}
		dumped += len(pairs)
	}
	if dumped != 63 {
		t.Fatalf("the slots' dumps hold %d pairs, want 63", dumped)
	}
	chunk, err := redis.EncodePairs([]redis.KV{
		{Key: []byte("imported-1"), Val: []byte("a\r\nb")}, {Key: []byte("k3"), Val: []byte("replaced")}, {Key: []byte("imported-2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := must(redis.ClusterImport, "7", string(chunk)); string(got) != "3" {
		t.Fatalf("import of 3 pairs answered %q", got)
	}
	slot := r.Slot("k3")
	removed := must(redis.ClusterCleanup, strconv.Itoa(slot), strconv.Itoa(NumSlots))
	if n, _ := strconv.Atoi(string(removed)); n < 1 {
		t.Fatalf("cleanup of k3's slot removed %q keys", removed)
	}
	if again := must(redis.ClusterCleanup, strconv.Itoa(slot), strconv.Itoa(NumSlots)); string(again) != "0" {
		t.Fatalf("second cleanup removed %q keys", again)
	}

	// Refusals, with the node handler's texts.
	for _, tc := range []struct {
		argv []string
		want string
	}{
		{[]string{redis.ClusterMigrate, "x", "256"}, "ERR bad slot: x"},
		{[]string{redis.ClusterMigrate, "5", "3"}, "ERR bad slot range: 5/3"},
		{[]string{redis.ClusterMigrate, "0", "0"}, "ERR bad slot range: 0/0"},
		{[]string{redis.ClusterCleanup, "-1", "256"}, "ERR bad slot range: -1/256"},
		{[]string{redis.ClusterCleanup, "1", "many"}, "ERR bad slot range: 1/many"},
		{[]string{redis.ClusterCleanup, "", "256"}, "ERR bad slot: "},
		{[]string{redis.ClusterImport, "0", "not a gob"}, "ERR import: decode: unexpected EOF"},
		{[]string{redis.ClusterImport, "0", ""}, "ERR import: decode: EOF"},
		{[]string{redis.ClusterMigrate, "0"}, "ERR wrong number of arguments for 'cluster.migrate' command"},
		{[]string{"SET", "k"}, "ERR wrong number of arguments for 'set' command"},
	} {
		if _, err := run(tc.argv...); err == nil || err.Error() != tc.want {
			t.Errorf("%q: refused with %v, want %q", tc.argv, err, tc.want)
		}
	}

	// A full store: fill both until SET is refused, then import into them.
	big := strings.Repeat("z", 3000)
	filled := 0
	for ; ; filled++ {
		if _, err := run("SET", fmt.Sprintf("fill-%d", filled), big); err != nil {
			if err.Error() != "ERR OOM store segment full" {
				t.Fatalf("filling the stores: %v", err)
			}
			break
		}
		if filled > 1000 {
			t.Fatal("a 1 MiB store took 3 MB")
		}
	}
	chunk, err = redis.EncodePairs([]redis.KV{{Key: []byte("one-too-many"), Val: []byte(big)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(redis.ClusterImport, "0", string(chunk)); err == nil ||
		!strings.HasPrefix(err.Error(), "ERR import: set: redis: store segment full: ") {
		t.Errorf("import into a full store: %v, want the store-full refusal", err)
	}

	// replay stops at the first refusal, having applied the same prefix on
	// both: the delete makes room for one big value, not for two.
	window = [][]string{
		{"DEL", "fill-0"}, {"SET", "fits", big}, {"SET", "does-not", big}, {"SET", "after-the-hole", "x"},
	}
	var applied [2]uint64
	for i, rt := range routes {
		var err error
		if applied[i], err = replay(rt.n, rt.t, window); err == nil || err.Error() != "ERR OOM store segment full" {
			t.Fatalf("replay into a full store through the %s: applied %d, %v; want the store-full refusal", rt.name, applied[i], err)
		}
	}
	if applied[0] != applied[1] || applied[0] == 0 || applied[0] > 2 {
		t.Fatalf("replay applied %d entries through the client and %d through the endpoint, want the same 1 or 2", applied[0], applied[1])
	}
	a, b := routes[0].content(t), routes[1].content(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("after the refused window the two stores differ")
	}
	for _, kv := range a {
		if string(kv.Key) == "after-the-hole" {
			t.Fatal("replay went on past the entry the store refused")
		}
	}
}

// TestFailedApplyLeavesNothingBehind fails one frame allocation at a time
// under an applyImage — inside the segment's population, at the page-table
// root of the temporary attachment, in the page tables the stores fault in —
// and holds the monitor to what a transient fault may cost: that one apply.
// The next image applies, and tearing the standby down returns every frame.
// Then the same under a delta patch of the standing standby: a torn patch is
// never called warm, and the ship after it is a full rebuild that succeeds.
// (A failed apply used to leave the segment behind with warm still false, so
// no later apply, and no promotion from the superblock, ever got past
// "name already exists"; nothing freed its frames.)
func TestFailedApplyLeavesNothingBehind(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(1)
	m.SetFaults(reg)
	sys := kernel.New(m)
	proc, th, err := (&Router{sys: sys}).claimThread()
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Exit()
	names := redis.ShardNames(0)
	c, err := redis.NewClientNamed(th, 1<<20, names)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := c.Set(fmt.Sprintf("key:%06d", i), []byte(strings.Repeat("v", 1024))); err != nil {
			t.Fatal(err)
		}
	}
	img, err := sys.SegmentImageOf(names.Seg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := m.PM.AllocatedBytes()

	mon, n := &monitor{proc: proc, th: th}, &node{standby: redis.StandbyNames(0)}
	failed := 0
	for nth := uint64(1); ; nth++ {
		reg.Enable(fault.MemAlloc, fault.OnNth(nth))
		err := mon.applyImage(n, img)
		fired := reg.Fired(fault.MemAlloc) > 0
		reg.Disable(fault.MemAlloc)
		if !fired {
			if err != nil {
				t.Fatalf("apply with the fault armed past its last allocation: %v", err)
			}
			break // nth is past the apply's last allocation
		}
		if err == nil {
			continue // an allocation the apply survives losing
		}
		failed++
		if n.warm {
			t.Fatalf("allocation %d failed (%v) and the standby is still called warm", nth, err)
		}
		if next := mon.applyImage(n, img); next != nil {
			t.Fatalf("allocation %d failed (%v); the next, fault-free apply: %v", nth, err, next)
		}
		if !n.warm {
			t.Fatalf("after allocation %d failed, a clean apply left the standby cold", nth)
		}
	}
	if failed < 3 {
		t.Fatalf("only %d allocations failed an apply; the sweep did not reach the segment, the attachment and the page tables", failed)
	}
	if err := redis.DestroyNamed(th, n.standby); err != nil {
		t.Fatal(err)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Fatalf("after the standby's teardown: %v", err)
	}

	// The same sweep under a patch of the standing standby: the attachment's
	// page-table root, the tables the stores fault in. A patch that fails half
	// way leaves the standby cold and holding no generation, so the same delta
	// is refused from then on, the extractor hands the next ship every page,
	// and that full rebuild succeeds.
	forks := fork.New(sys, nil)
	v1, err := forks.Fork(th, 0, names.Seg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := forks.Image(v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	holdV1 := func() {
		t.Helper()
		if err := mon.applyImage(n, full); err != nil {
			t.Fatal(err)
		}
		n.held = v1.Gen()
	}
	holdV1()
	for i := 0; i < 200; i += 10 {
		if err := c.Set(fmt.Sprintf("key:%06d", i), []byte(strings.Repeat("w", 600))); err != nil {
			t.Fatal(err)
		}
	}
	v2, err := forks.Fork(th, 0, names.Seg)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := forks.Image(v2, n.held)
	if err != nil || delta.Base != v1.Gen() || len(delta.Index) == 0 || len(delta.Index) >= len(full.Index)/2 {
		t.Fatalf("image of the second generation: %v, over generation %d, %d pages of %d", err, delta.Base, len(delta.Index), len(full.Index))
	}
	whole, err := forks.Image(v2, 0)
	if err != nil {
		t.Fatal(err)
	}
	standbyIsV2 := func(when string) {
		t.Helper()
		got, err := sys.SegmentImageOf(n.standby.Seg, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, whole.Data) {
			t.Fatalf("%s: the standby's segment differs from the view's", when)
		}
	}
	failed = 0
	for nth := uint64(1); ; nth++ {
		reg.Enable(fault.MemAlloc, fault.OnNth(nth))
		err := mon.applyImage(n, delta)
		fired := reg.Fired(fault.MemAlloc) > 0
		reg.Disable(fault.MemAlloc)
		if !fired {
			if err != nil {
				t.Fatalf("patch with the fault armed past its last allocation: %v", err)
			}
			standbyIsV2("after the fault-free patch")
			break
		}
		if err != nil {
			failed++
			if n.warm || n.held != 0 {
				t.Fatalf("allocation %d failed the patch (%v) and the standby is still warm (%v) at generation %d", nth, err, n.warm, n.held)
			}
			if again := mon.applyImage(n, delta); again == nil {
				t.Fatalf("allocation %d failed the patch (%v); the same delta then applied over the torn standby", nth, err)
			}
			next, ierr := forks.Image(v2, n.held)
			if ierr != nil || next.Base != 0 {
				t.Fatalf("image for the cold standby: %v, over generation %d; want a full one", ierr, next.Base)
			}
			if err := mon.applyImage(n, next); err != nil || !n.warm {
				t.Fatalf("allocation %d failed the patch; the full rebuild after it: %v (warm %v)", nth, err, n.warm)
			}
			standbyIsV2(fmt.Sprintf("after allocation %d failed the patch and the rebuild", nth))
		}
		holdV1()
	}
	if failed < 2 {
		t.Fatalf("only %d allocations failed a patch; the sweep did not reach the attachment and the page tables", failed)
	}
	if err := forks.Close(th); err != nil {
		t.Fatal(err)
	}

	// The standby is a working store.
	if err := mon.applyImage(n, img); err != nil {
		t.Fatal(err)
	}
	sc, err := redis.NewClientNamed(th, 1<<20, n.standby)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := sc.Get("key:000199"); err != nil || !ok || len(v) != 1024 {
		t.Fatalf("GET from the applied standby: %d bytes, %v, %v", len(v), ok, err)
	}
	for _, closer := range []func() error{sc.Close, c.Close,
		func() error { return redis.DestroyNamed(th, n.standby) },
		func() error { return redis.DestroyNamed(th, names) }} {
		if err := closer(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMigrationWaitsOutInFlightWrites pins when a migration's record becomes
// visible: not while a command that began before it is still in flight. Such
// a command looked for the record, found none, and will write without
// logging; if the engine published and dumped the slot in that window the
// write would land on the source after the dump and be lost at the flip
// (TestMigrateSlotUnderLoad caught it once in a few hundred runs on a busy
// box: "after flips: GET … want …"). The in-flight command is modelled by
// its hold on the topology read lock.
func TestMigrationWaitsOutInFlightWrites(t *testing.T) {
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	r, err := New(sys, Config{Nodes: 2, Workers: 1, Mode: ModeVAS, SegSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}()
	r.lifecycleMu.Lock()
	_, err = r.ensureEngine() // not at the first migration: it takes the topology lock itself
	r.lifecycleMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	slot := 0
	dst := 1 - r.Owner(slot)
	r.topoMu.RLock()
	done := make(chan error, 1)
	go func() { done <- r.MigrateSlot(slot, dst) }()
	// The one-sided wait is safe: a migrator that has not run yet has not
	// published either.
	time.Sleep(20 * time.Millisecond)
	published := r.migs[slot].Load() != nil
	r.topoMu.RUnlock()
	if published {
		t.Error("the migration was published while a command that began before it still held the topology read lock")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := r.Owner(slot); got != dst {
		t.Fatalf("slot %d owned by node %d after the migration, want %d", slot, got, dst)
	}
}
