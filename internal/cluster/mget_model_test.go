package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"spacejmp/internal/core"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/overload"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/stats"
)

// The reference model of a multi-key read: the router's MGET fan-out with the
// mgetOn and readFrozen under it as they stood before a key group became a
// command of its own — a second switch on the target with its own reply
// decoding, values copied out and encoded again — and long before a group
// became a part riding its node's run. Kept verbatim (redis.DecodeArrayReply
// went with its last caller; ReadArrayReply over the same bytes is the same
// parser) so the differential below can hold the batch path to it.

func refMGet(r *Router, w *worker, cmd *redis.Command, keys []string, readonly bool) []byte {
	groups := make(map[int][]int, len(r.nodes)) // node id → indices into keys
	for i, k := range keys {
		nid := r.Owner(r.Slot(k))
		groups[nid] = append(groups[nid], i)
	}
	vals := make([][]byte, len(keys))
	for nid := 0; nid < len(r.nodes); nid++ {
		idxs := groups[nid]
		if len(idxs) == 0 {
			continue
		}
		argv := make([]string, 1+len(idxs))
		argv[0] = cmd.Name
		for j, i := range idxs {
			argv[1+j] = keys[i]
		}
		if now := w.th.Core.Cycles(); w.bud.Exhausted(now) {
			r.ctr.Overload.DeadlineExpired.Add(1)
			return redis.EncodeDeadline(fmt.Sprintf(
				"budget exhausted after %d cycles mid-MGET, retry", w.bud.Spent(now)))
		}
		got, errReply := refMGetOn(r, w, r.nodes[nid], cmd, argv, readonly)
		if errReply != nil {
			return errReply
		}
		for j, i := range idxs {
			vals[i] = got[j]
		}
	}
	return redis.EncodeArray(vals)
}

func refMGetOn(r *Router, w *worker, n *node, cmd *redis.Command, argv []string, readonly bool) (got [][]byte, errReply []byte) {
	keys := argv[1:]
	t := r.resolve(w, n, cmd, readonly)
	switch {
	case t.refusal != nil:
		return nil, t.refusal
	case t.frozen != nil:
		if got := refReadFrozen(r, w, t, keys); got != nil {
			return got, nil
		}
		return refMGetOn(r, w, n, cmd, argv, false)
	case t.client != nil:
		before := w.th.Core.Cycles()
		got, err := t.client.MGet(keys)
		refLocal(r, n, w.th.Core.Cycles()-before)
		if err != nil {
			return nil, redis.EncodeError(err.Error())
		}
		return got, nil
	}
	resp, errReply := refCallNode(r, w, n, t.ep, redis.EncodeCommand(argv...))
	if errReply != nil {
		return nil, errReply
	}
	got, _, err := redis.ReadArrayReply(bufio.NewReader(bytes.NewReader(resp)))
	if err != nil {
		var re redis.ReplyError
		if errors.As(err, &re) {
			return nil, []byte("-" + string(re) + "\r\n") // relay the shard's refusal
		}
		return nil, redis.EncodeError("shard protocol error: " + err.Error())
	}
	if len(got) != len(keys) {
		return nil, redis.EncodeError("shard protocol error: short MGET reply")
	}
	return got, nil
}

func refReadFrozen(r *Router, w *worker, t target, keys []string) [][]byte {
	if err := w.th.VASSwitch(t.frozen.h); err != nil {
		return nil
	}
	got := make([][]byte, len(keys))
	var err error
	for i, k := range keys {
		var v []byte
		var ok bool
		if v, ok, err = t.frozen.store.Get([]byte(k)); err != nil {
			break
		}
		if ok {
			got[i] = v
		}
	}
	if serr := w.th.VASSwitch(core.PrimaryHandle); err != nil || serr != nil {
		return nil
	}
	r.ctr.Fork.FollowerReads.Add(1)
	if t.degraded {
		r.ctr.Overload.DegradedReads.Add(1)
	}
	return got
}

// mgetRig is a router with no monitor and no traffic, driven on its one
// worker from the test's goroutine, holding one node of every kind a key
// group can land on: 0 co-resident, 1 a remote primary, 2 a promoted standby
// (the VAS path into another store), 3 a remote primary behind a frozen view
// that is older than the primary. Two rigs built by the same calls are the
// same machine to the cycle, which is what lets the model run on one and the
// router on the other.
type mgetRig struct {
	r   *Router
	w   *worker
	obs *stats.Sink
}

const (
	rigLocal = iota
	rigRemote
	rigPromoted
	rigFrozen
	rigNodes
)

// rigKeys returns, per node, the keys the rigs hold there (4 each) and one
// key that hashes there and is never set.
func rigKeys(r *Router) (present [rigNodes][]string, absent [rigNodes]string) {
	for i := 0; ; i++ {
		k := fmt.Sprintf("k%d\r\n\x00", i) // keys are binary-safe too
		nid := r.Owner(r.Slot(k))
		switch {
		case len(present[nid]) < 4:
			present[nid] = append(present[nid], k)
		case absent[nid] == "":
			absent[nid] = k
		}
		done := true
		for nid := range present {
			done = done && len(present[nid]) == 4 && absent[nid] != ""
		}
		if done {
			return present, absent
		}
	}
}

func rigValue(key string, version int) string {
	return fmt.Sprintf("v%d\r\nof %q\x00%s", version, key, bytes.Repeat([]byte{'x'}, version*37%200))
}

func newMGetRig(t *testing.T) *mgetRig {
	t.Helper()
	hwCfg := hw.SmallTest()
	hwCfg.CoresPerSocket = 4
	hwCfg.Mem.NVMSuperblock = 1 << 20
	m := hw.NewMachine(hwCfg)
	sys := kernel.New(m)
	sys.EnableStats(64)
	r, err := New(sys, Config{
		Nodes: 1, Workers: 1, Mode: ModeVAS, SegSize: 1 << 20,
		Replication: ReplicationConfig{Enabled: true, FollowerReads: true, StaleBound: time.Hour},
		Overload:    OverloadConfig{Breakers: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	})
	for i := 1; i < rigNodes; i++ {
		if _, err := r.AddNode(); err != nil {
			t.Fatal(err)
		}
	}
	// Spread the slots round-robin, without the engine: the rig serves no
	// traffic and every store is empty.
	table := r.Table().clone()
	for s := range table.Owners {
		table.Owners[s] = s % rigNodes
	}
	r.installTable(table)

	// Node 2's standby takes over before any data exists, so the writes
	// below reach it the way writes reach a promoted node.
	proc, th, err := r.claimThread()
	if err != nil {
		t.Fatal(err)
	}
	c, err := redis.NewClientNamed(th, r.cfg.SegSize, r.nodes[rigPromoted].standby)
	if err == nil {
		err = c.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	proc.Exit()
	r.nodes[rigPromoted].promoted.Store(true)

	rig := &mgetRig{r: r, w: r.workers[0], obs: m.Observer()}
	present, _ := rigKeys(r)
	for _, keys := range present {
		for _, k := range keys {
			rig.set(t, k, rigValue(k, 1))
		}
	}
	// Freeze node 3 as it is now, then move its primary on: one key
	// rewritten, one deleted. A follower read sees neither change.
	n := r.nodes[rigFrozen]
	n.mu.Lock()
	resp := n.handler(forkWire)
	n.mu.Unlock()
	if _, err := parseForkReply(resp); err != nil {
		t.Fatalf("fork: %v", err)
	}
	rig.set(t, present[rigFrozen][0], rigValue(present[rigFrozen][0], 2))
	rig.exec(t, "DEL", present[rigFrozen][1])
	return rig
}

// exec runs one single-key command through the router's own path, as a
// batch of one.
func (g *mgetRig) exec(t *testing.T, args ...string) []byte {
	t.Helper()
	req := request(false, 0, args...)
	g.r.execBatch(g.w, server.NewBatch([]*server.Request{req}))
	resp := req.Reply()
	if len(resp) == 0 || resp[0] == '-' {
		t.Fatalf("%q: %q", args, resp)
	}
	return resp
}

func (g *mgetRig) set(t *testing.T, key, val string) { g.exec(t, "SET", key, val) }

// counters are the four the two serving paths and the frozen read own.
func (g *mgetRig) counters() [4]uint64 {
	c := g.obs.Snapshot().Dense().Cluster
	return [4]uint64{c.Local, c.Remote, c.Fork.FollowerReads, c.Overload.DegradedReads}
}

// TestMGetMatchesModel holds the batch path's MGET to the model: the same
// commands on two identical rigs, one answered by refExec (whose MGET is
// refMGet) and one by Router.execBatch as a batch of one, must give byte-equal
// replies, leave the worker's core on the same cycle and move the same
// counters — after every command.
func TestMGetMatchesModel(t *testing.T) {
	model, router := newMGetRig(t), newMGetRig(t)
	present, absent := rigKeys(router.r)
	var pool []string
	for nid := range present {
		pool = append(pool, present[nid]...)
		pool = append(pool, absent[nid])
	}

	step := 0
	check := func(what string, keys []string, readonly bool, deadline uint64) []byte {
		t.Helper()
		step++
		argv := append([]string{"MGET"}, keys...)
		want := refExec(model.r, model.w, request(readonly, deadline, argv...))
		req := request(readonly, deadline, argv...)
		router.r.execBatch(router.w, server.NewBatch([]*server.Request{req}))
		got := req.Reply()
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d (%s) MGET %q readonly=%v:\n got  %q\n want %q", step, what, keys, readonly, got, want)
		}
		if g, w := router.w.th.Core.Cycles(), model.w.th.Core.Cycles(); g != w {
			t.Fatalf("step %d (%s) MGET %q readonly=%v: worker core at cycle %d, model at %d", step, what, keys, readonly, g, w)
		}
		if g, w := router.counters(), model.counters(); g != w {
			t.Fatalf("step %d (%s) MGET %q readonly=%v: local/remote/follower/degraded = %v, model %v", step, what, keys, readonly, g, w)
		}
		return got
	}
	both := func(fn func(g *mgetRig)) { fn(model); fn(router) }

	if g, w := router.w.th.Core.Cycles(), model.w.th.Core.Cycles(); g != w {
		t.Fatalf("the rigs differ before the first command: cycle %d vs %d", g, w)
	}

	// The generator: key sets of 1–10 drawn with repeats from every node's
	// present and absent keys, READONLY on and off, a write now and then so
	// the stores (and what the frozen view lacks) keep moving.
	rng := rand.New(rand.NewSource(19))
	version := 2
	followerBefore := router.counters()[2]
	for i := 0; i < 300; i++ {
		if rng.Intn(5) == 0 {
			k := pool[rng.Intn(len(pool))]
			if k == absent[router.r.Owner(router.r.Slot(k))] {
				continue // absent keys stay absent
			}
			version++
			both(func(g *mgetRig) { g.set(t, k, rigValue(k, version)) })
		}
		keys := make([]string, 1+rng.Intn(10))
		for j := range keys {
			keys[j] = pool[rng.Intn(len(pool))]
		}
		check("generated", keys, rng.Intn(2) == 0, 0)
	}
	if router.counters()[2] == followerBefore {
		t.Error("the generator never read the frozen view")
	}

	// Every kind of node in one command, both ways.
	var all []string
	for nid := range present {
		all = append(all, present[nid][0], absent[nid], present[nid][1])
	}
	check("all nodes", all, false, 0)
	frozenReply := check("all nodes, READONLY", all, true, 0)
	if bytes.Equal(frozenReply, check("all nodes", all, false, 0)) {
		t.Error("the frozen view answered as the primary does: the rig's view is not older than its primary")
	}

	// A fenced group: its -SHARDTIMEOUT is the whole reply, whatever the
	// groups before it read.
	both(func(g *mgetRig) { g.r.nodes[rigRemote].state.Store(int32(StateFailed)) })
	if resp := check("fenced group", all, false, 0); !bytes.HasPrefix(resp, []byte("-SHARDTIMEOUT")) {
		t.Errorf("fenced group: reply %q, want the group's -SHARDTIMEOUT", resp)
	}
	both(func(g *mgetRig) { g.r.nodes[rigRemote].state.Store(int32(StateHealthy)) })

	// A degraded read: the breaker not closed sends READONLY reads to the
	// view and counts them twice.
	both(func(g *mgetRig) {
		b := overload.NewBreaker(overload.BreakerConfig{Threshold: 1, Cooldown: time.Hour}, nil)
		b.Failure()
		g.r.nodes[rigFrozen].breaker = b
	})
	degradedBefore := router.counters()[3]
	check("degraded read", present[rigFrozen], true, 0)
	if router.counters()[3] != degradedBefore+1 {
		t.Error("a READONLY group behind an open breaker was not counted as a degraded read")
	}
	both(func(g *mgetRig) { g.r.nodes[rigFrozen].breaker = nil })

	// A view that turns unreadable between resolve and the read: the group
	// falls back to the primary, and the command answers as if not READONLY.
	primaryReply := check("all nodes", all, false, 0)
	var handles [2]core.Handle
	for i, g := range []*mgetRig{model, router} {
		fr := g.w.frozen[rigFrozen]
		if fr == nil {
			t.Fatal("no cached frozen reader to break")
		}
		handles[i], fr.h = fr.h, 1<<20
	}
	if resp := check("unreadable view", all, true, 0); !bytes.Equal(resp, primaryReply) {
		t.Errorf("unreadable view: reply %q, want the primary's %q", resp, primaryReply)
	}
	for i, g := range []*mgetRig{model, router} {
		g.w.frozen[rigFrozen].h = handles[i]
	}
	check("view readable again", all, true, 0)

	// Budget exhaustion between groups: a deadline one cycle above the way in
	// lets the first group go and stops the second.
	size := 0
	for _, k := range append([]string{"MGET"}, all...) {
		size += len(k)
	}
	if resp := check("budget runs out mid-MGET", all, false, server.EdgeCycles(size)+1); !bytes.HasPrefix(resp, []byte("-DEADLINE budget exhausted after")) {
		t.Errorf("exhausted budget: reply %q, want -DEADLINE mid-MGET", resp)
	}
	check("ample budget", all, false, 1<<40)
}
