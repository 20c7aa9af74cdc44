package cluster

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"time"

	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/overload"
	"spacejmp/internal/redis"
	"spacejmp/internal/stats"
)

// resolveKind names which field of a target is set.
func resolveKind(t target) string {
	switch {
	case t.refusal != nil:
		return "refusal"
	case t.frozen != nil:
		return "frozen"
	case t.client != nil:
		return "client"
	case t.ep != nil:
		return "endpoint"
	}
	return "nothing"
}

// resolveOnce is the one call the table makes per row: resolve, and for a
// frozen target the read its consumers follow it with (that read is what
// counts follower_reads and degraded_reads).
func resolveOnce(r *Router, w *worker, n *node, cmd *redis.Command, readonly bool) (kind string, refusal []byte) {
	tg := r.resolve(w, n, cmd, readonly)
	get := []string{"GET", "k"}
	if tg.frozen != nil && !r.readFrozen(w, tg, []redis.Call{{Cmd: redis.Lookup(get), Args: get}}) {
		return "unreadable view", nil
	}
	return resolveKind(tg), tg.refusal
}

// resolveRig is a router with no monitor and no traffic, so the test owns
// every node's state: nodes[0] is co-resident; the rest were added at run
// time and are remote — replicated, each with an (empty) standby store to
// promote, when the rig replicates.
func newResolveRig(t *testing.T, replicate bool, added int) (*Router, *stats.Sink) {
	t.Helper()
	hwCfg := hw.SmallTest()
	hwCfg.Mem.NVMSuperblock = 1 << 20
	m := hw.NewMachine(hwCfg)
	sys := kernel.New(m)
	sys.EnableStats(64)
	// Every node starts co-resident, so New finds nothing to replicate and
	// starts no monitor; AddNode then makes the remote ones.
	r, err := New(sys, Config{
		Nodes: 1, Workers: 1, Mode: ModeVAS, SegSize: 1 << 20,
		Replication: ReplicationConfig{Enabled: replicate},
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
	for i := 0; i < added; i++ {
		if _, err := r.AddNode(); err != nil {
			t.Fatal(err)
		}
	}
	if replicate {
		proc, th, err := r.claimThread()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range r.nodes[1:] {
			c, err := redis.NewClientNamed(th, r.cfg.SegSize, n.standby)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
		proc.Exit()
	}
	return r, m.Observer()
}

// breakerIn builds a breaker in the named position: "closed", "open"
// (cooling down: Allow refuses), "cooled" (open, cooldown over: the next
// Allow is admitted as the half-open probe), "probing" (half-open, the
// probe slot taken: Allow refuses). "" is no breaker.
func breakerIn(t *testing.T, pos string) *overload.Breaker {
	t.Helper()
	cfg := overload.BreakerConfig{Threshold: 1, Cooldown: time.Hour}
	if pos == "cooled" || pos == "probing" {
		cfg.Cooldown = time.Nanosecond
	}
	switch pos {
	case "":
		return nil
	case "closed":
		return overload.NewBreaker(cfg, nil)
	}
	b := overload.NewBreaker(cfg, nil)
	b.Failure()
	if pos != "open" {
		time.Sleep(time.Millisecond) // the cooldown is wall-clock
	}
	if pos == "probing" {
		if ok, probe := b.Allow(); !ok || !probe {
			t.Fatalf("breaker setup: Allow after cooldown = %v, %v", ok, probe)
		}
	}
	return b
}

// TestResolveTable walks Router.resolve over the states a node, its
// breaker, its frozen view, the connection and the request's budget can be
// in. Each row states the kind of target, the refusal's prefix, and which
// of the counters moved (by exactly one; every other stays put). The
// expectations were taken from the five functions resolve replaced
// (frozenRead → degradedRead → followerView → path → standbyClient) before
// they were deleted; the one deliberate difference is the removed row.
func TestResolveTable(t *testing.T) {
	get, set := redis.Lookup([]string{"GET", "k"}), redis.Lookup([]string{"SET", "k", "v"})
	type row struct {
		name string
		// Where and what: node is "local", "remote" (unreplicated),
		// "unforked" (replicated, never forked) or "replicated" (forked as
		// view says); write picks SET over GET.
		node     string
		state    NodeState
		crashed  bool
		promoted bool
		removed  bool
		breaker  string
		readonly bool
		write    bool
		follower bool   // Replication.FollowerReads
		view     string // "" (whatever is there), "valid", "old" (past StaleBound), "invalidated"
		budget   string // "", "ample", "short" (under one timeout window)
		// Expectations.
		kind    string
		prefix  string
		moved   []string
		suspect bool // suspectCh was poked
		// probeLeft: after the row, the breaker's next Allow is still the
		// half-open probe — resolve did not consume it.
		probeLeft bool
	}
	rows := []row{
		// The hot paths.
		{name: "local", node: "local", kind: "client"},
		{name: "local write", node: "local", write: true, kind: "client"},
		{name: "local readonly+follower: never forked, the live store", node: "local", readonly: true, follower: true, kind: "client"},
		{name: "remote", node: "remote", breaker: "closed", kind: "endpoint"},
		{name: "remote no breaker", node: "remote", breaker: "", kind: "endpoint"},
		{name: "remote readonly+follower: never forked", node: "remote", breaker: "closed", readonly: true, follower: true, kind: "endpoint"},
		{name: "replicated", node: "replicated", breaker: "closed", view: "valid", kind: "endpoint"},
		{name: "replicated suspect", node: "replicated", state: StateSuspect, breaker: "closed", kind: "endpoint"},

		// The monitor's verdict, then the crash fence.
		{name: "failed", node: "replicated", state: StateFailed, kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"timeouts"}},
		{name: "promoting", node: "replicated", state: StatePromoting, crashed: true, kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"timeouts"}},
		{name: "degraded", node: "replicated", state: StateDegraded, crashed: true, kind: "refusal", prefix: "-SHARDDEGRADED"},
		{name: "degraded write", node: "replicated", state: StateDegraded, write: true, kind: "refusal", prefix: "-SHARDDEGRADED"},
		{name: "crashed, not yet failed: refuses and tells the monitor", node: "replicated", crashed: true, kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"timeouts"}, suspect: true},
		{name: "crashed suspect", node: "replicated", state: StateSuspect, crashed: true, write: true, kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"timeouts"}, suspect: true},
		{name: "crashed unreplicated: nobody to tell", node: "remote", crashed: true, kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"timeouts"}},
		{name: "crashed beats budget and breaker", node: "replicated", crashed: true, breaker: "open", budget: "short", kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"timeouts"}, suspect: true},
		{name: "promoted", node: "replicated", promoted: true, crashed: true, kind: "client"},
		{name: "promoted write, open breaker, short budget: the VAS path asks neither", node: "replicated", promoted: true, crashed: true, write: true, breaker: "open", budget: "short", kind: "client"},
		// The functions resolve replaced never looked at the tombstone (no
		// slot routes to a removed node) and would have dispatched into the
		// exited process; resolve refuses, retryably.
		{name: "removed", node: "replicated", removed: true, kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"timeouts"}},

		// Deadline, then breaker — and the breaker only when a dispatch follows.
		{name: "ample budget", node: "remote", breaker: "closed", budget: "ample", kind: "endpoint"},
		{name: "short budget", node: "remote", breaker: "closed", budget: "short", kind: "refusal", prefix: "-DEADLINE", moved: []string{"deadline_expired"}},
		{name: "short budget beats open breaker", node: "remote", breaker: "open", budget: "short", kind: "refusal", prefix: "-DEADLINE", moved: []string{"deadline_expired"}},
		{name: "short budget leaves the probe slot", node: "remote", breaker: "cooled", budget: "short", kind: "refusal", prefix: "-DEADLINE", moved: []string{"deadline_expired"}, probeLeft: true},
		{name: "open breaker sheds", node: "remote", breaker: "open", kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"shed"}},
		{name: "open breaker sheds writes", node: "replicated", breaker: "open", write: true, view: "valid", kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"shed"}},
		{name: "cooled breaker admits the probe", node: "remote", breaker: "cooled", kind: "endpoint"},
		{name: "probing breaker sheds", node: "remote", breaker: "probing", kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"shed"}},

		// Frozen reads: READONLY, not promoted, a valid view inside the bound,
		// and follower reads on or the breaker not closed.
		{name: "follower read", node: "replicated", breaker: "closed", readonly: true, follower: true, view: "valid", kind: "frozen", moved: []string{"follower_reads"}},
		{name: "follower read, no breaker", node: "replicated", readonly: true, follower: true, view: "valid", kind: "frozen", moved: []string{"follower_reads"}},
		{name: "follower read needs READONLY", node: "replicated", breaker: "closed", follower: true, view: "valid", kind: "endpoint"},
		{name: "follower read is a read", node: "replicated", breaker: "closed", readonly: true, write: true, follower: true, view: "valid", kind: "endpoint"},
		{name: "follower reads off, breaker closed: the primary", node: "replicated", breaker: "closed", readonly: true, view: "valid", kind: "endpoint"},
		{name: "never forked: the primary", node: "unforked", breaker: "closed", readonly: true, follower: true, kind: "endpoint"},
		{name: "invalidated view: the primary", node: "replicated", breaker: "closed", readonly: true, follower: true, view: "invalidated", kind: "endpoint"},
		{name: "view past the bound", node: "replicated", breaker: "closed", readonly: true, follower: true, view: "old", kind: "refusal", prefix: "-STALE", moved: []string{"stale_rejected"}},
		{name: "view past the bound, not READONLY: the primary", node: "replicated", breaker: "closed", follower: true, view: "old", kind: "endpoint"},
		{name: "promoted: views are fenced, the standby", node: "replicated", promoted: true, crashed: true, readonly: true, follower: true, view: "valid", kind: "client"},
		{name: "follower read under a short budget: no dispatch, no deadline", node: "replicated", breaker: "closed", readonly: true, follower: true, view: "valid", budget: "short", kind: "frozen", moved: []string{"follower_reads"}},
		{name: "follower read of a crashed node: the view outlives the process", node: "replicated", crashed: true, readonly: true, follower: true, view: "valid", kind: "frozen", moved: []string{"follower_reads"}},

		// Degraded reads: the same gate, opened by the breaker.
		{name: "degraded read", node: "replicated", breaker: "open", readonly: true, view: "valid", kind: "frozen", moved: []string{"follower_reads", "degraded_reads"}},
		{name: "degraded read with follower reads on", node: "replicated", breaker: "open", readonly: true, follower: true, view: "valid", kind: "frozen", moved: []string{"follower_reads", "degraded_reads"}},
		{name: "degraded read while probing", node: "replicated", breaker: "probing", readonly: true, view: "valid", kind: "frozen", moved: []string{"follower_reads", "degraded_reads"}},
		{name: "degraded read leaves the probe slot", node: "replicated", breaker: "cooled", readonly: true, view: "valid", kind: "frozen", moved: []string{"follower_reads", "degraded_reads"}, probeLeft: true},
		{name: "degraded read needs READONLY", node: "replicated", breaker: "open", view: "valid", kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"shed"}},
		{name: "degraded read past the bound", node: "replicated", breaker: "open", readonly: true, view: "old", kind: "refusal", prefix: "-STALE", moved: []string{"stale_rejected"}},
		{name: "open breaker, no view: shed", node: "unforked", breaker: "open", readonly: true, kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"shed"}},
		{name: "open breaker, invalidated view: shed", node: "replicated", breaker: "open", readonly: true, follower: true, view: "invalidated", kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"shed"}},
		{name: "open breaker without replication: shed", node: "remote", breaker: "open", readonly: true, follower: true, kind: "refusal", prefix: "-SHARDTIMEOUT", moved: []string{"shed"}},
	}

	plain, plainObs := newResolveRig(t, false, 1)
	repl, replObs := newResolveRig(t, true, 2)
	counters := func(obs *stats.Sink) map[string]uint64 {
		c := obs.Snapshot().Dense().Cluster
		return map[string]uint64{
			"timeouts": c.Timeouts, "shed": c.Overload.Shed, "deadline_expired": c.Overload.DeadlineExpired,
			"stale_rejected": c.Fork.StaleRejected, "follower_reads": c.Fork.FollowerReads,
			"degraded_reads": c.Overload.DegradedReads,
		}
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			r, obs, id := repl, replObs, 0
			switch tc.node {
			case "remote":
				r, obs, id = plain, plainObs, 1
			case "unforked":
				id = 1
			case "replicated":
				id = 2
			}
			w, n := r.workers[0], r.nodes[id]

			n.state.Store(int32(tc.state))
			n.crashed.Store(tc.crashed)
			n.promoted.Store(tc.promoted)
			n.removed.Store(tc.removed)
			cause := "no recoverable replica: test"
			n.cause.Store(&cause)
			defer func() {
				n.state.Store(int32(StateHealthy))
				n.crashed.Store(false)
				n.promoted.Store(false)
				n.removed.Store(false)
			}()
			if !n.local {
				n.breaker = breakerIn(t, tc.breaker)
			}
			r.cfg.Replication.FollowerReads = tc.follower
			r.cfg.Replication.StaleBound = time.Minute
			switch tc.view {
			case "valid", "old":
				if r.forks.Current(id) == nil {
					n.mu.Lock()
					resp := n.handler(forkWire)
					n.mu.Unlock()
					if _, _, err := parseForkReply(resp); err != nil {
						t.Fatalf("fork: %v", err)
					}
				}
				if tc.view == "old" {
					r.cfg.Replication.StaleBound = time.Nanosecond
				}
			case "invalidated":
				r.forks.InvalidateNode(id, "test")
			}
			w.bud = overload.Budget{}
			switch tc.budget {
			case "ample":
				w.bud = overload.Arm(1<<40, w.th.Core.Cycles())
			case "short":
				w.bud = overload.Arm(1, w.th.Core.Cycles())
			}
			for len(r.suspectCh) > 0 {
				<-r.suspectCh
			}

			cmd := get
			if tc.write {
				cmd = set
			}
			before := counters(obs)
			kind, refusal := resolveOnce(r, w, n, cmd, tc.readonly)
			after := counters(obs)

			if kind != tc.kind {
				t.Errorf("target is %s (%q), want %s", kind, refusal, tc.kind)
			}
			if !bytes.HasPrefix(refusal, []byte(tc.prefix)) || (tc.prefix == "" && refusal != nil) {
				t.Errorf("refusal %q, want prefix %q", refusal, tc.prefix)
			}
			var moved []string
			for name, v := range after {
				switch v - before[name] {
				case 0:
				case 1:
					moved = append(moved, name)
				default:
					t.Errorf("%s moved by %d", name, v-before[name])
				}
			}
			sort.Strings(moved)
			want := append([]string(nil), tc.moved...)
			sort.Strings(want)
			if !reflect.DeepEqual(moved, want) {
				t.Errorf("counters moved: %v, want %v", moved, want)
			}
			if poked := len(r.suspectCh) > 0; poked != tc.suspect {
				t.Errorf("suspectCh poked = %v, want %v", poked, tc.suspect)
			}
			if tc.probeLeft {
				if ok, probe := n.breaker.Allow(); !ok || !probe {
					t.Errorf("after resolve, Allow = %v, %v: the half-open probe slot was consumed", ok, probe)
				}
			}
		})
	}
}
