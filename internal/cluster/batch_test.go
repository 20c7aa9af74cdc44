package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/overload"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// batchRig is a router with no monitor and no traffic, driven on its one
// worker from the test's goroutine (as mgetRig is): two rigs built by the
// same calls are the same machine to the cycle, so the per-command model can
// run on one and the batch path on the other.
type batchRig struct {
	r *Router
	w *worker
}

// newBatchRig builds the rig of a mode: "vas" and "urpc" are three nodes, all
// co-resident or all remote; "auto" is the mgetRig — node 0 co-resident, 1 a
// remote primary, 2 a promoted standby, 3 a replicated remote primary behind a
// frozen view older than it — with replication and follower reads on.
func newBatchRig(t *testing.T, mode string, reg *fault.Registry) batchRig {
	t.Helper()
	if mode == "auto" {
		g := newMGetRig(t)
		return batchRig{g.r, g.w}
	}
	hwCfg := hw.SmallTest()
	hwCfg.CoresPerSocket = 4
	m := hw.NewMachine(hwCfg)
	if reg != nil {
		m.SetFaults(reg)
	}
	sys := kernel.New(m)
	sys.EnableStats(64)
	r, err := New(sys, Config{Nodes: 3, Workers: 1, Mode: Mode(mode), SegSize: 1 << 20,
		Overload: OverloadConfig{Breakers: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	})
	return batchRig{r, r.workers[0]}
}

// request builds a connection's request: no batch of its own, stamped as the
// reader stamps it.
func request(readonly bool, deadline uint64, args ...string) *server.Request {
	return &server.Request{Args: args, Cmd: redis.Lookup(args), Readonly: readonly, Deadline: deadline}
}

// frames counts the request frames the worker has sent its nodes.
func (g batchRig) frames() (n uint64) {
	for _, ep := range g.w.endpoints {
		req, _ := ep.ChannelStats()
		n += req.Sends
	}
	return n
}

func (g batchRig) switches() uint64 { return g.r.sys.Switches() }

// cycles reads every core's clock.
func (g batchRig) cycles() []uint64 {
	out := make([]uint64, len(g.r.sys.M.Cores))
	for i, c := range g.r.sys.M.Cores {
		out[i] = c.Cycles()
	}
	return out
}

// images reads every store segment the rig has — primaries and standbys.
func (g batchRig) images(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, n := range g.r.nodes {
		for _, name := range []string{n.names.Seg, redis.StandbyNames(n.id).Seg} {
			img, err := g.r.sys.SegmentImageOf(name, 1, nil)
			if err != nil {
				continue // no such store on this rig
			}
			out[name] = append(fmt.Appendf(nil, "%v|", img.Index), img.Data...)
		}
	}
	return out
}

// kind says how a store command on node n is served on the rigs above, by
// the node's standing alone: the test's own answer to what resolve returns.
func (g batchRig) kind(n *node, cmd *redis.Command, readonly bool) string {
	switch {
	case n.local || n.promoted.Load():
		return "client"
	case readonly && !cmd.Write && n.forks.Current(n.id) != nil:
		return "frozen"
	}
	return "endpoint"
}

// savings walks a pipeline the way the run rules read — adjacent store
// commands one node owns, on one VAS of its store, served live one way — and
// returns how many commands ride an earlier one's switch pair and how many an
// earlier one's frame.
func (g batchRig) savings(pipe []*server.Request) (pairs, frames uint64) {
	var prevNode *node
	var prevWrite bool
	var prevKind string
	for _, req := range pipe {
		var n *node
		kind := ""
		if req.Cmd.By == redis.ByStore {
			if n = g.r.locate(req); n != nil {
				kind = g.kind(n, req.Cmd, req.Readonly)
			}
		}
		if n != nil && n == prevNode && req.Cmd.Write == prevWrite && kind == prevKind && kind != "frozen" {
			if kind == "client" {
				pairs++
			} else {
				frames++
			}
		}
		prevNode, prevWrite, prevKind = n, req.Cmd.Write, kind
	}
	return pairs, frames
}

// pipelines is the seeded traffic of the differentials: pipelines of 1–16
// GET/SET/DEL/MGET (and the odd PING) over tenant-qualified keys on every
// node, keys drawn so that neighbours often share a node, READONLY on for
// about half the pipelines.
type pipelines struct {
	rng     *rand.Rand
	keys    [][]string // by node
	version int
}

func newPipelines(r *Router, seed int64) *pipelines {
	p := &pipelines{rng: rand.New(rand.NewSource(seed)), keys: make([][]string, len(r.nodes))}
	for i := 0; ; i++ {
		k := redis.TenantKey(fmt.Sprintf("t%d", i%2), fmt.Sprintf("k%d\r\n", i))
		nid := r.Owner(r.Slot(k))
		if len(p.keys[nid]) < 6 {
			p.keys[nid] = append(p.keys[nid], k)
		}
		full := true
		for _, ks := range p.keys {
			full = full && len(ks) == 6
		}
		if full {
			return p
		}
	}
}

func (p *pipelines) next() (argvs [][]string, readonly bool) {
	readonly = p.rng.Intn(2) == 0
	node := p.rng.Intn(len(p.keys))
	key := func() string {
		if p.rng.Intn(3) == 0 {
			node = p.rng.Intn(len(p.keys))
		}
		return p.keys[node][p.rng.Intn(len(p.keys[node]))]
	}
	for n := 1 + p.rng.Intn(16); n > 0; n-- {
		switch op := p.rng.Intn(20); {
		case op < 9:
			argvs = append(argvs, []string{"GET", key()})
		case op < 14:
			p.version++
			argvs = append(argvs, []string{"SET", key(), rigValue("v", p.version)})
		case op < 16:
			argvs = append(argvs, []string{"DEL", key()})
		case op < 19:
			argv := []string{"MGET"}
			for k := 1 + p.rng.Intn(4); k > 0; k-- {
				argv = append(argv, key())
			}
			argvs = append(argvs, argv)
		default:
			argvs = append(argvs, []string{"PING"})
		}
	}
	return argvs, readonly
}

func requests(argvs [][]string, readonly bool) []*server.Request {
	reqs := make([]*server.Request, len(argvs))
	for i, argv := range argvs {
		reqs[i] = request(readonly, 0, argv...)
	}
	return reqs
}

// TestBatchMatchesPerCommand holds the batch path to the per-command model:
// the same seeded pipelines on two identical rigs — one answered command by
// command by refExec, the other batch by batch by Router.execBatch — must give
// byte-equal replies in order and leave byte-equal stores, and the batch rig
// must have switched and sent less than the model by exactly the commands
// that rode an earlier one's switch pair or frame, pipeline after pipeline.
func TestBatchMatchesPerCommand(t *testing.T) {
	for _, mode := range []string{"vas", "urpc", "auto"} {
		t.Run(mode, func(t *testing.T) {
			model, batch := newBatchRig(t, mode, nil), newBatchRig(t, mode, nil)
			gen := newPipelines(batch.r, 21)
			var rode [2]uint64
			for i := 0; i < 400; i++ {
				argvs, readonly := gen.next()
				want := requests(argvs, readonly)
				for _, req := range want {
					req.Finish(refExec(model.r, model.w, req))
				}
				got := requests(argvs, readonly)
				pairs, frames := batch.savings(got)
				batch.r.execBatch(batch.w, server.NewBatch(got))
				for j := range got {
					if g, w := got[j].Reply(), want[j].Reply(); !bytes.Equal(g, w) {
						t.Fatalf("pipeline %d, command %d %q (readonly %v):\n got  %q\n want %q", i, j, argvs[j], readonly, g, w)
					}
				}
				rode[0] += pairs
				rode[1] += frames
				// A frame saved is a switch pair saved too, on the node's core.
				if g, w := batch.switches(), model.switches()-2*(rode[0]+rode[1]); g != w {
					t.Fatalf("pipeline %d %q: %d switches, want the model's %d less 2 × (%d + %d)", i, argvs, g, model.switches(), rode[0], rode[1])
				}
				if g, w := batch.frames(), model.frames()-rode[1]; g != w {
					t.Fatalf("pipeline %d %q: %d frames sent, want the model's %d less %d", i, argvs, g, model.frames(), rode[1])
				}
			}
			if mode != "urpc" && rode[0] == 0 || mode != "vas" && rode[1] == 0 {
				t.Errorf("the generator formed no run on one of the paths: %d switch pairs, %d frames saved", rode[0], rode[1])
			}
			got, want := batch.images(t), model.images(t)
			if len(got) == 0 || len(got) != len(want) {
				t.Fatalf("%d stores read back, the model has %d", len(got), len(want))
			}
			for name := range want {
				if !bytes.Equal(got[name], want[name]) {
					t.Errorf("store %s differs from the model's", name)
				}
			}
			if g, w := batch.counters(), model.counters(); g != w {
				t.Errorf("local/remote/follower/degraded = %v, model %v", g, w)
			}
		})
	}
}

func (g batchRig) counters() [4]uint64 { return (&mgetRig{r: g.r, w: g.w, obs: g.r.obs}).counters() }

// TestRunOfOneIsTheOldCommand: a batch of one is the old command. The same
// commands on two identical rigs, through refExec and through execBatch one
// at a time, must leave every core — the worker's and the nodes' — on the
// same cycle after every command, with the same reply.
func TestRunOfOneIsTheOldCommand(t *testing.T) {
	for _, mode := range []string{"vas", "urpc", "auto"} {
		t.Run(mode, func(t *testing.T) {
			model, batch := newBatchRig(t, mode, nil), newBatchRig(t, mode, nil)
			gen := newPipelines(batch.r, 22)
			budget := overload.Cycles(1e6, 2)
			for i := 0; i < 60; i++ {
				argvs, readonly := gen.next()
				for j, argv := range argvs {
					deadline := uint64(0)
					if (i+j)%3 == 0 {
						deadline = budget
					}
					want, got := request(readonly, deadline, argv...), request(readonly, deadline, argv...)
					want.Finish(refExec(model.r, model.w, want))
					batch.r.execBatch(batch.w, server.NewBatch([]*server.Request{got}))
					if g, w := got.Reply(), want.Reply(); !bytes.Equal(g, w) {
						t.Fatalf("pipeline %d, command %d %q: reply %q, want %q", i, j, argv, g, w)
					}
					if g, w := batch.cycles(), model.cycles(); fmt.Sprint(g) != fmt.Sprint(w) {
						t.Fatalf("pipeline %d, command %d %q: cores at cycles %v, the model's at %v", i, j, argv, g, w)
					}
				}
			}
			if g, w := batch.switches(), model.switches(); g != w {
				t.Errorf("%d switches, the model made %d", g, w)
			}
			if g, w := batch.frames(), model.frames(); g != w {
				t.Errorf("%d frames, the model sent %d", g, w)
			}
		})
	}
}

// TestRunBoundaries walks the places a run must end. Each row is a short
// pipeline on the auto rig (node 0 co-resident, 1 remote, 2 a promoted
// standby, 3 remote behind a frozen view), the prefix each reply must have,
// and what the pipeline may cost: switch pairs on the worker's core and
// frames to the nodes (each of which is a switch pair on the node's core),
// which is what says where the runs broke.
func TestRunBoundaries(t *testing.T) {
	type row struct {
		name    string
		setup   func(g batchRig)
		pipe    func(k [rigNodes][]string) []*server.Request
		replies []string
		pairs   uint64
		frames  uint64
	}
	get := func(key string) *server.Request { return request(false, 0, "GET", key) }
	roGet := func(key string) *server.Request { return request(true, 0, "GET", key) }
	set := func(key string) *server.Request { return request(false, 0, "SET", key, "v") }
	big := strings.Repeat("x", 6<<10)
	openBreaker := func(nid int) func(batchRig) {
		return func(g batchRig) {
			b := overload.NewBreaker(overload.BreakerConfig{Threshold: 1, Cooldown: 1 << 40}, nil)
			b.Failure()
			g.r.nodes[nid].breaker = b
		}
	}
	migrating := func(key func(k [rigNodes][]string) string, fenced bool) func(batchRig) {
		return func(g batchRig) {
			present, _ := rigKeys(g.r)
			slot := g.r.Slot(key(present))
			mig := &migration{slot: slot, src: g.r.Owner(slot), dst: rigLocal, delta: deltaLog{bound: 16}}
			mig.fenced.Store(fenced)
			g.r.migs[slot].Store(mig)
		}
	}
	rows := []row{
		{name: "one node, one VAS: one run",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), get(k[0][1]), get(k[0][2]), roGet(k[0][3])}
			},
			replies: []string{"$", "$", "$", "$"}, pairs: 1},
		{name: "one remote node, one VAS: one frame",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{set(k[1][0]), set(k[1][1]), request(false, 0, "DEL", k[1][2])}
			},
			replies: []string{"+OK", "+OK", ":1"}, frames: 1},
		{name: "node change",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), get(k[0][1]), get(k[2][0]), get(k[2][1]), get(k[1][0])}
			},
			replies: []string{"$", "$", "$", "$", "$"}, pairs: 2, frames: 1},
		{name: "nothing is reordered to make a run",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), get(k[1][0]), get(k[0][1]), get(k[1][1])}
			},
			replies: []string{"$", "$", "$", "$"}, pairs: 2, frames: 2},
		{name: "read VAS to write VAS and back, co-resident",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), set(k[0][0]), set(k[0][1]), get(k[0][0])}
			},
			replies: []string{"$", "+OK", "+OK", "$1\r\nv"}, pairs: 3},
		{name: "read VAS to write VAS and back, remote",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[1][0]), set(k[1][0]), set(k[1][1]), get(k[1][0])}
			},
			replies: []string{"$", "+OK", "+OK", "$1\r\nv"}, frames: 3},
		{name: "fenced slot: -MOVED, and the reads behind it run on",
			setup: migrating(func(k [rigNodes][]string) string { return k[1][0] }, true),
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{set(k[1][0]), get(k[1][0]), get(k[1][1])}
			},
			replies: []string{"-MOVED", "$", "$"}, frames: 1},
		{name: "a write on a migrating slot runs alone, under the migration's mutex",
			setup: migrating(func(k [rigNodes][]string) string { return k[1][1] }, false),
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{set(k[1][0]), set(k[1][1]), set(k[1][2])}
			},
			replies: []string{"+OK", "+OK", "+OK"}, frames: 3},
		{name: "-DEADLINE at the head: the next command starts its own run",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{request(false, 1000, "GET", k[1][0]), get(k[1][1]), get(k[1][2])}
			},
			replies: []string{"-DEADLINE", "$", "$"}, frames: 1},
		{name: "-DEADLINE inside: the run ends before it and picks up behind it",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[1][0]), request(false, 1000, "GET", k[1][1]), get(k[1][2]), get(k[1][3])}
			},
			replies: []string{"$", "-DEADLINE", "$", "$"}, frames: 2},
		{name: "open breaker: every member is shed, the neighbours are not a run",
			setup: openBreaker(rigRemote),
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), set(k[1][0]), set(k[1][1]), get(k[0][1])}
			},
			replies: []string{"$", "-SHARDTIMEOUT", "-SHARDTIMEOUT", "$"}, pairs: 2},
		{name: "READONLY reads of a frozen view are runs of one",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[3][2]), roGet(k[3][2]), roGet(k[3][3]), get(k[3][3])}
			},
			replies: []string{"$", "$", "$", "$"}, pairs: 2 + 1 /* attaching the view */, frames: 2},
		{name: "an MGET one node owns is a member",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), request(false, 0, "MGET", k[0][1], k[0][2]), get(k[0][3])}
			},
			replies: []string{"$", "*2", "$"}, pairs: 1},
		{name: "an MGET across nodes runs alone",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), request(false, 0, "MGET", k[0][1], k[1][0]), get(k[0][3])}
			},
			replies: []string{"$", "*2", "$"}, pairs: 3, frames: 1},
		{name: "a command the router answers ends a run",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), request(false, 0, "PING"), get(k[0][1]), request(false, 0, "CLUSTER", "SLOTS"), get(k[0][2])}
			},
			replies: []string{"$", "+PONG", "$", "*", "$"}, pairs: 3},
		{name: "a frame that would outgrow the ring ends a run",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{
					request(false, 0, "SET", k[1][0], big), request(false, 0, "SET", k[1][1], big), request(false, 0, "SET", k[1][2], big)}
			},
			replies: []string{"+OK", "+OK", "+OK"}, frames: 2},
		{name: "a run's replies may outgrow the ring: the response is streamed",
			setup: func(g batchRig) {
				present, _ := rigKeys(g.r)
				for _, key := range present[1][:3] {
					g.r.execBatch(g.w, server.NewBatch([]*server.Request{request(false, 0, "SET", key, big)}))
				}
			},
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[1][0]), get(k[1][1]), get(k[1][2])}
			},
			replies: []string{"$6144\r\nxxx", "$6144\r\nxxx", "$6144\r\nxxx"}, frames: 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			g := newBatchRig(t, "auto", nil)
			if row.setup != nil {
				row.setup(g)
			}
			present, _ := rigKeys(g.r)
			pipe := row.pipe(present)
			switches, frames := g.switches(), g.frames()
			g.r.execBatch(g.w, server.NewBatch(pipe))
			for i, req := range pipe {
				if got := req.Reply(); !bytes.HasPrefix(got, []byte(row.replies[i])) {
					t.Errorf("reply %d to %q: %.40q, want %q…", i, req.Args[0], got, row.replies[i])
				}
			}
			if got := g.switches() - switches; got != 2*(row.pairs+row.frames) {
				t.Errorf("%d switches, want %d pairs on the worker's core and one per frame", got, row.pairs)
			}
			if got := g.frames() - frames; got != row.frames {
				t.Errorf("%d frames, want %d", got, row.frames)
			}
		})
	}
}

// TestRunBudgets: the members of a run have their budgets armed as the run
// forms, each charged its own way in and out, and the frame goes out under
// the tightest of them.
func TestRunBudgets(t *testing.T) {
	g := newBatchRig(t, "urpc", nil)
	k := keyOnNode(t, g.r, 1)
	const ample, tight = 1 << 30, 40000
	pipe := []*server.Request{request(false, ample, "GET", k), request(false, tight, "GET", k), request(false, 0, "GET", k)}
	g.r.execBatch(g.w, server.NewBatch(pipe))
	for i, req := range pipe {
		if got := req.Reply(); !bytes.Equal(got, []byte("$-1\r\n")) {
			t.Errorf("reply %d: %q", i, got)
		}
	}
	if g.w.bud.Total != tight {
		t.Errorf("the run was dispatched under a budget of %d, want the tightest, %d", g.w.bud.Total, tight)
	}
	if got := g.r.obs.Snapshot().Dense().Cluster.Overload.BudgetRemaining.Count; got != 2 {
		t.Errorf("%d budget remainders recorded, want one per member that carried a deadline (2)", got)
	}
}

// TestRetriedRunFrameAppliesOnce: a run frame whose response is lost is sent
// again under the same sequence number and answered from the node's
// duplicate cache — the two DELs are applied once, and say so.
func TestRetriedRunFrameAppliesOnce(t *testing.T) {
	reg := fault.New(5)
	g := newBatchRig(t, "urpc", reg)
	var keys []string
	for i := 0; len(keys) < 2; i++ {
		if k := fmt.Sprintf("k%d", i); g.r.Owner(g.r.Slot(k)) == 1 {
			keys = append(keys, k)
		}
	}
	g.r.execBatch(g.w, server.NewBatch([]*server.Request{request(false, 0, "SET", keys[0], "v"), request(false, 0, "SET", keys[1], "v")}))
	// The next frame out is the request, the one after it the response.
	reg.Enable(fault.URPCDrop, fault.OnNth(2))
	pipe := []*server.Request{request(false, 0, "DEL", keys[0]), request(false, 0, "DEL", keys[1])}
	g.r.execBatch(g.w, server.NewBatch(pipe))
	for i, req := range pipe {
		if got := req.Reply(); string(got) != ":1\r\n" {
			t.Errorf("DEL %d answered %q, want :1 — a frame applied twice answers :0", i, got)
		}
	}
	if got := g.w.endpoints[1].Retries(); got != 1 {
		t.Errorf("%d retries, want the one the dropped response cost", got)
	}
}
