package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/overload"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/urpc"
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
func (g batchRig) frames() uint64 { return g.w.eps.frames() }

// frames counts the request frames the nodes received on every endpoint of
// the set, however many bursts each took, read under its mutex, as from
// outside the owning agent.
func (s *endpointSet) frames() (n uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ep := range s.eps {
		req, _ := ep.ChannelStats()
		n += req.Recvs
	}
	return n
}

// get returns the set's endpoint to node id, nil before first use.
func (s *endpointSet) get(id int) *urpc.Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eps[id]
}

// put installs ep as the set's endpoint to node id, ahead of first use.
func (s *endpointSet) put(id int, ep *urpc.Endpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eps == nil {
		s.eps = map[int]*urpc.Endpoint{}
	}
	s.eps[id] = ep
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

// savings counts, on the rule's plan of a pipeline (refPlan, in VAS phases),
// the members that ride an earlier one's switch pair (a store's or a frozen
// view's) or frame: each that follows one of its run served the same way.
func (g batchRig) savings(pipe []*server.Request) (pairs, frames uint64) {
	for _, s := range refPlan(pipe, func(k string) (int, *migration) { n, _ := g.r.locate(k); return n, nil }) {
		for i := 1; i < len(s.members); i++ {
			n, req, prev := g.r.nodes[s.node], pipe[s.members[i].at], pipe[s.members[i-1].at]
			if kind := g.kind(n, req.Cmd, req.Readonly); kind == g.kind(n, prev.Cmd, prev.Readonly) {
				if kind == "endpoint" {
					frames++
				} else {
					pairs++
				}
			}
		}
	}
	return pairs, frames
}

// pipelines is the seeded traffic of the differentials: pipelines of 1–16
// GET/SET/DEL/MGET (and the odd PING) over tenant-qualified keys on every
// node, keys drawn so that neighbours often share a node — an MGET's 1–8 keys
// from any node, so most span several — READONLY on for about half the
// pipelines.
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
			for k := 1 + p.rng.Intn(8); k > 0; k-- {
				keys := p.keys[p.rng.Intn(len(p.keys))]
				argv = append(argv, keys[p.rng.Intn(len(keys))])
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
				if batch.pins() {
					t.Fatalf("pipeline %d %q: the worker's plan still holds something of the finished batch", i, argvs)
				}
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

// pins reports whether the worker's plan still holds a reference of any kind
// — a pointer, a slice, a string — in a field, or in a buffer up to its
// capacity: after execBatch that would keep the batch's requests (their fill,
// and the replies in it) or its MGETs' keys reachable. A buffer of plain
// values (indices, counts, stamps) is the worker's and holds nothing; one of
// bytes is a reply chunk, the batch's.
func (g batchRig) pins() bool {
	v := reflect.ValueOf(g.w.plan)
	for i := range v.NumField() {
		f := v.Field(i)
		if f.Kind() != reflect.Slice {
			if refers(f.Type()) && !f.IsZero() {
				return true
			}
			continue
		}
		if elem := f.Type().Elem(); !refers(elem) {
			if elem.Kind() == reflect.Uint8 && !f.IsNil() {
				return true
			}
			continue
		}
		for all, j := f.Slice(0, f.Cap()), 0; j < all.Len(); j++ {
			if !all.Index(j).IsZero() {
				return true
			}
		}
	}
	return false
}

// refers reports whether a value of type t can hold a reference.
func refers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return refers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if refers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.Slice, reflect.String, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.UnsafePointer:
		return true
	}
	return false
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

// TestRunBoundaries walks where runs form and where they must break. Each row
// is a short pipeline on the auto rig (node 0 co-resident, 1 remote, 2 a
// promoted standby, 3 remote behind a frozen view), the prefix each reply
// must have, and what the pipeline may cost: switch pairs on the worker's
// core and frames to the nodes (each of which is a switch pair on the node's
// core), which is what says how the commands grouped. The rows for the
// barriers — PING, CLUSTER SLOTS — put the same nodes' commands on both sides
// of the barrier: they would group without it.
func TestRunBoundaries(t *testing.T) {
	type row struct {
		name    string
		setup   func(t *testing.T, g batchRig)
		pipe    func(k [rigNodes][]string) []*server.Request
		replies []string
		pairs   uint64
		frames  uint64
		failed  uint64 // switches that were refused: counted, but no pair
	}
	get := func(key string) *server.Request { return request(false, 0, "GET", key) }
	roGet := func(key string) *server.Request { return request(true, 0, "GET", key) }
	set := func(key string) *server.Request { return request(false, 0, "SET", key, "v") }
	big := strings.Repeat("x", 6<<10)
	openBreaker := func(nid int) func(*testing.T, batchRig) {
		return func(_ *testing.T, g batchRig) {
			b := overload.NewBreaker(overload.BreakerConfig{Threshold: 1, Cooldown: 1 << 40}, nil)
			b.Failure()
			g.r.nodes[nid].breaker = b
		}
	}
	migrating := func(key func(k [rigNodes][]string) string) func(*testing.T, batchRig) {
		return func(_ *testing.T, g batchRig) {
			present, _ := rigKeys(g.r)
			g.r.migs[g.r.Slot(key(present))].Store(&migration{})
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
		{name: "a node's commands group across another node's: A B A B is one run each",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), get(k[1][0]), get(k[0][1]), get(k[1][1])}
			},
			replies: []string{"$", "$", "$", "$"}, pairs: 1, frames: 1},
		{name: "a key keeps pipeline order across an interleaved node",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{set(k[1][0]), get(k[0][0]), get(k[1][0])}
			},
			replies: []string{"+OK", "$", "$1\r\nv"}, pairs: 1, frames: 2},
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
		{name: "a write between two reads of other keys: one read run and one write run per node",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), set(k[0][1]), get(k[0][2]), get(k[1][0]), set(k[1][1]), get(k[1][2])}
			},
			replies: []string{"$", "+OK", "$", "$", "+OK", "$"}, pairs: 2, frames: 2},
		{name: "a read of the key a write just wrote waits for it; a read of another key does not",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{set(k[0][0]), get(k[0][0]), get(k[0][1])}
			},
			replies: []string{"+OK", "$1\r\nv", "$"}, pairs: 2},
		{name: "an MGET part whose key an earlier SET writes stays behind the SET",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][1]), set(k[0][0]), request(false, 0, "MGET", k[0][0], k[1][0]), get(k[0][2])}
			},
			replies: []string{"$", "+OK", "*2\r\n$1\r\nv\r\n", "$"}, pairs: 3, frames: 1},
		{name: "a write on a migrating slot rides its node's run",
			setup: migrating(func(k [rigNodes][]string) string { return k[1][1] }),
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), set(k[1][0]), set(k[1][1]), get(k[0][1]), set(k[1][2])}
			},
			replies: []string{"$", "+OK", "+OK", "$", "+OK"}, pairs: 1, frames: 1},
		{name: "an MGET across nodes joins each node's run",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), get(k[1][1]), request(false, 0, "MGET", k[0][1], k[1][0]), get(k[0][3]), get(k[1][2])}
			},
			replies: []string{"$", "$", "*2", "$", "$"}, pairs: 1, frames: 1},
		{name: "an MGET's remote part shed by an open breaker: the whole reply, and the co-resident part still rides the run",
			setup: openBreaker(rigRemote),
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), request(false, 0, "MGET", k[0][1], k[1][0]), get(k[0][2])}
			},
			replies: []string{"$", "-SHARDTIMEOUT", "$"}, pairs: 1},
		{name: "an MGET's part refused first settles it: the later part is not sent",
			setup: openBreaker(rigRemote),
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[1][1]), request(false, 0, "MGET", k[0][1], k[1][0])}
			},
			replies: []string{"-SHARDTIMEOUT", "-SHARDTIMEOUT"}},
		{name: "a READONLY MGET over a frozen view and a co-resident node: one frozen run and one pair",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{roGet(k[3][0]), request(true, 0, "MGET", k[0][0], k[3][2]), roGet(k[0][1]), roGet(k[3][3])}
			},
			replies: []string{"$", "*2", "$", "$"}, pairs: 2 + 1 /* attaching the view */},
		{name: "an MGET's budget runs out between parts: -DEADLINE, and the later remote part sends no frame",
			pipe: func(k [rigNodes][]string) []*server.Request {
				// One cycle more than the way in: the co-resident part goes, the
				// budget is gone by the remote part's turn.
				in := server.EdgeCycles(len("MGET") + len(k[0][0]) + len(k[1][0]))
				return []*server.Request{request(false, in+1, "MGET", k[0][0], k[1][0]), get(k[0][1]), get(k[1][1])}
			},
			replies: []string{"-DEADLINE budget exhausted after", "$", "$"}, pairs: 1, frames: 1},
		{name: "a command the router answers ends a run",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), get(k[1][0]), request(false, 0, "PING"), get(k[0][1]), get(k[1][1])}
			},
			replies: []string{"$", "$", "+PONG", "$", "$"}, pairs: 2, frames: 2},
		{name: "a CLUSTER read, which the router answers, ends a run too",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), get(k[1][0]), request(false, 0, "CLUSTER", "SLOTS"), get(k[0][1]), get(k[1][1])}
			},
			replies: []string{"$", "$", "*", "$", "$"}, pairs: 2, frames: 2},
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
		{name: "open breaker: every member is shed, and the other node's commands still group",
			setup: openBreaker(rigRemote),
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), set(k[1][0]), set(k[1][1]), get(k[0][1])}
			},
			replies: []string{"$", "-SHARDTIMEOUT", "-SHARDTIMEOUT", "$"}, pairs: 1},
		{name: "READONLY reads of one frozen view form one run",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{roGet(k[3][0]), roGet(k[0][0]), roGet(k[3][1]), roGet(k[3][2])}
			},
			replies: []string{"$", "$", "$", "$"}, pairs: 2 + 1 /* attaching the view */},
		{name: "a view that cannot be read: each member falls back to the primary",
			setup: func(t *testing.T, g batchRig) {
				present, _ := rigKeys(g.r)
				g.r.execBatch(g.w, server.NewBatch([]*server.Request{roGet(present[3][3])}))
				fr := g.w.frozen[rigFrozen]
				h := fr.h
				fr.h = 1 << 20
				t.Cleanup(func() { fr.h = h })
			},
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{roGet(k[3][0]), roGet(k[3][1]), roGet(k[3][2])}
			},
			// k[3][1] is deleted on the primary, not in the view.
			replies: []string{"$", "$-1", "$"}, frames: 3, failed: 1},
		{name: "an MGET one node owns is a member",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{get(k[0][0]), request(false, 0, "MGET", k[0][1], k[0][2]), get(k[0][3])}
			},
			replies: []string{"$", "*2", "$"}, pairs: 1},
		{name: "a run that outgrows the ring is one frame",
			pipe: func(k [rigNodes][]string) []*server.Request {
				return []*server.Request{
					request(false, 0, "SET", k[1][0], big), request(false, 0, "SET", k[1][1], big), request(false, 0, "SET", k[1][2], big)}
			},
			replies: []string{"+OK", "+OK", "+OK"}, frames: 1},
		{name: "a run's replies may outgrow the ring: the response is streamed",
			setup: func(_ *testing.T, g batchRig) {
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
				row.setup(t, g)
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
			if got, want := g.switches()-switches, 2*(row.pairs+row.frames)+row.failed; got != want {
				t.Errorf("%d switches, want %d: 2 × (%d pairs on the worker's core + %d frames, each a pair on the node's core) + %d refused",
					got, want, row.pairs, row.frames, row.failed)
			}
			if got := g.frames() - frames; got != row.frames {
				t.Errorf("%d frames, want %d", got, row.frames)
			}
		})
	}
}

// TestValuesLargerThanTheRing: a SET and a GET of a value larger than a urpc
// ring — 15 KiB, just past its 256 slots, and 200 KiB — answer over remote
// nodes as over co-resident ones, alone and as one run that carries both.
func TestValuesLargerThanTheRing(t *testing.T) {
	vas, remote := newBatchRig(t, "vas", nil), newBatchRig(t, "urpc", nil)
	for _, size := range []int{15 << 10, 200 << 10} {
		val := make([]byte, size)
		for i := range val {
			val[i] = 'a' + byte(i%23)
		}
		key := fmt.Sprintf("big-%d", size)
		for _, argvs := range [][][]string{
			{{"SET", key, string(val)}},
			{{"GET", key}},
			{{"SET", key, string(val[1:])}, {"GET", key}},
		} {
			want, got := requests(argvs, false), requests(argvs, false)
			vas.r.execBatch(vas.w, server.NewBatch(want))
			remote.r.execBatch(remote.w, server.NewBatch(got))
			for i := range got {
				if g, w := got[i].Reply(), want[i].Reply(); !bytes.Equal(g, w) || w[0] == '-' {
					t.Errorf("%d-byte value, %s: remote answered %.60q (%d bytes), co-resident %.60q (%d bytes)",
						size, argvs[i][0], g, len(g), w, len(w))
				}
			}
		}
	}
}

// TestRepliesGoOutInArrivalOrder: a batch runs node by node, but what it
// publishes is a prefix in arrival order. While the worker carries out
// interleaved pipelines, a second goroutine waits, as the connection writer
// does, for one more request at a time; each time Wait(k) returns, the first
// k requests must hold their replies.
func TestRepliesGoOutInArrivalOrder(t *testing.T) {
	for _, mode := range []string{"vas", "urpc", "auto"} {
		t.Run(mode, func(t *testing.T) {
			g := newBatchRig(t, mode, nil)
			gen := newPipelines(g.r, 24)
			var interleaved [][]string // no two neighbours on one node
			for i := range 16 {
				keys := gen.keys[i%len(gen.keys)]
				interleaved = append(interleaved, []string{"GET", keys[i/len(gen.keys)%len(keys)]})
			}
			for i := 0; i < 100; i++ {
				argvs, readonly := interleaved, false
				if i%2 == 1 {
					argvs, readonly = gen.next()
				}
				reqs := requests(argvs, readonly)
				b := server.NewBatch(reqs)
				early := make(chan int, 1)
				go func() {
					defer close(early)
					for k := 1; k <= len(reqs); k++ {
						b.Wait(k)
						for j := range k {
							if reqs[j].Reply() == nil {
								early <- k
								return
							}
						}
					}
				}()
				g.r.execBatch(g.w, b)
				if k, ok := <-early; ok {
					t.Fatalf("pipeline %d %q: Wait(%d) returned before all of the first %d were answered", i, argvs, k, k)
				}
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
	if got := g.w.eps.get(1).Retries(); got != 1 {
		t.Errorf("%d retries, want the one the dropped response cost", got)
	}
}

// TestNodeJoinsRepliesThatOutgrewItsBuffer: a remote node renders a run with
// redis.RunAll into the buffer it keeps and answers with the replies back to
// back and nothing else. The first runs' small replies leave that buffer
// small; the last run's first reply fits it and its 2 KiB replies outgrow it
// mid-run, so the node joins them behind the one that fit. Every reply is
// refExec's on a twin rig.
func TestNodeJoinsRepliesThatOutgrewItsBuffer(t *testing.T) {
	model, batch := newBatchRig(t, "urpc", nil), newBatchRig(t, "urpc", nil)
	keys := newPipelines(batch.r, 7).keys[1]
	n := batch.r.nodes[1]
	responses := 0
	batch.w.eps.put(1, urpc.Connect(batch.r.sys.M, batch.w.th.Core.ID, n.coreID, ringSlots, func(req []byte) []byte {
		resp := n.handler(req)
		var joined []byte
		for _, c := range n.calls {
			joined = append(joined, c.Reply...)
		}
		if !bytes.Equal(resp, joined) {
			t.Errorf("the node answered %.60q, its replies back to back are %.60q", resp, joined)
		}
		responses++
		return resp
	}))
	small, big := "$1\r\nv\r\n", strings.Repeat("b", 2<<10)
	kept := 0
	for i, argvs := range [][][]string{
		{{"SET", keys[0], "v"}, {"GET", keys[0]}},
		{{"SET", keys[1], big}, {"SET", keys[2], big}},
		{{"GET", keys[0]}, {"GET", keys[1]}, {"GET", keys[2]}, {"GET", keys[0]}},
	} {
		kept = cap(n.out)
		want, got := requests(argvs, false), requests(argvs, false)
		for _, req := range want {
			req.Finish(refExec(model.r, model.w, req))
		}
		batch.r.execBatch(batch.w, server.NewBatch(got))
		for j := range got {
			if g, w := got[j].Reply(), want[j].Reply(); !bytes.Equal(g, w) {
				t.Fatalf("run %d, command %d %.40q: reply %.40q, want %.40q", i, j, argvs[j], g, w)
			}
		}
	}
	if kept < len(small) || kept >= len(big) || responses < 3 {
		t.Fatalf("%d responses; the last run met a buffer of %d bytes, want one its first reply fits and its second outgrows", responses, kept)
	}
}

// TestNodeKeepsItsArena: a remote node cuts every frame's arguments from the
// one arena it keeps, frame after frame, on the "urpc" rig. Node 1's pipelines
// go through an endpoint whose ring takes any frame, so besides the
// generator's pipelines a 20 KiB SET (a frame that starts a string of its own
// size) and a 256 KiB one (larger than maxKeptWire: an arena that is not kept)
// reach it. After every batch, each argument the node was handed reads as it
// did when it was cut, the node holds on to no more than maxKeptWire of string
// or of slab, and every reply is refExec's on a twin rig.
func TestNodeKeepsItsArena(t *testing.T) {
	model, batch := newBatchRig(t, "urpc", nil), newBatchRig(t, "urpc", nil)
	gen := newPipelines(batch.r, 23)
	type cut struct{ arg, was string }
	var cuts []cut
	n := batch.r.nodes[1]
	for _, g := range []batchRig{model, batch} {
		n := g.r.nodes[1]
		g.w.eps.put(1, urpc.Connect(g.r.sys.M, g.w.th.Core.ID, n.coreID, 8<<10, func(req []byte) []byte {
			resp := n.handler(req)
			for _, c := range n.calls {
				for _, a := range c.Args {
					if g == batch {
						cuts = append(cuts, cut{a, strings.Clone(a)})
					}
				}
			}
			return resp
		}))
	}
	key := gen.keys[1][0]
	for i := 0; i < 200; i++ {
		argvs, readonly := gen.next()
		switch i {
		case 60:
			argvs = append(argvs, []string{"SET", key, strings.Repeat("m", 20<<10)}, []string{"GET", key})
		case 120:
			argvs = append(argvs, []string{"SET", key, strings.Repeat("L", 256<<10)}, []string{"GET", key})
		}
		want := requests(argvs, readonly)
		for _, req := range want {
			req.Finish(refExec(model.r, model.w, req))
		}
		got := requests(argvs, readonly)
		batch.r.execBatch(batch.w, server.NewBatch(got))
		for j := range got {
			if g, w := got[j].Reply(), want[j].Reply(); !bytes.Equal(g, w) {
				t.Fatalf("pipeline %d, command %d %.40q: reply %.40q, want %.40q", i, j, argvs[j], g, w)
			}
		}
		if last := got[len(got)-1].Reply(); (i == 60 || i == 120) && (string(got[len(got)-2].Reply()) != "+OK\r\n" || len(last) < len(argvs[len(argvs)-2][2])) {
			t.Fatalf("pipeline %d: the large SET and GET answered %.40q and %d bytes", i, got[len(got)-2].Reply(), len(last))
		}
		for j, c := range cuts {
			if c.arg != c.was {
				t.Fatalf("after pipeline %d, argument %d reads %.40q, was cut as %.40q", i, j, c.arg, c.was)
			}
		}
		if str, args := n.arena.Held(); str > maxKeptWire || args*16 > maxKeptWire {
			t.Fatalf("after pipeline %d the node holds %d bytes of string and a slab of %d arguments", i, str, args)
		}
	}
	if str, _ := n.arena.Held(); len(cuts) == 0 || str == 0 {
		t.Fatal("node 1 was handed nothing")
	}
}
