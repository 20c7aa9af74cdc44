package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"spacejmp/internal/core"
	"spacejmp/internal/fork"
	"spacejmp/internal/overload"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/stats"
	"spacejmp/internal/urpc"
)

// worker is one router worker: a goroutine owning a front-end core (via its
// Thread), a RedisJMP client on every co-resident node's store, and a urpc
// endpoint to each remote node it calls. Only this goroutine drives the
// thread; the endpoints' inline handlers drive node cores, serialized by each
// node's mutex.
type worker struct {
	id int
	// queue carries batches; queued counts the commands in them, which is
	// what Config.QueueDepth bounds. A connection's batch holds at least one
	// command, so a queue with room by that count never blocks its sender.
	queue  chan *server.Batch
	queued atomic.Int64
	ctr    *stats.ShardCounters

	proc *core.Process
	th   *core.Thread

	// clients holds the stores this worker serves by switching VAS, by
	// node id: every co-resident node's (attached at wiring) and, after a
	// promotion, a remote node's standby (attached on first use).
	clients  map[int]*redis.Client
	eps      endpointSet           // remote nodes, connected on first use
	frozen   map[int]*frozenReader // frozen-view attachments, by node id
	err      error                 // first error letting go of a store or view (reconcile, release)
	removals uint64                // the Router.removals last reconciled against

	// bud is the deadline budget in force: the one of the command being
	// started, then the tightest of the run being carried out. Armed against
	// this worker's core cycle counter; only its goroutine touches it.
	bud overload.Budget

	// plan is the batch in hand; calls are a run's commands as redis.RunAll
	// takes them, wire their RESP encoding for a remote node. All three are
	// reused from one batch or run to the next (the endpoint copies wire into
	// the ring before the call returns), so grouping allocates nothing.
	plan  plan
	calls []redis.Call
	wire  []byte
}

// maxKeptWire bounds the encoding buffer a worker keeps between commands,
// so one huge value does not stay pinned to every worker that relayed it.
const maxKeptWire = 64 << 10

// remoteWire encodes a run of commands for a remote node, back to back, into
// the worker's reused buffer: valid until the worker's next remoteWire.
func (w *worker) remoteWire(calls []redis.Call) []byte {
	if cap(w.wire) > maxKeptWire {
		w.wire = nil
	}
	w.wire = w.wire[:0]
	for i := range calls {
		w.wire = redis.AppendCommand(w.wire, calls[i].Args...)
	}
	return w.wire
}

// frozenReader is one worker's attachment to a node's current frozen fork
// view: the VAS handle and a store bound inside it. Superseded or
// invalidated views are detached lazily on the next frozen read, and
// unconditionally at worker teardown.
type frozenReader struct {
	view  *fork.View
	h     core.Handle
	store *redis.Store
}

func (r *Router) newWorker(id int) (*worker, error) {
	proc, th, err := r.claimThread()
	if err != nil {
		return nil, err
	}
	return &worker{
		id:      id,
		queue:   make(chan *server.Batch, r.cfg.QueueDepth+1), // +1: RemoveNode's empty batch
		ctr:     r.srv.Shards.Row(id),
		proc:    proc,
		th:      th,
		clients: map[int]*redis.Client{},
		eps:     endpointSet{coreID: th.Core.ID},
		frozen:  map[int]*frozenReader{},
	}, nil
}

// wireWorker attaches the worker to every co-resident store (the first
// attachment bootstraps it); remote nodes it connects to on first use.
func (r *Router) wireWorker(w *worker) error {
	for _, n := range r.nodes {
		if n.local {
			if _, err := r.attachStore(w.th, w.clients, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// runWorker drains the queue until it closes. The batch is the unit — one
// dequeue, one pass, one latency stamp — whether it holds one command or a
// pipeline's worth.
func (r *Router) runWorker(w *worker) {
	defer r.workerWG.Done()
	for b := range w.queue {
		// Read before execBatch: once it returns, b is the connection's again.
		n, start := uint64(len(b.Reqs)), b.Start
		w.queued.Add(-int64(n))
		w.reconcile(r)
		r.execBatch(w, b)
		lat := uint64(time.Since(start).Nanoseconds())
		w.ctr.Commands.Add(n)
		r.srv.Commands.Add(n)
		r.srv.LatencyNs.ObserveN(lat, n)
	}
}

// release detaches the worker from every frozen view and store it attached
// and exits its process, freeing its core. Close calls it once nothing else
// drives the worker's thread: its goroutine has exited, or — New failed —
// was never started.
func (w *worker) release() {
	for _, fr := range w.frozen {
		w.noteErr(w.th.VASDetach(fr.h))
	}
	for _, c := range w.clients {
		w.noteErr(c.Close())
	}
	w.proc.Exit()
}

func (w *worker) noteErr(err error) {
	if err != nil && w.err == nil {
		w.err = err
	}
}

// reconcile lets go of what this worker holds on nodes removed since it last
// looked: the standby client of a promoted node, a frozen reader. It runs at
// the batch boundary, between commands; RemoveNode posts every worker an
// empty batch and waits for it before it destroys the node's stores.
func (w *worker) reconcile(r *Router) {
	removals := r.removals.Load()
	if removals == w.removals {
		return
	}
	w.removals = removals
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	for id, c := range w.clients {
		if r.nodes[id].serving() == servingRemoved {
			w.noteErr(c.Close())
			delete(w.clients, id)
		}
	}
	for id, fr := range w.frozen {
		if r.nodes[id].serving() == servingRemoved {
			w.noteErr(w.th.VASDetach(fr.h))
			delete(w.frozen, id)
		}
	}
}

// Bind stripes the connection onto a worker (server.Backend).
func (r *Router) Bind(connID uint64) uint64 {
	w := r.workers[int(connID)%len(r.workers)]
	w.ctr.Conns.Add(1)
	return uint64(w.id)
}

// Submit enqueues one request as the batch of one server.NewRequest built
// around it, failing fast when the worker's queue is full.
func (r *Router) Submit(connID uint64, req *server.Request) bool {
	return r.SubmitBatch(connID, req.Single()) == 1
}

// SubmitBatch enqueues the batch on the connection's worker
// (server.Backend): as many of its requests, from the front, as the queue
// has room for counted in commands, none when it is full.
func (r *Router) SubmitBatch(connID uint64, b *server.Batch) int {
	w := r.workers[int(connID)%len(r.workers)]
	n := len(b.Reqs)
	d := int(w.queued.Add(int64(n)))
	if over := min(d-r.cfg.QueueDepth, n); over > 0 {
		w.ctr.Busy.Add(uint64(over))
		n, d = n-over, d-over
		w.queued.Add(-int64(over))
	}
	if n == 0 {
		return 0
	}
	b.Reqs = b.Reqs[:n]
	w.queue <- b
	stats.StoreMax(&w.ctr.QueueMax, uint64(d))
	r.srv.QueueDepth.Observe(uint64(d))
	return n
}

// plan is the batch in hand, a stretch at a time: planned (make), then walked
// (walk), which fills in the members' budgets, the fans' replies (each part's
// cut apart in cut) and which requests are done, publishing the prefix
// answered. Reused batch after batch: grouping allocates nothing.
//
// reqs is the batch's requests, which a member names by its index. out is the
// chunk the batch's replies are rendered into — a co-resident run's, a node's
// response, a frozen view's, a fan's join — and rendered counts their bytes. A
// reply that outgrows a chunk starts the next (redis.RunAll), so a rendered
// reply is never copied, and the writer sends each while the chunk fills
// behind it. The first is the batch's Out (execBatch): the connection's, reused
// fill after fill. Those after it are the fill's alone, freed by the GC once
// the writer has written it.
//
// No buffer is cut back over references the batch put in it, so reset clears
// each to its length: argv, elems and fans grow through the whole batch, and
// behind (phase's scratch) and cut are cleared as they are cut back. members,
// owners, done and owed hold plain values.
//
// lastNode and lastReady are the stretch's latest remote run in flight on the
// simulated clock: its node, and the stamp at which the node's turn for it is
// done. runs lays each node's members out together within a stretch, so a
// node's previous run in flight, if any, is that one. owed are the replies'
// ways out that wait on runs in flight, for the walk's collect. left counts
// the requests not yet answered.
type plan struct {
	reqs      []*server.Request
	members   []member
	fans      []fan
	argv      []string
	owners    []int
	behind    []string
	elems     [][]byte
	cut       [][]byte
	done      []bool
	lastNode  int
	lastReady uint64
	owed      []owed
	answered  int
	left      int
	out       []byte
	rendered  int
	perCmd    int
}

// owed is a reply's way out over the network edge, charged once the worker's
// clock is at ready: the reply's size and its request's budget.
type owed struct {
	ready uint64
	size  int
	bud   overload.Budget
}

// minReplyBytes is what a command's reply is taken to need before the worker
// has rendered any.
const minReplyBytes = 64

// member is a command of the stretch, reqs[at], or a part of an MGET across
// nodes, whose fan is then fans[fan-1] and whose arguments argv[lo:hi] (a
// whole command's are its request's Args): node owns its keys, and slot is a
// whole command's first key's. The plan is steps: each starts at a member
// marked step and is a run, one node's members, all reads or all writes. The
// walk sets bud, the member's budget.
type member struct {
	at, node, slot, fan, lo, hi int
	step                        bool
	bud                         overload.Budget
}

// args are the arguments m runs with.
func (p *plan) args(m *member) []string {
	if m.fan == 0 {
		return p.reqs[m.at].Args
	}
	return p.argv[m.lo:m.hi]
}

// fan is an MGET across nodes: begun by its first part, answered by its last.
type fan struct {
	owners  []int  // each key's owning node, in key order
	left    int    // parts not back yet
	ready   uint64 // the latest ready stamp of a part posted (0: none)
	started bool
	bud     overload.Budget
	elems   [][]byte // each key's element of the reply, once its part is back
	reply   []byte   // the refusal that answers the whole MGET, once a part earns one
}

// make plans the stretch of store commands that starts at reqs[lo] and returns
// where it ends. It is pure: locate says a key's slot and the node owning it;
// nothing is counted or resolved. The stretch goes node by node (runs).
func (p *plan) make(lo int, locate func(key string) (node, slot int)) (hi int) {
	p.members = p.members[:0]
	for hi = lo; hi < len(p.reqs) && p.reqs[hi].Cmd.By == redis.ByStore; hi++ {
		if cmd, args := p.reqs[hi].Cmd, p.reqs[hi].Args; cmd.Op == redis.OpMGet {
			p.mget(hi, locate)
		} else {
			m := member{at: hi}
			m.node, m.slot = locate(args[cmd.FirstKey])
			p.members = append(p.members, m)
		}
	}
	p.runs()
	return hi
}

// mget adds the MGET reqs[at] to the stretch: whole when one node owns every
// key, else as a fan of parts, one per owning node in node-id order, each an
// MGET of that node's keys in key order (a migrating slot's keys are its
// source's).
func (p *plan) mget(at int, locate func(string) (int, int)) {
	req, o := p.reqs[at], len(p.owners)
	keys := req.Cmd.Keys(req.Args)
	for _, k := range keys {
		n, _ := locate(k)
		p.owners = append(p.owners, n)
	}
	lo, hi := slices.Min(p.owners[o:]), slices.Max(p.owners[o:])
	if lo == hi {
		p.owners = p.owners[:o]
		p.members = append(p.members, member{at: at, node: lo})
		return
	}
	e := len(p.elems)
	p.elems = append(p.elems, make([][]byte, len(keys))...)
	p.fans = append(p.fans, fan{owners: p.owners[o:], elems: p.elems[e:]})
	f := &p.fans[len(p.fans)-1]
	for n := lo; n <= hi; n++ {
		if !slices.Contains(f.owners, n) {
			continue
		}
		m := member{at: at, node: n, fan: len(p.fans), lo: len(p.argv)}
		p.argv = append(p.argv, req.Cmd.Name)
		for i, o := range f.owners {
			if o == n {
				p.argv = append(p.argv, keys[i])
			}
		}
		m.hi = len(p.argv)
		p.members = append(p.members, m)
		f.left++
	}
}

// runs orders the stretch gathered in members node by node, nodes in the
// order they first appear — a member moves ahead only across other nodes',
// disjoint keys, so the two commute — and each node's members in VAS phases,
// one run each, as reads and writes use different VASes of a store. The first
// phase is in the VAS of the node's first member; each takes, in arrival
// order, every member left in its VAS that no member left ahead of it
// conflicts with: one sharing a key where either writes, or any write, so
// SET/DEL keep their order. Phases alternate until the node is laid out.
func (p *plan) runs() {
	end := len(p.members)
	for i := 0; i < end; i++ {
		if n := p.members[i].node; n >= 0 { // else laid out with an earlier node's
			for write, left := p.reqs[p.members[i].at].Cmd.Write, true; left; write = !write {
				left = p.phase(n, i, end, write)
			}
		}
	}
	p.members = append(p.members[:0], p.members[end:]...)
}

// phase lays out node n's next run: of its members in members[i:end], those
// in the write VAS (or the read one) that no member left ahead of them
// conflicts with, in arrival order. It reports whether any of n's are left.
// p.behind gathers the keys of those left in the other VAS (a write left in
// its own blocks every write behind it); a node in one VAS compares no key.
func (p *plan) phase(n, i, end int, write bool) (left bool) {
	clear(p.behind)
	p.behind, left = p.behind[:0], false
	step := true
	for j := i; j < end; j++ {
		m := &p.members[j]
		if m.node != n {
			continue
		}
		cmd := p.reqs[m.at].Cmd
		if cmd.Write != write {
			p.behind, left = append(p.behind, cmd.Keys(p.args(m))...), true
			continue
		}
		if len(p.behind) > 0 && slices.ContainsFunc(cmd.Keys(p.args(m)), func(k string) bool { return slices.Contains(p.behind, k) }) {
			if write {
				return true // every write behind it conflicts with it
			}
			left = true
			continue
		}
		p.members = append(p.members, *m)
		p.members[len(p.members)-1].step, step = step, false
		p.members[j].node = -1
	}
	return left
}

// locate is what plan.make asks of the topology, under its read lock: key's
// slot and the node owning it.
func (r *Router) locate(key string) (node, slot int) {
	slot = r.Slot(key)
	return r.Owner(slot), slot
}

// execBatch carries out a connection's batch. A command the router answers
// itself runs alone, outside the topology read lock (CLUSTER takes it, and
// nesting read locks around a waiting writer self-deadlocks). The stretch of
// store commands up to the next one is planned and walked under the read lock
// taken once for it: a slot flip or node append waits out the stretch, and the
// next stretch, planned after it, sees it. Replies go out in arrival order.
func (r *Router) execBatch(w *worker, b *server.Batch) {
	// reqs, not b.Reqs: past the last Answered, b is the connection's again.
	p, reqs := &w.plan, b.Reqs
	p.reqs, p.done, p.answered, p.left = reqs, append(p.done[:0], make([]bool, len(reqs))...), 0, len(reqs)
	for lo, hi := 0, 0; lo < len(reqs); lo = hi {
		if reqs[lo].Cmd.By != redis.ByStore {
			r.execAlone(w, b, member{at: lo})
			hi = lo + 1
			continue
		}
		// Replies start in b's Out, which the connection keeps: grown at the
		// first stretch to perCmd (earlier batches' bytes a reply) a request.
		if p.out == nil {
			if want := min(max(p.perCmd, minReplyBytes)*len(reqs), maxKeptWire); cap(b.Out) < want {
				b.Out = slices.Grow(b.Out[:0], want)
			}
			p.out = b.Out[:0]
		}
		r.topoMu.RLock()
		hi = p.make(lo, r.locate)
		r.walk(w, b)
		r.topoMu.RUnlock()
	}
	if len(reqs) == 0 {
		b.Answered(0) // RemoveNode's empty batch: taken up, nothing to answer
	}
	p.reset()
}

// walk carries out the planned steps, each member begun at its turn. What only
// resolution knows still cuts a run: a member resolved another way than its
// head, a refusal. A part of a settled MGET is not sent. A run forms in place,
// over members already carried out, and where it runs is resolved for its
// head. The stretch's remote runs are in flight together on the simulated
// clock: each is posted as the walk reaches it, and collected once the walk is
// through.
func (r *Router) walk(w *worker, b *server.Batch) {
	p := &w.plan
	run, head := p.members[:0], target{} // the run being formed, and where it runs
	flush := func() {
		if len(run) > 0 {
			r.execRun(w, b, r.nodes[run[0].node], head, run)
			run = run[:0]
		}
	}
	for _, m := range p.members {
		if m.step {
			flush()
		}
		t, ok := r.begin(w, r.nodes[m.node], &m)
		if !ok {
			r.finish(w, &m, nil, 0)
			p.publish(b)
			continue
		}
		if len(run) == 0 || !t.joins(head) {
			flush()
			head = t
		}
		if run = append(run, m); t.refusal != nil {
			flush()
		}
	}
	flush()
	r.collect(w)
}

// collect waits out the stretch's runs in flight, in the order their replies
// were answered, which is the order the runs went out: the worker's clock goes
// to a reply's ready stamp if it is behind it, and only then is the reply
// charged its way out and its budget asked what it has left. Every run in
// flight is some reply's, so the clock ends past all of them.
func (r *Router) collect(w *worker) {
	p := &w.plan
	for _, o := range p.owed {
		w.th.Core.Await(o.ready)
		r.edgeOut(w, o.size, o.bud)
	}
	p.lastReady, p.owed = 0, p.owed[:0]
}

// execAlone carries out a command the router answers itself or refuses.
func (r *Router) execAlone(w *worker, b *server.Batch, m member) {
	req := w.plan.reqs[m.at]
	cmd, args := req.Cmd, req.Args
	m.bud = w.arm(req)
	var reply []byte
	switch {
	case cmd.Op == redis.OpClusterSlots:
		reply = r.clusterSlotsReply()
	case cmd.Op == redis.OpClusterNodes:
		reply = r.clusterNodesReply()
	case cmd.By == redis.ByRouter:
		reply = redis.Run(nil, cmd, args) // PING, ECHO
	default:
		reply = cmd.Refusal(args) // before any node is touched
	}
	r.finish(w, &m, reply, 0)
	w.plan.publish(b)
}

// arm arms req's budget against this worker's core — every cycle the worker
// burns from here on drains it — and charges its way in over the network edge.
func (w *worker) arm(req *server.Request) overload.Budget {
	w.bud = overload.Arm(req.Deadline, w.th.Core.Cycles())
	var size int
	for _, a := range req.Args {
		size += len(a)
	}
	w.th.Core.AddCycles(server.EdgeCycles(size))
	return w.bud
}

// begin begins m on node n and returns where it runs, resolved. A part's
// budget is its MGET's, armed by the first part begun, and re-checked by every
// part before it resolves. false: the MGET is settled (a part was refused, or
// the budget ran out), and this part is neither resolved nor sent.
func (r *Router) begin(w *worker, n *node, m *member) (target, bool) {
	req := w.plan.reqs[m.at]
	if m.fan == 0 {
		m.bud = w.arm(req)
	} else {
		f := &w.plan.fans[m.fan-1]
		if !f.started {
			f.started, f.bud = true, w.arm(req)
		}
		w.bud, m.bud = f.bud, f.bud
		if now := w.th.Core.Cycles(); f.reply == nil && w.bud.Exhausted(now) {
			r.ctr.Overload.DeadlineExpired.Add(1)
			f.reply = redis.EncodeDeadline(fmt.Sprintf(
				"budget exhausted after %d cycles mid-MGET, retry", w.bud.Spent(now)))
		}
		if f.reply != nil {
			return target{}, false
		}
	}
	return r.resolve(w, n, req.Cmd, req.Readonly), true
}

// execRun carries out a run on node n, where t says, under the tightest of its
// members' budgets, finishes the members in order and publishes what that
// answered; a posted run's members are charged their way out at the collect.
func (r *Router) execRun(w *worker, b *server.Batch, n *node, t target, run []member) {
	p, calls := &w.plan, w.calls[:0]
	now := w.th.Core.Cycles()
	for i := range run {
		m := &run[i]
		calls = append(calls, redis.Call{Cmd: p.reqs[m.at].Cmd, Args: p.args(m)})
		if m.bud.Active() && (!w.bud.Active() || m.bud.Remaining(now) < w.bud.Remaining(now)) {
			w.bud = m.bud
		}
	}
	ready := r.serve(w, n, t, calls)
	for i := range run {
		r.finish(w, &run[i], calls[i].Reply, ready)
	}
	clear(calls)
	w.calls = calls
	p.publish(b)
}

// finish answers m's request with reply and charges its way out (the
// per-mode cycle deltas sit between the two edge charges): now, or at the
// collect when the reply waits on a run in flight, done at ready (0: none), or
// on a part of its MGET that went out in one. A part answers only as its fan's
// last back; reply is nil for a part not sent. A write on a migrating slot
// touches its keys first, whatever it answered: a write that timed out may
// still have reached the store. Its migration is looked up here, by slot: only
// the topology write lock, which the stretch holds off, publishes one, and a
// failed move that clears it leaves a set nobody reads.
func (r *Router) finish(w *worker, m *member, reply []byte, ready uint64) {
	p := &w.plan
	req := p.reqs[m.at]
	if req.Cmd.Write {
		if mig := r.migs[m.slot].Load(); mig != nil {
			mig.touch(req.Cmd.Keys(req.Args))
		}
	}
	if m.fan != 0 {
		f := &p.fans[m.fan-1]
		f.ready = max(f.ready, ready)
		if reply = p.partBack(m, reply); reply == nil {
			return
		}
		ready = f.ready
	}
	if ready == 0 {
		r.edgeOut(w, len(reply), m.bud)
	} else {
		p.owed = append(p.owed, owed{ready: ready, size: len(reply), bud: m.bud})
	}
	req.Finish(reply)
	p.done[m.at] = true
	p.left--
}

// edgeOut charges a reply of size bytes its way out over the network edge and
// records what its request's budget has left.
func (r *Router) edgeOut(w *worker, size int, bud overload.Budget) {
	w.th.Core.AddCycles(server.EdgeCycles(size))
	if bud.Active() {
		r.ctr.Overload.BudgetRemaining.Observe(bud.Remaining(w.th.Core.Cycles()))
	}
}

// partBack puts a part's reply elements at their keys' places in its fan and
// returns the MGET's reply, joined in key order, once the last part is back.
// The first part refused answers the whole MGET, and so does a malformed or
// short reply: a partial MGET would read as missing keys. A join that outgrows
// the chunk makes room for the batch's replies still to come, at perCmd each.
func (p *plan) partBack(m *member, reply []byte) []byte {
	f := &p.fans[m.fan-1]
	if f.reply == nil {
		elems, err := redis.SplitArrayReply(p.cut[:0], reply)
		if err == nil && len(elems) != m.hi-m.lo-1 {
			err = errors.New("short MGET reply")
		}
		switch {
		case err == nil:
			j := 0
			for i, o := range f.owners {
				if o == m.node {
					f.elems[i], j = elems[j], j+1
				}
			}
		case errors.As(err, new(redis.ReplyError)):
			f.reply = reply // the part's refusal is the whole command's reply
		default:
			f.reply = redis.EncodeError("shard protocol error: " + err.Error())
		}
		clear(elems)
		p.cut = elems[:0]
	}
	if f.left--; f.left > 0 {
		return nil
	}
	if f.reply != nil {
		return f.reply
	}
	out := p.out
	p.out, reply = redis.PlaceReply(out, redis.JoinArrayReply(out[len(out):], f.elems, (p.left-1)*max(p.perCmd, minReplyBytes)))
	p.rendered += len(reply)
	return reply
}

// publish publishes the longest prefix of b whose every request has its
// reply, if it moved: those replies can go out while the rest of b runs.
func (p *plan) publish(b *server.Batch) {
	k := p.answered
	for k < len(p.done) && p.done[k] {
		k++
	}
	if k > p.answered {
		p.answered = k
		b.Answered(k)
	}
}

// reset lets go of the batch: its requests (their fill, and every reply in
// it) and MGET keys would stay reachable through what the buffers hold, up to
// their lengths.
func (p *plan) reset() {
	if p.rendered > 0 {
		// A batch that rendered less than the last lowers the estimate by no
		// more than a sixteenth: a SET among GETs must not leave the next
		// batch of GETs short.
		est := (p.rendered + len(p.done) - 1) / len(p.done)
		p.perCmd = max(est, p.perCmd-p.perCmd/16)
	}
	clear(p.fans)
	clear(p.argv)
	clear(p.behind)
	clear(p.elems)
	p.fans, p.argv, p.owners, p.behind, p.elems = p.fans[:0], p.argv[:0], p.owners[:0], p.behind[:0], p.elems[:0]
	p.reqs, p.out, p.rendered = nil, nil, 0
}

// target is where one command runs, resolved once: exactly one of client,
// ep, frozen and refusal is set.
type target struct {
	client   *redis.Client  // the VAS path: a co-resident store, or a promoted standby
	ep       *urpc.Endpoint // the urpc path to a remote primary
	frozen   *frozenReader  // a read served from the node's frozen view...
	degraded bool           // ...because its breaker is not closed (overload.degraded_reads)
	refusal  []byte         // nothing runs; this is the reply
}

// joins reports whether a command resolved to t can ride the run resolved to
// head, which is no refusal: the same copy, reached the same way.
func (t target) joins(head target) bool {
	return t.client == head.client && t.ep == head.ep && t.frozen == head.frozen && t.degraded == head.degraded
}

// resolve decides which copy of node n serves this command and how worker w
// reaches it. The caller holds the topology read lock, so the answer stands
// for the whole command (promote's flip, the failover's linearization
// point, takes the write side). Refusals come in a fixed order, each with
// its counter: the monitor's verdict, the crash fence, the deadline, and
// last — only when a remote dispatch really follows, because admission may
// take the half-open probe slot, whose outcome n.call reports — the breaker.
func (r *Router) resolve(w *worker, n *node, cmd *redis.Command, readonly bool) target {
	s := n.serving()
	if readonly && !cmd.Write && s != servingStandby {
		if t, ok := r.frozenTarget(w, n); ok {
			return t
		}
	}
	switch s {
	case servingPrimary:
		if n.local {
			return target{client: w.clients[n.id]}
		}
	case servingStandby:
		c, err := r.attachStore(w.th, w.clients, n)
		if err != nil {
			return target{refusal: redis.EncodeError("standby attach: " + err.Error())}
		}
		return target{client: c}
	case servingDegraded:
		// degrade stores the cause before it flips the state.
		return target{refusal: redis.EncodeShardDegraded(n.id, *n.cause.Load())}
	case servingCrashed:
		// Fenced before the call: don't burn a full retry ladder against a
		// node already known dead.
		poke(r.suspectCh, n.id)
		fallthrough
	case servingFenced, servingRemoved:
		// (A removed node owns no slots; a retry sees the table that says so.)
		r.ctr.Timeouts.Add(1)
		n.ctr.Timeouts.Add(1)
		return target{refusal: redis.EncodeShardTimeout(n.id)}
	}
	ep := w.eps.to(r, n)
	// Deadline: refuse a dispatch the remaining budget cannot cover. One
	// timeout window is the floor — a call that cannot even ride out its
	// first busy-wait is doomed work, better failed fast and retried with
	// a fresh budget.
	if w.bud.Active() {
		if rem := w.bud.Remaining(w.th.Core.Cycles()); rem < ep.TimeoutCycles {
			r.ctr.Overload.DeadlineExpired.Add(1)
			return target{refusal: redis.EncodeDeadline(fmt.Sprintf(
				"node %d: %d cycles left, dispatch needs %d, retry", n.id, rem, ep.TimeoutCycles))}
		}
	}
	// Circuit breaker: an open breaker sheds the dispatch immediately with
	// the same retryable refusal a timed-out call would earn — minus the
	// timeout — so the node's Timeouts row counts it; the cluster-wide total
	// (ladders exhausted) does not.
	if n.breaker != nil {
		if ok, _ := n.breaker.Allow(); !ok {
			r.ctr.Overload.Shed.Add(1)
			n.ctr.Timeouts.Add(1)
			return target{refusal: redis.EncodeShardTimeout(n.id)}
		}
	}
	return target{ep: ep}
}

// frozenTarget is the one gate on reads from a frozen fork view. resolve has
// checked that the connection opted into bounded staleness (READONLY) and
// that n is not promoted; the rest: the cluster serves follower reads or
// n's breaker is not closed (a degraded read), and n has a valid view. A
// view past StaleBound is the explicit -STALE refusal — the client asked
// for a bound and it cannot be met. No usable view (only replicated remote
// nodes are ever forked; promotion, degradation and slot moves invalidate)
// reports !ok, and the read goes to the primary, which is always fresh.
func (r *Router) frozenTarget(w *worker, n *node) (t target, ok bool) {
	degraded := n.breaker != nil && n.breaker.State() != overload.Closed
	if !degraded && !r.cfg.Replication.FollowerReads {
		return t, false
	}
	v := n.forks.Current(n.id)
	if v == nil {
		return t, false
	}
	bound := r.cfg.Replication.StaleBound
	if age := v.Age(); age > bound {
		r.ctr.Fork.StaleRejected.Add(1)
		return target{refusal: redis.EncodeStale(fmt.Sprintf("node %d view age %s exceeds bound %s",
			n.id, age.Truncate(time.Millisecond), bound))}, true
	}
	fr := w.frozenReaderFor(n, v)
	if fr == nil {
		return t, false
	}
	return target{frozen: fr, degraded: degraded}, true
}

// readFrozen answers calls — GETs and MGETs of keys t's node owns, a run of
// them or one — on one switch into its frozen view, each reply built by the
// loop the live store's reply is built with, minus the parse charge and the
// shared lock: the frozen segment is not lockable, its frames are immutable.
// false means the view could not be read after all, and the caller resolves
// each call again for the primary.
func (r *Router) readFrozen(w *worker, t target, calls []redis.Call) bool {
	if err := w.th.VASSwitch(t.frozen.h); err != nil {
		return false
	}
	var err error
	p := &w.plan
	for i := 0; i < len(calls) && err == nil; i++ {
		c, out := &calls[i], p.out
		var reply []byte
		if reply, err = t.frozen.store.AppendReply(out[len(out):], c.Cmd.Keys(c.Args), c.Cmd.Op == redis.OpMGet, len(calls)-1-i); err == nil {
			p.out, c.Reply = redis.PlaceReply(out, reply)
			p.rendered += len(reply)
		}
	}
	if serr := w.th.VASSwitch(core.PrimaryHandle); err != nil || serr != nil {
		return false
	}
	n := uint64(len(calls))
	r.ctr.Fork.FollowerReads.Add(n)
	if t.degraded {
		r.ctr.Overload.DegradedReads.Add(n)
	}
	return true
}

// callBudget returns the cycle cap to hand a remote call: the in-flight
// request's remaining allowance, floored at 1 so an armed budget that
// raced to zero between resolve's refusal check and the dispatch still caps
// the call (0 means unlimited to urpc.CallBudget).
func (w *worker) callBudget() uint64 {
	if !w.bud.Active() {
		return 0
	}
	rem := w.bud.Remaining(w.th.Core.Cycles())
	if rem == 0 {
		rem = 1
	}
	return rem
}

// serve carries out calls — one command, or a run resolve gave one answer
// for — on node n as that answer t says, and leaves each one's reply in it.
// On a client it is one redis.RunAll: one switch pair. Over an endpoint the
// run goes out as one frame under the budget in force and one hold of the
// node's mutex, and the node's replies, back to back in one response that
// lands in the batch's reply chunk, are cut apart in place (RESP is
// self-delimiting); the outcome feeds the node's breaker, the cycles are
// attributed to the urpc path and a transport failure is the ready-made error
// reply — all per command, each charged an equal share of the run's round
// trip. The frame is posted: the worker pays its lines now and the node's turn
// at the collect, and serve returns the stamp the turn is done at (0: nothing
// went out). A frozen view is one switch in for the run (readFrozen); a
// refusal is only ever one command's.
func (r *Router) serve(w *worker, n *node, t target, calls []redis.Call) (ready uint64) {
	before := w.th.Core.Cycles()
	switch {
	case t.refusal != nil:
		calls[0].Reply = t.refusal
	case t.frozen != nil:
		if !r.readFrozen(w, t, calls) {
			// The view could not be read after all: the primary answers each.
			for i := range calls {
				ready = max(ready, r.serve(w, n, r.resolve(w, n, calls[i].Cmd, false), calls[i:i+1]))
			}
		}
	case t.client != nil:
		w.plan.out = redis.RunAll(t.client, calls, w.plan.out)
		for i := range calls {
			w.plan.rendered += len(calls[i].Reply)
		}
		k := uint64(len(calls))
		r.ctr.Local.Add(k)
		r.ctr.LocalCycles.ObserveN((w.th.Core.Cycles()-before)/k, k)
		n.ctr.Local.Add(k)
	default:
		p := &w.plan
		out := p.out
		resp, turn, err := n.call(t.ep, w.remoteWire(calls), out[len(out):], w.callBudget())
		ready = w.th.Core.Cycles()
		trip := ready - before + turn // the round trip by itself: transfers, dispatch, the node's work
		each := trip / uint64(len(calls))
		if p.lastNode == n.id {
			ready = max(ready, p.lastReady)
		}
		ready += turn
		p.lastNode, p.lastReady = n.id, ready
		if err == nil {
			r.ctr.URPCCallCycles.Observe(trip)
			p.out, resp = redis.PlaceReply(out, resp)
			p.rendered += len(resp)
		}
		for i := range calls {
			c := &calls[i]
			if err == nil {
				if c.Reply, resp, err = redis.NextReply(resp); err == nil && i == len(calls)-1 && len(resp) > 0 {
					err = fmt.Errorf("%d bytes behind the last reply", len(resp))
				}
			}
			n.noteOutcome(err)
			if err != nil {
				c.Reply = r.remoteError(n, err)
				continue
			}
			r.obs.ClusterRemote(n.id, each)
		}
	}
	return ready
}

// poke hands node id to the monitor on one of its channels without ever
// blocking the caller: a full channel means the monitor has plenty queued
// already, a nil one that there is no monitor.
func poke(ch chan int, id int) {
	select {
	case ch <- id:
	default:
	}
}

// frozenReaderFor returns this worker's cached attachment to view v,
// rotating the cache when the node forked a newer view or the old one was
// invalidated. Returns nil (caller serves the primary) when the view
// cannot be attached — e.g. it was swept between the engine lookup and the
// attach. The re-check after attaching closes the release race: a view
// that is still the node's current one cannot be reclaimed while this
// attachment exists (VASDestroy refuses attached VASes), and a view
// retired in the window is dropped before any read goes through it.
func (w *worker) frozenReaderFor(n *node, v *fork.View) *frozenReader {
	nid := n.id
	if fr := w.frozen[nid]; fr != nil {
		if fr.view == v && !v.Invalid() {
			return fr
		}
		_ = w.th.VASDetach(fr.h)
		delete(w.frozen, nid)
	}
	h, err := w.th.VASAttach(v.VID())
	if err != nil {
		return nil
	}
	var store *redis.Store
	if n.forks.Current(nid) != v {
		err = core.ErrInvalid // retired while this attach was in flight
	} else if err = w.th.VASSwitch(h); err == nil {
		store, err = redis.OpenStore(w.th, redis.SegBase)
		if serr := w.th.VASSwitch(core.PrimaryHandle); err == nil {
			err = serr
		}
	}
	if err != nil {
		_ = w.th.VASDetach(h)
		return nil
	}
	fr := &frozenReader{view: v, h: h, store: store}
	w.frozen[nid] = fr
	return fr
}

// remoteError renders a failed remote call. A transport timeout — the typed
// urpc.TimeoutError, recognizable end to end via core.ErrTimeout — becomes
// the retryable SHARDTIMEOUT reply, a timeout count against the node, and
// dead-node evidence for the monitor; anything else is a hard shard error.
func (r *Router) remoteError(n *node, err error) []byte {
	if errors.Is(err, urpc.ErrBudget) {
		// Checked before ErrTimeout: a BudgetError unwraps to both, and the
		// distinction matters — the deadline ran out, not the node.
		r.ctr.Overload.DeadlineExpired.Add(1)
		return redis.EncodeDeadline(fmt.Sprintf("node %d: budget exhausted mid-call, retry", n.id))
	}
	if errors.Is(err, urpc.ErrTimeout) {
		r.ctr.Timeouts.Add(1)
		n.ctr.Timeouts.Add(1)
		poke(r.suspectCh, n.id)
		return redis.EncodeShardTimeout(n.id)
	}
	return redis.EncodeError(fmt.Sprintf("shard error: node %d: %s", n.id, err))
}
