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
// endpoint to every remote node. Only this goroutine drives the thread; the
// endpoints' inline handlers drive node cores, serialized by each node's
// mutex.
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
	clients   map[int]*redis.Client
	endpoints map[int]*urpc.Endpoint // remote nodes, by node id
	frozen    map[int]*frozenReader  // frozen-view attachments, by node id
	err       error                  // first error letting go of a store or view (reconcile, release)
	removals  uint64                 // the Router.removals last reconciled against

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
		id:        id,
		queue:     make(chan *server.Batch, r.cfg.QueueDepth+1), // +1: RemoveNode's empty batch
		ctr:       r.srv.Shards.Row(id),
		proc:      proc,
		th:        th,
		clients:   map[int]*redis.Client{},
		endpoints: map[int]*urpc.Endpoint{},
		frozen:    map[int]*frozenReader{},
	}, nil
}

// wireWorker attaches the worker to every node: a client per co-resident
// store (the first attachment bootstraps it), an endpoint per remote node.
func (r *Router) wireWorker(w *worker) error {
	for _, n := range r.nodes {
		if n.local {
			if _, err := r.attachStore(w.th, w.clients, n); err != nil {
				return err
			}
		} else {
			w.endpoints[n.id] = r.connect(w.th.Core.ID, n)
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
		w.queued.Add(-int64(len(b.Reqs)))
		w.reconcile(r)
		r.execBatch(w, b)
		lat, n := uint64(time.Since(b.Start).Nanoseconds()), uint64(len(b.Reqs))
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
// (walk), which fills in the members' budgets and targets, the fans' replies
// (each part's cut apart in cut) and which requests are done, publishing the
// prefix answered. Reused batch after batch: grouping allocates nothing.
type plan struct {
	members  []member
	fans     []fan
	argv     []string
	owners   []int
	elems    [][]byte
	cut      [][]byte
	done     []bool
	answered int
}

// member is a command of the stretch, at its place in the batch, or a part of
// an MGET across nodes, whose fan is then fans[fan-1]: node owns its keys, args
// is what runs. The plan is steps: each starts at a member marked step and is
// a run, one node's members, all reads or all writes, or a barrier, a write on
// a slot migrating (mig) off its node, run alone. The walk sets bud, the
// member's budget, and t, where it runs.
type member struct {
	req  *server.Request
	at   int
	node int
	args []string
	fan  int
	step bool
	mig  *migration
	bud  overload.Budget
	t    target
}

// fan is an MGET across nodes: begun by its first part, answered by its last.
type fan struct {
	owners  []int // each key's owning node, in key order
	left    int   // parts not back yet
	started bool
	bud     overload.Budget
	elems   [][]byte // each key's element of the reply, once its part is back
	reply   []byte   // the refusal that answers the whole MGET, once a part earns one
}

// make plans the stretch of store commands that starts at reqs[lo] and returns
// where it ends. It is pure: locate says which node owns a key and, while its
// slot migrates, the migration; nothing is counted or resolved. A write on a
// migrating slot is a barrier; between two, a segment goes node by node (runs).
func (p *plan) make(reqs []*server.Request, lo int, locate func(key string) (int, *migration)) (hi int) {
	p.members, p.fans, p.argv, p.owners, p.elems = p.members[:0], p.fans[:0], p.argv[:0], p.owners[:0], p.elems[:0]
	seg := 0 // where the segment being gathered starts in members
	for hi = lo; hi < len(reqs) && reqs[hi].Cmd.By == redis.ByStore; hi++ {
		m := member{req: reqs[hi], at: hi, args: reqs[hi].Args}
		if m.req.Cmd.Op == redis.OpMGet {
			p.mget(m, locate)
			continue
		}
		var mig *migration
		if m.node, mig = locate(m.args[m.req.Cmd.FirstKey]); mig != nil && m.req.Cmd.Write {
			p.runs(seg)
			m.step, m.mig, seg = true, mig, len(p.members)+1
		}
		p.members = append(p.members, m)
	}
	p.runs(seg)
	return hi
}

// mget adds an MGET to the segment: whole when one node owns every key, else
// as a fan of parts, one per owning node in node-id order, each an MGET of that
// node's keys in key order (a migrating slot's keys are its source's).
func (p *plan) mget(m member, locate func(string) (int, *migration)) {
	keys, at := m.req.Cmd.Keys(m.args), len(p.owners)
	for _, k := range keys {
		o, _ := locate(k)
		p.owners = append(p.owners, o)
	}
	lo, hi := slices.Min(p.owners[at:]), slices.Max(p.owners[at:])
	if lo == hi {
		p.owners, m.node = p.owners[:at], lo
		p.members = append(p.members, m)
		return
	}
	e := len(p.elems)
	p.elems = append(p.elems, make([][]byte, len(keys))...)
	p.fans = append(p.fans, fan{owners: p.owners[at:], elems: p.elems[e:]})
	f := &p.fans[len(p.fans)-1]
	for m.fan, m.node = len(p.fans), lo; m.node <= hi; m.node++ {
		if !slices.Contains(f.owners, m.node) {
			continue
		}
		a := len(p.argv)
		p.argv = append(p.argv, m.req.Cmd.Name)
		for i, o := range f.owners {
			if o == m.node {
				p.argv = append(p.argv, keys[i])
			}
		}
		m.args = p.argv[a:]
		p.members = append(p.members, m)
		f.left++
	}
}

// runs orders the segment gathered at members[seg:] node by node — nodes in
// the order they first appear, each one's members in arrival order: a member
// moves ahead only across other nodes', disjoint keys, so the two commute —
// and starts a run at each node and wherever Cmd.Write flips, as reads and
// writes use different VASes of a store.
func (p *plan) runs(seg int) {
	end := len(p.members)
	for i := seg; i < end; i++ {
		n := p.members[i].node
		if n < 0 {
			continue // laid out with an earlier node's
		}
		for j := i; j < end; j++ {
			if p.members[j].node != n {
				continue
			}
			m := p.members[j]
			m.step = j == i || m.req.Cmd.Write != p.members[len(p.members)-1].req.Cmd.Write
			p.members = append(p.members, m)
			p.members[j].node = -1
		}
	}
	p.members = append(p.members[:seg], p.members[end:]...)
}

// locate is what plan.make asks of the topology, under its read lock: the
// node owning key's slot and, while the slot migrates, the migration.
func (r *Router) locate(key string) (int, *migration) {
	slot := r.Slot(key)
	return r.Owner(slot), r.migs[slot].Load()
}

// execBatch carries out a connection's batch. A command the router answers
// itself runs alone, outside the topology read lock (CLUSTER takes it, and
// nesting read locks around a waiting writer self-deadlocks). The stretch of
// store commands up to the next one is planned and walked under the read lock
// taken once for it: a slot flip or node append waits out the stretch, and the
// next stretch, planned after it, sees it. Replies go out in arrival order.
func (r *Router) execBatch(w *worker, b *server.Batch) {
	p := &w.plan
	p.done, p.answered = append(p.done[:0], make([]bool, len(b.Reqs))...), 0
	for lo, hi := 0, 0; lo < len(b.Reqs); lo = hi {
		if req := b.Reqs[lo]; req.Cmd.By != redis.ByStore {
			r.execAlone(w, b, member{req: req, at: lo}, nil)
			hi = lo + 1
			continue
		}
		r.topoMu.RLock()
		hi = p.make(b.Reqs, lo, r.locate)
		r.walk(w, b)
		r.topoMu.RUnlock()
	}
	if len(b.Reqs) == 0 {
		b.Answered(0) // RemoveNode's empty batch: taken up, nothing to answer
	}
	p.reset()
}

// walk carries out the planned steps, each member begun at its turn. What only
// resolution knows still cuts a run: a member resolved another way than its
// head, a refusal, a frame that would outgrow the ring. A part of a settled
// MGET is not sent. A run forms in place, over members already carried out.
func (r *Router) walk(w *worker, b *server.Batch) {
	p := &w.plan
	run, size := p.members[:0], 0 // the run being formed, and its size on the wire
	flush := func() {
		if len(run) > 0 {
			r.execRun(w, b, r.nodes[run[0].node], run)
			run, size = run[:0], 0
		}
	}
	for _, m := range p.members {
		n, wire := r.nodes[m.node], redis.CommandSize(m.args)
		if m.step || len(run) > 0 && run[0].t.ep != nil && urpc.Lines(size+wire) > ringSlots {
			flush()
		}
		if m.mig != nil {
			r.execAlone(w, b, m, n)
			continue
		}
		if !r.begin(w, n, &m) {
			r.finish(w, &m, nil)
			p.publish(b)
			continue
		}
		if len(run) > 0 && !m.t.joins(run[0].t) {
			flush()
		}
		if run, size = append(run, m), size+wire; m.t.refusal != nil {
			flush()
		}
	}
	flush()
}

// execAlone carries out a write on a slot migrating off node n or, with no
// migration, a command the router answers itself or refuses.
func (r *Router) execAlone(w *worker, b *server.Batch, m member, n *node) {
	cmd, args := m.req.Cmd, m.req.Args
	m.bud = w.arm(m.req)
	var reply []byte
	switch {
	case m.mig != nil:
		reply = r.migratingWrite(w, n, m.mig, m.req)
	case cmd.Op == redis.OpClusterSlots:
		reply = r.clusterSlotsReply()
	case cmd.Op == redis.OpClusterNodes:
		reply = r.clusterNodesReply()
	case cmd.By == redis.ByRouter:
		reply = redis.Run(nil, cmd, args) // PING, ECHO
	default:
		reply = cmd.Refusal(args) // before any node is touched
	}
	r.finish(w, &m, reply)
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

// begin begins m on node n and resolves where it runs. A part's budget is its
// MGET's, armed by the first part begun, and re-checked by every part before
// it resolves. false: the MGET is settled (a part was refused, or the budget
// ran out), and this part is neither resolved nor sent.
func (r *Router) begin(w *worker, n *node, m *member) bool {
	if m.fan == 0 {
		m.bud = w.arm(m.req)
	} else {
		f := &w.plan.fans[m.fan-1]
		if !f.started {
			f.started, f.bud = true, w.arm(m.req)
		}
		w.bud, m.bud = f.bud, f.bud
		if now := w.th.Core.Cycles(); f.reply == nil && w.bud.Exhausted(now) {
			r.ctr.Overload.DeadlineExpired.Add(1)
			f.reply = redis.EncodeDeadline(fmt.Sprintf(
				"budget exhausted after %d cycles mid-MGET, retry", w.bud.Spent(now)))
		}
		if f.reply != nil {
			return false
		}
	}
	m.t = r.resolve(w, n, m.req.Cmd, m.req.Readonly)
	return true
}

// execRun carries out a run on node n under the tightest of its members'
// budgets, finishes the members in order and publishes what that answered.
func (r *Router) execRun(w *worker, b *server.Batch, n *node, run []member) {
	calls := w.calls[:0]
	now := w.th.Core.Cycles()
	for i := range run {
		m := &run[i]
		calls = append(calls, redis.Call{Cmd: m.req.Cmd, Args: m.args})
		if m.bud.Active() && (!w.bud.Active() || m.bud.Remaining(now) < w.bud.Remaining(now)) {
			w.bud = m.bud
		}
	}
	r.serve(w, n, run[0].t, calls)
	for i := range run {
		r.finish(w, &run[i], calls[i].Reply)
	}
	clear(calls)
	w.calls = calls
	w.plan.publish(b)
}

// finish answers m's request with reply, charging its way out (the per-mode
// cycle deltas sit between the two edge charges) and recording what its budget
// has left. A part answers only as its fan's last back; reply is nil for a
// part not sent.
func (r *Router) finish(w *worker, m *member, reply []byte) {
	if m.fan != 0 {
		if reply = w.plan.partBack(m, reply); reply == nil {
			return
		}
	}
	w.th.Core.AddCycles(server.EdgeCycles(len(reply)))
	if m.bud.Active() {
		r.ctr.Overload.BudgetRemaining.Observe(m.bud.Remaining(w.th.Core.Cycles()))
	}
	m.req.Finish(reply)
	w.plan.done[m.at] = true
}

// partBack puts a part's reply elements at their keys' places in its fan and
// returns the MGET's reply, joined in key order, once the last part is back.
// The first part refused answers the whole MGET, and so does a malformed or
// short reply: a partial MGET would read as missing keys.
func (p *plan) partBack(m *member, reply []byte) []byte {
	f := &p.fans[m.fan-1]
	if f.reply == nil {
		elems, err := redis.SplitArrayReply(p.cut[:0], reply)
		if err == nil && len(elems) != len(m.args)-1 {
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
	return redis.JoinArrayReply(f.elems)
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

// reset lets go of the batch: past their lengths, too, the buffers would keep
// its requests (their fill, and every reply in it) and MGET keys reachable.
func (p *plan) reset() {
	p.members, p.fans, p.argv, p.owners = wipe(p.members), wipe(p.fans), wipe(p.argv), wipe(p.owners)
	p.elems, p.cut, p.done = wipe(p.elems), wipe(p.cut), wipe(p.done)
}

func wipe[S ~[]E, E any](s S) S {
	clear(s[:cap(s)])
	return s[:0]
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
	ep := w.endpoints[n.id]
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
	for i := 0; i < len(calls) && err == nil; i++ {
		c := &calls[i]
		c.Reply, err = t.frozen.store.AppendReply(nil, c.Cmd.Keys(c.Args), c.Cmd.Op == redis.OpMGet)
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

// migratingWrite serves a write on a slot migrating off node n: serialized
// through the migration's mutex, executed on the source and recorded in the
// delta log as one atomic step, so replay order on the target matches store
// order on the source exactly. Once the migration is fenced (the flip is
// imminent), the write gets the retryable -MOVED; reads keep serving from the
// still-authoritative source until the flip, so no slot ever goes dark. The
// caller holds the topology read lock.
func (r *Router) migratingWrite(w *worker, n *node, mig *migration, req *server.Request) []byte {
	mig.mu.Lock()
	defer mig.mu.Unlock()
	if mig.fenced.Load() {
		r.ctr.Migration.MovedRetries.Add(1)
		return redis.EncodeMoved(mig.slot, mig.dst)
	}
	one := [1]redis.Call{{Cmd: req.Cmd, Args: req.Args}}
	r.serve(w, n, r.resolve(w, n, req.Cmd, req.Readonly), one[:])
	if resp := one[0].Reply; len(resp) > 0 && resp[0] != '-' {
		mig.delta.record(req.Args)
	}
	return one[0].Reply
}

// serve carries out calls — one command, or a run resolve gave one answer
// for — on node n as that answer t says, and leaves each one's reply in it.
// On a client it is one redis.RunAll: one switch pair. Over an endpoint the
// run goes out as one frame under the budget in force and one hold of the
// node's mutex, and the node's replies, back to back in one response, are cut
// apart in place (RESP is self-delimiting); the outcome feeds the node's
// breaker, the cycles are attributed to the urpc path and a transport failure
// is the ready-made error reply — all per command, each charged an equal
// share of the run. A frozen view is one switch in for the run (readFrozen);
// a refusal is only ever one command's.
func (r *Router) serve(w *worker, n *node, t target, calls []redis.Call) {
	before := w.th.Core.Cycles()
	switch {
	case t.refusal != nil:
		calls[0].Reply = t.refusal
	case t.frozen != nil:
		if !r.readFrozen(w, t, calls) {
			// The view could not be read after all: the primary answers each.
			for i := range calls {
				r.serve(w, n, r.resolve(w, n, calls[i].Cmd, false), calls[i:i+1])
			}
		}
	case t.client != nil:
		redis.RunAll(t.client, calls)
		k := uint64(len(calls))
		r.ctr.Local.Add(k)
		r.ctr.LocalCycles.ObserveN((w.th.Core.Cycles()-before)/k, k)
		n.ctr.Local.Add(k)
	default:
		resp, callCycles, err := n.call(t.ep, w.remoteWire(calls), w.callBudget())
		each := (w.th.Core.Cycles() - before) / uint64(len(calls))
		if err == nil {
			// The round trip by itself: transfers, dispatch, the node's work.
			r.ctr.URPCCallCycles.Observe(callCycles)
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
			if c.Cmd.Write {
				r.bufferWrite(n, c.Args, c.Reply)
			}
		}
	}
}

// bufferWrite records a successfully applied remote write (the caller
// checked the command's Write flag) in the node's delta log — the
// post-checkpoint tail a promotion replays — and pokes the monitor when
// the window crosses the ship trigger. The append happens
// after the node's mutex is released, so an entry can land just after a
// concurrent ship truncated the window — harmless, because SET/DEL replay
// is idempotent.
func (r *Router) bufferWrite(n *node, args []string, resp []byte) {
	if !n.replicated || len(resp) == 0 || resp[0] == '-' {
		return
	}
	if buffered := n.delta.record(args); buffered > 0 && buffered%r.cfg.Replication.ShipEvery == 0 {
		poke(r.shipCh, n.id)
	}
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
