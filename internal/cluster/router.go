package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
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

	// run is the run being formed, calls its commands as redis.RunAll takes
	// them, wire their RESP encoding for a remote node: all reused from one
	// run to the next (the endpoint copies wire into the ring before the
	// call returns).
	run   []started
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
		lat := uint64(time.Since(b.Start).Nanoseconds())
		w.ctr.Commands.Add(uint64(len(b.Reqs)))
		r.srv.Commands.Add(uint64(len(b.Reqs)))
		for range b.Reqs {
			r.srv.LatencyNs.Observe(lat)
		}
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

// started is one command a worker has begun: budget armed, way in over the
// network edge charged and, for a store command one node owns, that node and
// where resolve says it runs. n is nil for what is carried out alone because
// no one node's store answers it as it stands — an MGET across nodes, a write
// on a migrating slot — and for what the router answers itself.
type started struct {
	req *server.Request
	n   *node
	bud overload.Budget
	t   target
}

// execBatch carries out a connection's batch in order. Store commands run
// under the topology read lock, taken once for the batch — every one resolves
// against one slot-table epoch and node list, and a slot flip or node append
// waits out the batch — and let go only around the commands the router
// answers itself (CLUSTER reads the topology under its own read lock, and
// nesting read locks around a waiting writer self-deadlocks).
//
// Maximal adjacent store commands that one node owns, that need the same VAS
// of its store (reads the read-only one, writes the read-write one) and that
// resolve to the same live copy of it form a run: one switch pair and one
// lock acquisition on a co-resident store or a promoted standby, one urpc
// frame under one hold of the node's mutex to a remote primary. Whatever else
// comes ends the run and is carried out as a run of one: a refusal, a read of
// a frozen view, an MGET across nodes, a write on a migrating slot, a command
// the router answers, a frame that would outgrow the ring. Nothing is
// reordered, within a node or across nodes.
func (r *Router) execBatch(w *worker, b *server.Batch) {
	locked, answered := false, 0
	run, size := w.run[:0], 0 // the run being formed, and its size on the wire
	flush := func() {
		if len(run) > 0 {
			r.execRun(w, run)
			// The run's replies can go out while the rest of the batch runs.
			answered += len(run)
			b.Answered(answered)
			run, size = run[:0], 0
		}
	}
	for _, req := range b.Reqs {
		if store := req.Cmd.By == redis.ByStore; store != locked {
			flush()
			if locked = store; store {
				r.topoMu.RLock()
			} else {
				r.topoMu.RUnlock()
			}
		}
		n, wire := r.locate(req), redis.CommandSize(req.Args)
		if len(run) > 0 && (n != run[0].n || req.Cmd.Write != run[0].req.Cmd.Write ||
			run[0].t.ep != nil && urpc.Lines(size+wire) > ringSlots) {
			flush()
		}
		s := r.start(w, req, n)
		if len(run) > 0 && (s.t.client != run[0].t.client || s.t.ep != run[0].t.ep) {
			flush() // resolved another way than the run it would have joined
		}
		run, size = append(run, s), size+wire
		if s.t.client == nil && s.t.ep == nil {
			flush() // nothing can join it
		}
	}
	flush()
	w.run = run
	if locked {
		r.topoMu.RUnlock()
	}
	if answered == 0 {
		b.Answered(0) // RemoveNode's empty batch: taken up, nothing to answer
	}
}

// locate returns the node that owns every key of a store command — nil when
// no one node's store answers the command as it stands (see started), and for
// a command no store is behind. For a store command the caller holds the
// topology read lock.
func (r *Router) locate(req *server.Request) *node {
	if req.Cmd.By != redis.ByStore {
		return nil
	}
	keys := req.Cmd.Keys(req.Args)
	slot := r.Slot(keys[0])
	if req.Cmd.Write && r.migs[slot].Load() != nil {
		return nil
	}
	owner := r.Owner(slot)
	for _, k := range keys[1:] {
		if r.Owner(r.Slot(k)) != owner {
			return nil
		}
	}
	return r.nodes[owner]
}

// start begins a command: it arms the request's deadline budget against this
// worker's core — every cycle the worker burns from here on drains it —
// charges the command's way in over the network edge and, when n owns its
// keys, resolves where it runs.
func (r *Router) start(w *worker, req *server.Request, n *node) started {
	w.bud = overload.Arm(req.Deadline, w.th.Core.Cycles())
	var size int
	for _, a := range req.Args {
		size += len(a)
	}
	w.th.Core.AddCycles(server.EdgeCycles(size))
	s := started{req: req, n: n, bud: w.bud}
	if n != nil {
		s.t = r.resolve(w, n, req.Cmd, req.Readonly)
	}
	return s
}

// execRun carries out the run the worker formed — or the one command that
// formed none — under the tightest of its members' budgets, and finishes the
// members in order: the reply's way out charged (the cycle deltas recorded
// per mode sit between the two edge charges, so they compare the serving
// paths themselves), what a budget has left fed to the budget histogram.
func (r *Router) execRun(w *worker, run []started) {
	req := run[0].req
	calls := w.calls[:0]
	now := w.th.Core.Cycles()
	for _, s := range run {
		calls = append(calls, redis.Call{Cmd: s.req.Cmd, Args: s.req.Args})
		if s.bud.Active() && (!w.bud.Active() || s.bud.Remaining(now) < w.bud.Remaining(now)) {
			w.bud = s.bud
		}
	}
	switch {
	case run[0].n != nil:
		r.serve(w, run[0].n, run[0].t, calls)
	case req.Cmd.Op == redis.OpMGet:
		calls[0].Reply = r.mget(w, req.Cmd, req.Cmd.Keys(req.Args), req.Readonly)
	case req.Cmd.By == redis.ByStore:
		calls[0].Reply = r.exec1(w, req.Cmd, req.Args, req.Readonly)
	case req.Cmd.Op == redis.OpClusterSlots:
		calls[0].Reply = r.clusterSlotsReply()
	case req.Cmd.Op == redis.OpClusterNodes:
		calls[0].Reply = r.clusterNodesReply()
	case req.Cmd.By == redis.ByRouter:
		calls[0].Reply = redis.Run(nil, req.Cmd, req.Args) // PING, ECHO
	default:
		// Refused before any node is touched.
		calls[0].Reply = req.Cmd.Refusal(req.Args)
	}
	for i, s := range run {
		w.th.Core.AddCycles(server.EdgeCycles(len(calls[i].Reply)))
		if s.bud.Active() {
			r.ctr.Overload.BudgetRemaining.Observe(s.bud.Remaining(w.th.Core.Cycles()))
		}
		s.req.Finish(calls[i].Reply)
	}
	clear(calls)
	w.calls = calls
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

// readFrozen answers a GET (array false, one key) or a group's MGET of keys
// — all owned by t's node — on one switch into its frozen view, by the loop
// the live store's reply is built with, minus the parse charge and the
// shared lock: the frozen segment is not lockable, its frames are immutable.
// A nil reply means the view could not be read after all, and the caller
// resolves again for the primary.
func (r *Router) readFrozen(w *worker, t target, keys []string, array bool) []byte {
	if err := w.th.VASSwitch(t.frozen.h); err != nil {
		return nil
	}
	reply, err := t.frozen.store.AppendReply(nil, keys, array)
	if serr := w.th.VASSwitch(core.PrimaryHandle); err != nil || serr != nil {
		return nil
	}
	r.ctr.Fork.FollowerReads.Add(1)
	if t.degraded {
		r.ctr.Overload.DegradedReads.Add(1)
	}
	return reply
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

// exec1 serves one single-key command on the node owning its slot. Caller
// holds the topology read lock. A write that lands on a migrating slot
// serializes through the migration's mutex — executed on the source and
// recorded in the delta log as one atomic step, so replay order on the
// target matches store order on the source exactly. Once the migration is
// fenced (the flip is imminent), writes get the retryable -MOVED; reads
// keep serving from the still-authoritative source until the flip, so no
// slot ever goes dark.
func (r *Router) exec1(w *worker, cmd *redis.Command, args []string, readonly bool) []byte {
	slot := r.Slot(args[cmd.FirstKey])
	n := r.nodes[r.Owner(slot)]
	if mig := r.migs[slot].Load(); mig != nil && cmd.Write {
		mig.mu.Lock()
		defer mig.mu.Unlock()
		if mig.fenced.Load() {
			r.ctr.Migration.MovedRetries.Add(1)
			return redis.EncodeMoved(slot, mig.dst)
		}
		resp := r.execOn(w, n, cmd, args, readonly)
		if len(resp) > 0 && resp[0] != '-' {
			mig.delta.record(args)
		}
		return resp
	}
	return r.execOn(w, n, cmd, args, readonly)
}

// execOn runs one command whose keys node n owns — a write on a migrating
// slot, or one node's group of an MGET — wherever resolve says n serves it.
func (r *Router) execOn(w *worker, n *node, cmd *redis.Command, args []string, readonly bool) []byte {
	one := [1]redis.Call{{Cmd: cmd, Args: args}}
	r.serve(w, n, r.resolve(w, n, cmd, readonly), one[:])
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
// share of the run. A refusal or a frozen view is only ever one command's.
func (r *Router) serve(w *worker, n *node, t target, calls []redis.Call) {
	before := w.th.Core.Cycles()
	switch {
	case t.refusal != nil:
		calls[0].Reply = t.refusal
	case t.frozen != nil:
		c := &calls[0]
		if c.Reply = r.readFrozen(w, t, c.Cmd.Keys(c.Args), c.Cmd.Op == redis.OpMGet); c.Reply == nil {
			// The view could not be read after all: the primary answers.
			r.serve(w, n, r.resolve(w, n, c.Cmd, false), calls)
		}
	case t.client != nil:
		redis.RunAll(t.client, calls)
		each := (w.th.Core.Cycles() - before) / uint64(len(calls))
		for range calls {
			r.ctr.Local.Add(1)
			r.ctr.LocalCycles.Observe(each)
			n.ctr.Local.Add(1)
		}
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

// mget fans a multi-key GET out across the nodes owning its keys' slots
// and merges the replies back into key order. Each node's keys go to execOn
// as an MGET of their own — name, then the keys, which is what a remote
// node is sent — so a group is served like any command: one VAS switch into
// the live store or the frozen view (one shared-lock acquisition, however
// many keys), one urpc round trip otherwise. The group's array reply is cut
// into its encoded elements in place and the elements joined in key order.
// Any shard failure fails the whole command, the group's refusal relayed as
// the reply — a partial (or partially bounded) MGET would be
// indistinguishable from missing keys. Caller holds the topology read lock,
// so every key resolves against one table epoch. Reads on migrating slots
// serve from the source, which stays authoritative until the flip.
func (r *Router) mget(w *worker, cmd *redis.Command, keys []string, readonly bool) []byte {
	groups := make(map[int][]int, len(r.nodes)) // node id → indices into keys
	for i, k := range keys {
		nid := r.Owner(r.Slot(k))
		groups[nid] = append(groups[nid], i)
	}
	elems := make([][]byte, len(keys))
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
		// A fan-out burns budget group by group; catch exhaustion between
		// groups so a slow early shard can't push later dispatches past the
		// deadline silently.
		if now := w.th.Core.Cycles(); w.bud.Exhausted(now) {
			r.ctr.Overload.DeadlineExpired.Add(1)
			return redis.EncodeDeadline(fmt.Sprintf(
				"budget exhausted after %d cycles mid-MGET, retry", w.bud.Spent(now)))
		}
		resp := r.execOn(w, r.nodes[nid], cmd, argv, readonly)
		got, err := redis.SplitArrayReply(resp)
		if err == nil && len(got) != len(idxs) {
			err = errors.New("short MGET reply")
		}
		if err != nil {
			if errors.As(err, new(redis.ReplyError)) {
				return resp // the group's refusal is the whole command's reply
			}
			return redis.EncodeError("shard protocol error: " + err.Error())
		}
		for j, i := range idxs {
			elems[i] = got[j]
		}
	}
	return redis.JoinArrayReply(elems)
}

// clusterSlotsReply renders CLUSTER SLOTS: an array of slot ranges, each
// [start, end, [node-name, node-id]] — the Redis shape with the simulated
// node's name standing in for host:port.
func (r *Router) clusterSlotsReply() []byte {
	ranges := r.PlacementInfo().Ranges
	var b bytes.Buffer
	fmt.Fprintf(&b, "*%d\r\n", len(ranges))
	for _, rg := range ranges {
		name := fmt.Sprintf("node-%d", rg.Node)
		fmt.Fprintf(&b, "*3\r\n:%d\r\n:%d\r\n*2\r\n$%d\r\n%s\r\n:%d\r\n",
			rg.Start, rg.End, len(name), name, rg.Node)
	}
	return b.Bytes()
}

// clusterNodesReply renders CLUSTER NODES: one line per node in the Redis
// field order (id, address, flags, master, ping, pong, epoch, state, slot
// ranges), as a bulk string.
func (r *Router) clusterNodesReply() []byte {
	t := r.Table()
	var b strings.Builder
	for _, n := range r.Topology() {
		addr := fmt.Sprintf("core:%d", n.Core)
		if n.Local {
			addr = "local:vas"
		}
		flags := "master"
		if n.Promoted {
			flags = "master,standby-promoted"
		}
		state := "connected"
		switch {
		case n.Removed:
			addr, state = "-", "removed"
		case n.State != "" && n.State != "healthy":
			state = n.State
		}
		ranges := strings.ReplaceAll(slotRanges(t.slotsOf(n.ID)), ",", " ")
		if ranges == "none" {
			ranges = ""
		}
		line := fmt.Sprintf("node-%d %s %s - 0 0 %d %s %s", n.ID, addr, flags, t.Version, state, ranges)
		b.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	return redis.EncodeBulk([]byte(b.String()))
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
