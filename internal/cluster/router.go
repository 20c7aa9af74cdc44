package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
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
	id    int
	queue chan *server.Request
	ctr   *stats.ShardCounters

	proc *core.Process
	th   *core.Thread

	// clients holds the stores this worker serves by switching VAS, by
	// node id: every co-resident node's (attached at wiring) and, after a
	// promotion, a remote node's standby (attached on first use).
	clients   map[int]*redis.Client
	endpoints map[int]*urpc.Endpoint // remote nodes, by node id
	frozen    map[int]*frozenReader  // frozen-view attachments, by node id
	err       error                  // first teardown error, read after workerWG.Wait

	// bud is the in-flight request's deadline budget, armed against this
	// worker's core cycle counter when execution starts. Only this
	// worker's goroutine touches it — one request at a time.
	bud overload.Budget

	// wire is the RESP encoding of the command being sent to a remote node,
	// reused from one command to the next: the endpoint copies it into the
	// ring before the call returns (see remoteWire).
	wire []byte
}

// maxKeptWire bounds the encoding buffer a worker keeps between commands,
// so one huge value does not stay pinned to every worker that relayed it.
const maxKeptWire = 64 << 10

// remoteWire encodes a command for a remote node into the worker's reused
// buffer. The result is valid until the worker's next remoteWire.
func (w *worker) remoteWire(args []string) []byte {
	if cap(w.wire) > maxKeptWire {
		w.wire = nil
	}
	w.wire = redis.AppendCommand(w.wire[:0], args...)
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

func (r *Router) newWorker(id int, ctr *stats.ShardCounters) (*worker, error) {
	proc, th, err := r.claimThread()
	if err != nil {
		return nil, err
	}
	return &worker{
		id:        id,
		queue:     make(chan *server.Request, r.cfg.QueueDepth),
		ctr:       ctr,
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

// runWorker drains the queue until it closes, then detaches from every
// frozen view and store it attached and exits the process.
func (r *Router) runWorker(w *worker) {
	defer r.workerWG.Done()
	for req := range w.queue {
		w.ctr.Command()
		req.Finish(r.exec(w, req))
		r.obs.ServerCommand(uint64(time.Since(req.Start).Nanoseconds()))
	}
	for _, fr := range w.frozen {
		if err := w.th.VASDetach(fr.h); err != nil && w.err == nil {
			w.err = err
		}
	}
	for _, c := range w.clients {
		if err := c.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	w.proc.Exit()
}

// Bind stripes the connection onto a worker (server.Backend).
func (r *Router) Bind(connID uint64) uint64 {
	w := r.workers[int(connID)%len(r.workers)]
	w.ctr.Conn()
	return uint64(w.id)
}

// Submit enqueues the request on the connection's worker, failing fast when
// its queue is full (server.Backend).
func (r *Router) Submit(connID uint64, req *server.Request) bool {
	w := r.workers[int(connID)%len(r.workers)]
	select {
	case w.queue <- req:
		d := len(w.queue)
		w.ctr.QueueDepth(d)
		r.obs.ServerQueue(d)
		return true
	default:
		w.ctr.Busy()
		return false
	}
}

// exec charges the network edge, routes the command, charges the reply's
// way out. The cycle deltas recorded per mode sit between the two edge
// charges, so they compare the serving paths themselves. A request that
// carries a deadline has its cycle budget armed against this worker's core
// here — every cycle the worker burns on its behalf drains it — and the
// remaining allowance at completion feeds the budget histogram.
func (r *Router) exec(w *worker, req *server.Request) []byte {
	w.bud = overload.Arm(req.Deadline, w.th.Core.Cycles())
	args := req.Args
	var n int
	for _, a := range args {
		n += len(a)
	}
	w.th.Core.AddCycles(server.EdgeCycles(n))
	resp := r.route(w, req)
	w.th.Core.AddCycles(server.EdgeCycles(len(resp)))
	if w.bud.Active() {
		r.obs.ClusterBudgetRemaining(w.bud.Remaining(w.th.Core.Cycles()))
	}
	return resp
}

// route dispatches on the request's resolved command: single-key commands
// go to the node owning their key's slot, multi-key reads fan out per
// owner, store-less commands run in place, anything else is refused before
// any node is touched. Keyed commands hold the topology read lock end to
// end, so each executes against one consistent slot-table epoch and node
// list — a slot flip or node append waits out every in-flight command.
func (r *Router) route(w *worker, req *server.Request) []byte {
	cmd, args := req.Cmd, req.Args
	switch cmd.By {
	case redis.ByStore:
		r.topoMu.RLock()
		defer r.topoMu.RUnlock()
		if cmd.Op == redis.OpMGet {
			return r.mget(w, cmd, cmd.Keys(args), req.Readonly)
		}
		return r.exec1(w, cmd, args, req.Readonly)
	case redis.ByRouter:
		// CLUSTER is read-only introspection off the published table epoch;
		// it must not take topoMu here (Topology takes its own read lock,
		// and nesting read locks around a waiting writer self-deadlocks).
		switch cmd.Op {
		case redis.OpClusterSlots:
			return r.clusterSlotsReply()
		case redis.OpClusterNodes:
			return r.clusterNodesReply()
		}
		return redis.Run(nil, cmd, args) // PING, ECHO
	}
	return cmd.Refusal(args)
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
		r.obs.ClusterTimeout(n.id)
		return target{refusal: redis.EncodeShardTimeout(n.id)}
	}
	ep := w.endpoints[n.id]
	// Deadline: refuse a dispatch the remaining budget cannot cover. One
	// timeout window is the floor — a call that cannot even ride out its
	// first busy-wait is doomed work, better failed fast and retried with
	// a fresh budget.
	if w.bud.Active() {
		if rem := w.bud.Remaining(w.th.Core.Cycles()); rem < ep.TimeoutCycles {
			r.obs.ClusterDeadlineExpired()
			return target{refusal: redis.EncodeDeadline(fmt.Sprintf(
				"node %d: %d cycles left, dispatch needs %d, retry", n.id, rem, ep.TimeoutCycles))}
		}
	}
	// Circuit breaker: an open breaker sheds the dispatch immediately with
	// the same retryable refusal a timed-out call would earn — minus the
	// timeout.
	if n.breaker != nil {
		if ok, _ := n.breaker.Allow(); !ok {
			r.obs.ClusterShed(n.id)
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
		r.obs.ClusterStaleRejected()
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
	r.obs.ClusterFollowerRead()
	if t.degraded {
		r.obs.ClusterDegradedRead()
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
			r.obs.ClusterMovedRetry()
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

// execOn runs one command whose keys node n owns — a single-key command, or
// one node's group of an MGET — wherever resolve says n serves it.
func (r *Router) execOn(w *worker, n *node, cmd *redis.Command, args []string, readonly bool) []byte {
	t := r.resolve(w, n, cmd, readonly)
	switch {
	case t.refusal != nil:
		return t.refusal
	case t.frozen != nil:
		if resp := r.readFrozen(w, t, cmd.Keys(args), cmd.Op == redis.OpMGet); resp != nil {
			return resp
		}
		return r.execOn(w, n, cmd, args, false)
	case t.client != nil:
		before := w.th.Core.Cycles()
		resp := redis.Run(t.client, cmd, args)
		r.obs.ClusterLocal(n.id, w.th.Core.Cycles()-before)
		return resp
	}
	resp, errReply := r.callNode(w, n, t.ep, w.remoteWire(args))
	if errReply != nil {
		return errReply
	}
	if cmd.Write {
		r.bufferWrite(n, args, resp)
	}
	return resp
}

// callNode performs one data call into remote node n: the wire goes out
// under the request's remaining budget, the outcome feeds the node's
// breaker, the cycles are attributed to the urpc path, and a transport
// failure comes back as the ready-made error reply.
func (r *Router) callNode(w *worker, n *node, ep *urpc.Endpoint, wire []byte) (resp, errReply []byte) {
	before := w.th.Core.Cycles()
	resp, callCycles, err := n.call(ep, wire, w.callBudget())
	total := w.th.Core.Cycles() - before
	n.noteOutcome(err)
	if err != nil {
		return nil, r.remoteError(n.id, err)
	}
	r.obs.ClusterRemote(n.id, total)
	r.obs.ClusterURPCCall(callCycles)
	return resp, nil
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
			r.obs.ClusterDeadlineExpired()
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
func (r *Router) remoteError(nid int, err error) []byte {
	if errors.Is(err, urpc.ErrBudget) {
		// Checked before ErrTimeout: a BudgetError unwraps to both, and the
		// distinction matters — the deadline ran out, not the node.
		r.obs.ClusterDeadlineExpired()
		return redis.EncodeDeadline(fmt.Sprintf("node %d: budget exhausted mid-call, retry", nid))
	}
	if errors.Is(err, urpc.ErrTimeout) {
		r.obs.ClusterTimeout(nid)
		poke(r.suspectCh, nid)
		return redis.EncodeShardTimeout(nid)
	}
	return redis.EncodeError(fmt.Sprintf("shard error: node %d: %s", nid, err))
}
