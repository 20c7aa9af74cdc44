package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spacejmp/internal/core"
	"spacejmp/internal/fault"
	"spacejmp/internal/fork"
	"spacejmp/internal/mem"
	"spacejmp/internal/overload"
	"spacejmp/internal/redis"
	"spacejmp/internal/stats"
	"spacejmp/internal/urpc"
)

// NodeState is a remote node's position in the failover state machine. The
// health monitor owns every transition except crash fencing (the data path
// marks a node crashed the instant a call lands on a dead process).
//
//	healthy → suspect → (failed) → promoting → healthy   (standby serving)
//	                                         ↘ degraded  (no recoverable image)
type NodeState int32

const (
	// StateHealthy: the primary serves; probes answer.
	StateHealthy NodeState = iota
	// StateSuspect: probes are failing but the threshold hasn't been hit.
	StateSuspect
	// StateFailed: declared dead; promotion is about to start.
	StateFailed
	// StatePromoting: the standby is being rebuilt/replayed; the range
	// refuses commands (retryable) until the routing entry flips.
	StatePromoting
	// StateDegraded: both the primary and a recoverable replica image are
	// gone; the range returns hard errors. Terminal.
	StateDegraded
)

func (s NodeState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateFailed:
		return "failed"
	case StatePromoting:
		return "promoting"
	case StateDegraded:
		return "degraded"
	}
	return "state(?)"
}

// serving is the one answer to "which copy of this node's key range answers
// commands right now", derived from the node's four atomics (which keep
// their separate writers). Routing, health reports and the lifecycle
// operations all switch on it.
type serving uint8

const (
	// servingPrimary: the node's own store — any co-resident node, and a
	// remote one the monitor calls healthy or suspect.
	servingPrimary serving = iota
	// servingStandby: the promoted standby, reached on the VAS path.
	servingStandby
	// servingCrashed: the data path saw the process die and the monitor has
	// not ruled yet. Retryable refusals, each one evidence for the monitor;
	// /healthz does not count the range as down until it rules.
	servingCrashed
	// servingFenced: the monitor ruled the node failed and is promoting its
	// standby. Retryable refusals; /healthz says 503.
	servingFenced
	// servingDegraded: no recoverable copy. Hard errors; terminal.
	servingDegraded
	// servingRemoved: decommissioned; owns no slots.
	servingRemoved
)

// active: some copy serves the range, so slots can move in or out of it.
func (s serving) active() bool { return s == servingPrimary || s == servingStandby }

// watched: the monitor still probes the primary and counts evidence
// against it.
func (s serving) watched() bool { return s == servingPrimary || s == servingCrashed }

// A co-resident node shares the front-end's fate — never fenced, promoted
// or removed — so the hot local path costs one plain bool test.
func (n *node) serving() serving {
	switch {
	case n.local:
		return servingPrimary
	case n.removed.Load():
		return servingRemoved
	case n.promoted.Load():
		return servingStandby
	}
	switch n.curState() {
	case StateDegraded:
		return servingDegraded
	case StateFailed, StatePromoting:
		return servingFenced
	}
	if n.crashed.Load() {
		return servingCrashed
	}
	return servingPrimary
}

// node is one shard of the key space. A local node is pure state: its store
// lives in globally named segments/VASes (redis.ShardNames) and every
// worker attaches its own client, so serving it is a VAS switch on the
// worker's core. A remote node models a separate machine: it claims its own
// core and process, bootstraps the store through its own thread, and is
// reachable only through urpc — its handler decodes a RESP command, runs it
// on the node's client, and returns the RESP reply.
type node struct {
	id    int
	local bool
	names redis.Names
	ctr   *stats.NodeCounters // this node's row of the sink's routing table

	// Remote nodes only.
	proc   *core.Process
	th     *core.Thread
	client *redis.Client
	coreID int
	sys    *core.System
	forks  *fork.Engine // shared fork engine; nil when replication is off

	// breaker is the node's circuit breaker, nil unless
	// Config.Overload.Breakers is on (remote nodes only). Fed by data-call
	// outcomes and health-probe evidence; consulted by resolve before every
	// remote dispatch.
	breaker *overload.Breaker

	// mu serializes the agents' calls into this node (node.call): urpc
	// handlers run inline in the calling goroutine, and the node's core and
	// thread tolerate exactly one driver at a time. So an apply and its log
	// record are one step, as are a fork and its count of the log.
	mu sync.Mutex

	// Replication and failover (replicated remote nodes only).
	replicated bool
	standby    redis.Names  // the warm replica's segment/VAS names
	state      atomic.Int32 // NodeState; monitor-owned transitions
	crashed    atomic.Bool  // process died; fences the data path immediately
	removed    atomic.Bool  // decommissioned by RemoveNode; owns no slots, resources released
	promoted   atomic.Bool  // the standby now serves this range (VAS fast path)
	lost       atomic.Uint64
	cause      atomic.Pointer[string] // degradation cause, for health reports

	// Bookkeeping only the monitor goroutine touches (forkReply runs in its call).
	held  uint64 // the generation the standby holds a validated image of (applyImage); 0: cold
	fails int    // consecutive probe failures
	skip  int    // probe-backoff ticks remaining

	// arena, calls and out are the handler's: what the frames' arguments are
	// cut from, the frame being served, decoded, and the response, its
	// replies back to back. Driven under mu like the rest of the node.
	arena redis.Arena
	calls []redis.Call
	out   []byte

	// delta is what the handler applied since the image the standby holds,
	// replayed at promotion; every shipEvery records it pokes shipCh.
	delta     deltaLog
	shipEvery int
	shipCh    chan int
}

func (n *node) curState() NodeState { return NodeState(n.state.Load()) }

func (n *node) setState(s NodeState, obs *stats.Sink) {
	n.state.Store(int32(s))
	obs.ClusterNodeState(n.id, s.String())
}

func (r *Router) newNode(id int, local bool) (*node, error) {
	n := &node{id: id, local: local, names: redis.ShardNames(id), ctr: r.ctr.Nodes.Row(id), sys: r.sys}
	if local {
		// The store itself is bootstrapped lazily by the first worker
		// client that attaches (wireWorker).
		return n, nil
	}
	proc, th, err := r.claimThread()
	if err != nil {
		return nil, err
	}
	var opts []core.SegOption
	if r.cfg.Replication.Enabled {
		// A replicated primary's store lives in NVM so checkpoint
		// generations (the replication transport) cover it.
		n.replicated = true
		n.standby = redis.StandbyNames(id)
		n.forks = r.forks
		n.delta.bound = r.cfg.Replication.DeltaLog
		n.shipEvery, n.shipCh = r.cfg.Replication.ShipEvery, r.shipCh
		opts = append(opts, core.WithTier(mem.TierNVM))
	}
	client, err := redis.NewClientNamed(th, r.cfg.SegSize, n.names, opts...)
	if err != nil {
		// The attach can fail after it bootstrapped the store, and nothing
		// else knows the node yet: clear its names before they wedge the
		// next node of this id.
		proc.Exit()
		if admin, ath, aerr := r.claimThread(); aerr == nil {
			r.destroyNode(ath, n)
			admin.Exit()
		}
		return nil, err
	}
	n.proc, n.th, n.client, n.coreID = proc, th, client, th.Core.ID
	if r.cfg.Overload.Breakers {
		n.breaker = overload.NewBreaker(overload.BreakerConfig{
			Threshold: r.cfg.Overload.BreakerThreshold,
			Cooldown:  r.cfg.Overload.BreakerCooldown,
		}, func(from, to overload.State) {
			switch ov := &r.ctr.Overload; to {
			case overload.Open:
				ov.BreakerOpens.Add(1)
			case overload.HalfOpen:
				ov.BreakerHalfOpens.Add(1)
			case overload.Closed:
				ov.BreakerCloses.Add(1)
			}
			r.obs.ClusterBreaker(n.id, from.String(), to.String())
		})
	}
	return n, nil
}

// noteOutcome feeds one data-call outcome to the node's breaker: any error
// — a transport timeout, a budget exhaustion, a crash-fenced reply — is
// failure evidence; a delivered reply (even an error reply: the node
// answered) is success.
func (n *node) noteOutcome(err error) {
	if n.breaker == nil {
		return
	}
	if err != nil {
		n.breaker.Failure()
	} else {
		n.breaker.Success()
	}
}

// noteProbe feeds one health-probe outcome to the node's breaker. Probe
// successes use the stronger ProbeSuccess path: they may reclose an open
// breaker whose data traffic has fully degraded to stale reads (no data
// call left to take the half-open slot).
func (n *node) noteProbe(ok bool) {
	if n.breaker == nil {
		return
	}
	if ok {
		n.breaker.ProbeSuccess()
	} else {
		n.breaker.Failure()
	}
}

// handler is the node's urpc service routine: RESP in, RESP out. A frame
// carries one command or a run of them back to back — commands of a pipeline,
// in its order, that a worker grouped for this node and one VAS of its store
// — and the response carries their replies the same way. redis.RunAll
// carries them out on the node's client, a run under one switch pair, the
// slot-copy commands the migration engine sends (CLUSTER.MIGRATE, IMPORT,
// CLEANUP) included; what is left here is what only a node can do:
//
//   - the cluster.node.crash fault point, which fires at dispatch, once per
//     frame: the process dies between frames, never mid-mutation, which models
//     a machine losing power with a consistent store in NVM (the paper's §5.3
//     survival claim);
//   - CLUSTER.FORK: fork a frozen COW view of the store and reply with the
//     fork generation (forkReply). The expensive image extraction happens
//     later, off the node mutex, through the fork engine;
//   - on a replicated primary, log every command it applied that changed the
//     store (log), so whoever sent it, the standby is owed it.
//
// It runs with the node's core active (under n.mu), so the decode, the VAS
// switches, and the table walks are all charged to the node — and, as the
// node's turn the caller waits out, to the calling worker's latency.
// req is the channel's reassembly buffer, gone when the handler returns: the
// frame's commands are decoded into the arena the node keeps (the delta log
// copies what it keeps of the slab), one larger than maxKeptWire into one of
// its own. RunAll renders their replies into a buffer the node keeps, which
// the endpoint is done with by the next call. The response is that buffer as
// it is when the replies fit it, else the replies joined behind those that
// did, as append moves a slice.
func (n *node) handler(req []byte) []byte {
	if n.sys.M.Faults.FireAt(fault.ClusterNodeCrash, n.id) {
		n.crashed.Store(true)
		n.proc.Crash()
		return nil
	}
	arena := &n.arena
	if len(req) > maxKeptWire {
		arena = new(redis.Arena)
	}
	arena.Reuse(len(req))
	calls := n.calls[:0]
	for rest := req; len(calls) == 0 || len(rest) > 0; {
		args, tail, err := arena.DecodeNextCommand(rest)
		if err != nil {
			return redis.EncodeError("protocol error: " + err.Error())
		}
		calls, rest = append(calls, redis.Call{Cmd: redis.Lookup(args), Args: args}), tail
	}
	n.calls = calls
	if calls[0].Cmd.Op == redis.OpClusterFork {
		return n.forkReply()
	}
	if cap(n.out) > maxKeptWire {
		n.out = nil
	}
	out, total := redis.RunAll(n.client, calls, n.out[:0]), 0
	for i := range calls {
		total += len(calls[i].Reply)
		n.log(&calls[i])
	}
	if len(out) != total {
		out = n.out[:0]
		for i := range calls {
			out = append(out, calls[i].Reply...)
		}
	}
	n.out = out
	return out
}

// log records in a replicated primary's delta log a command it applied that
// changed the store: a write, a slot copy's import or cleanup.
func (n *node) log(c *redis.Call) {
	op := c.Cmd.Op
	if !n.replicated || len(c.Reply) == 0 || c.Reply[0] == '-' ||
		!c.Cmd.Write && op != redis.OpClusterImport && op != redis.OpClusterCleanup {
		return
	}
	if k := n.delta.record(c.Args); k > 0 && k%n.shipEvery == 0 {
		poke(n.shipCh, n.id)
	}
}

// forkReply takes the mutex-held half of a ship: fork a frozen COW view of
// the store and answer "<generation> <records>": the view's generation and
// the delta-log records it holds, all of them (the caller holds n.mu). A ship
// to a cold standby first writes a superblock generation naming the view's
// frames, so no standby warms where none can be written; a warm ship writes
// none. Extraction reads the frozen frames after the call.
func (n *node) forkReply() []byte {
	if n.forks == nil {
		return redis.EncodeError("fork: replication disabled on this node")
	}
	if n.held == 0 {
		if err := n.sys.Checkpoint(); err != nil {
			return redis.EncodeError("fork: checkpoint: " + err.Error())
		}
	}
	v, err := n.forks.Fork(n.th, n.id, n.names.Seg)
	if err != nil {
		return redis.EncodeError("fork: " + err.Error())
	}
	buffered, dropped := n.delta.pending()
	return redis.EncodeSimple(fmt.Sprintf("%d %d", v.Gen(), uint64(buffered)+dropped))
}

// call performs one serialized RPC into a remote node on an agent's
// endpoint, under n.mu, split-phase (urpc.Endpoint.Post): the caller's core
// pays its own lines, and the node's turn comes back for the caller to wait
// out — at once, or a worker with other runs in flight at the end of its
// stretch. budget, when nonzero, caps the cycles the retry loop may burn —
// the caller's remaining deadline allowance (see urpc.CallBudget). It is the
// one crash fence: calls against a node known dead fail without touching the
// channel, and a reply that raced with the crash — the handler's nil
// tombstone arrives as an empty frame, or the crash bit was set while the
// call was in flight — is refused as a timeout rather than trusted. Late
// replies from a fenced primary never reach a client. The response lands
// behind dst: a tombstone appends nothing.
func (n *node) call(ep *urpc.Endpoint, wire, dst []byte, budget uint64) (resp []byte, turn uint64, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed.Load() {
		return nil, 0, &urpc.TimeoutError{}
	}
	resp, turn, err = ep.Post(dst, wire, budget)
	if err == nil && (len(resp) == len(dst) || n.crashed.Load()) {
		return nil, turn, &urpc.TimeoutError{}
	}
	return resp, turn, err
}

// shutdown closes a remote node's client and exits its process, once, and
// not at all if it crashed (the reaper ran then). The caller — RemoveNode,
// Close — knows no worker can call into the node anymore, so it may drive
// the node's thread.
func (n *node) shutdown() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.client == nil || n.crashed.Load() {
		return nil
	}
	err := n.client.Close()
	n.client = nil
	n.proc.Exit()
	return err
}
