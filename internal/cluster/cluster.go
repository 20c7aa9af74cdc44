// Package cluster is the multi-machine layer: a keyspace-sharded cluster of
// simulated machines behind the serving layer's RESP front-end. The key
// space is hashed across N shard nodes, each owning its own RedisJMP store
// (§5.3). What makes the layer a SpaceJMP experiment rather than plumbing
// is HOW a shard is reached, reproducing both sides of the paper's Figure 7
// comparison inside one process:
//
//   - Co-resident ("local") shards are served on the shared-VAS fast path:
//     the router worker switches its own thread into the shard's VAS and
//     operates on the lockable segment directly. Extra keys in a multi-key
//     command cost memory accesses, not messages.
//
//   - Remote shards are reached over urpc cache-line channels: the command
//     is serialized to RESP, moved line by line to the shard node's core
//     (dearer across sockets), executed there, and the reply moved back.
//     The router's at-most-once Call survives a lossy interconnect with
//     timeout/backoff/dedup, so loss degrades latency, never consistency.
//
// With replication on, every remote node also gets a warm standby: the
// primary's store lives in NVM, each checkpoint generation is forked off it
// as a frozen COW view (one CLUSTER.FORK over urpc) whose frames the monitor
// reads in process and stores into a standby store instance, and a health
// monitor promotes the standby when the primary dies — the paper's "data
// survives the process" claim (§5.3) stretched across simulated machines.
// See DESIGN.md, "Replication & failover".
//
// Every command's worker-core cycle delta is recorded per mode in
// internal/stats, so one run yields the local-vs-remote cost distributions
// side by side.
//
// The concurrency contract is the simulator's usual one, twice over: each
// router worker owns its front-end core, and each remote node's core is
// driven only under that node's mutex — urpc handlers execute inline in the
// calling worker's goroutine, so the mutex is what keeps two workers from
// driving one node core at once.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spacejmp/internal/core"
	"spacejmp/internal/fork"
	"spacejmp/internal/redis"
	"spacejmp/internal/stats"
)

// Config sizes the cluster. Zero values take the defaults below.
type Config struct {
	// Nodes is the number of shard nodes the key space is hashed across.
	Nodes int
	// Workers is the number of router workers; each claims one simulated
	// core on the front-end machine.
	Workers int
	// Mode places the nodes: all co-resident (vas), all remote (urpc), or
	// split (auto). See Mode.
	Mode Mode
	// Locals is how many nodes are co-resident in ModeAuto (nodes
	// 0..Locals-1); 0 means half, rounded up. Validate refuses a negative
	// count or one past Nodes.
	Locals int
	// QueueDepth bounds each worker's request queue.
	QueueDepth int
	// SegSize is each node's store segment size.
	SegSize uint64

	// Replication configures warm standbys, checkpoint shipping and
	// failover for remote nodes. See ReplicationConfig.
	Replication ReplicationConfig

	// Overload configures overload protection: per-node circuit breakers,
	// deadline-aware dispatch, and graceful read degradation to frozen fork
	// views. See OverloadConfig.
	Overload OverloadConfig
}

// ReplicationConfig groups the replication and failover knobs. Enabled
// gives every remote node a warm standby replica, kept fresh by checkpoint
// shipping, and a health monitor (one more core) that fails a dead node's
// key range over to it. Requires a machine with an NVM superblock
// (mem.Config.NVMSuperblock).
type ReplicationConfig struct {
	// Enabled turns replication on.
	Enabled bool
	// ShipEvery triggers a checkpoint ship after this many buffered
	// writes on a node.
	ShipEvery int
	// ShipInterval is the periodic ship cadence (ships are skipped while
	// a node has nothing buffered).
	ShipInterval time.Duration
	// ProbeInterval is the health monitor's probe cadence.
	ProbeInterval time.Duration
	// ProbeThreshold is the consecutive failures that declare a node dead.
	ProbeThreshold int
	// DeltaLog bounds the per-node post-checkpoint write buffer; on
	// overflow the node's failover degrades to checkpoint-only and the
	// overflowed updates are reported lost.
	DeltaLog int

	// FollowerReads routes read-only commands (GET/MGET) on connections
	// that opted in via READONLY to frozen fork views of remote replicated
	// nodes, provided the freshest view is within StaleBound. Reads past
	// the bound answer -STALE; nodes with no usable view serve from the
	// primary as usual.
	FollowerReads bool
	// StaleBound is the maximum age of a frozen view a follower read may
	// be served from. Defaults to 500ms when FollowerReads is on.
	StaleBound time.Duration
}

// OverloadConfig groups the overload-protection knobs: the breakers that
// guard the data path into each remote node. While a node's breaker is not
// closed, READONLY reads of it degrade to its bounded-staleness frozen view
// instead of queueing behind a saturated primary (Router.frozenTarget).
// Request deadline budgets arrive per request (server.Request.Deadline) and
// need no switch here — the router honors them whenever they are set.
type OverloadConfig struct {
	// Breakers arms a closed→open→half-open circuit breaker per remote
	// node, fed by data-call outcomes and health-probe evidence. An open
	// breaker fails dispatches fast with retryable -SHARDTIMEOUT instead
	// of queueing doomed calls; half-open admits a single probe call whose
	// outcome recloses or reopens it.
	Breakers bool
	// BreakerThreshold is the consecutive failures that trip a breaker
	// open. Default 5. Setting it or BreakerCooldown needs Breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before
	// admitting a half-open probe. Default 100ms.
	BreakerCooldown time.Duration
}

// Validate reports the first rule the config breaks — the one statement of
// them, which New, a scenario file (chaos.ClusterSpec.Config) and through it
// spacejmp-server's flags are all held to. A rule is about what was set, and
// WithDefaults sets nothing a rule forbids: what passes as written passes as
// New runs on it.
func (c Config) Validate() error {
	rep, ov, nodes := c.Replication, c.Overload, c.WithDefaults().Nodes
	switch {
	case c.Nodes < 0 || c.Workers < 0 || c.QueueDepth < 0:
		return fmt.Errorf("cluster: nodes %d, workers %d, queue depth %d: none may be negative",
			c.Nodes, c.Workers, c.QueueDepth)
	case rep.ShipEvery < 0 || rep.ShipInterval < 0 || rep.ProbeInterval < 0 || rep.ProbeThreshold < 0 || rep.DeltaLog < 0:
		return fmt.Errorf("cluster: replication: ship every %d, ship interval %v, probe interval %v, probe threshold %d, delta log %d: none may be negative",
			rep.ShipEvery, rep.ShipInterval, rep.ProbeInterval, rep.ProbeThreshold, rep.DeltaLog)
	case c.Locals < 0 || c.Locals > nodes:
		return fmt.Errorf("cluster: locals: %d is not between 0 and the node count, %d", c.Locals, nodes)
	case rep.FollowerReads && !rep.Enabled:
		return errors.New("cluster: follower reads need replication (frozen fork views ride the replication engine)")
	case rep.StaleBound < 0:
		return fmt.Errorf("cluster: stale bound: negative (%v)", rep.StaleBound)
	case ov.BreakerThreshold < 0:
		return fmt.Errorf("cluster: breaker threshold: negative (%d)", ov.BreakerThreshold)
	case ov.BreakerCooldown < 0:
		return fmt.Errorf("cluster: breaker cooldown: negative (%v)", ov.BreakerCooldown)
	case (ov.BreakerThreshold > 0 || ov.BreakerCooldown > 0) && !ov.Breakers:
		return errors.New("cluster: breaker threshold/cooldown need breakers")
	}
	return nil
}

// WithDefaults returns the config New runs on: every zero value resolved.
func (c Config) WithDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Mode == "" {
		c.Mode = ModeAuto
	}
	if c.Locals == 0 {
		c.Locals = (c.Nodes + 1) / 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SegSize == 0 {
		c.SegSize = 8 << 20
	}
	if c.Replication.ShipEvery <= 0 {
		c.Replication.ShipEvery = 128
	}
	if c.Replication.ShipInterval <= 0 {
		c.Replication.ShipInterval = 200 * time.Millisecond
	}
	if c.Replication.ProbeInterval <= 0 {
		c.Replication.ProbeInterval = 25 * time.Millisecond
	}
	if c.Replication.ProbeThreshold <= 0 {
		c.Replication.ProbeThreshold = 3
	}
	if c.Replication.DeltaLog <= 0 {
		c.Replication.DeltaLog = 1024
	}
	if c.Replication.StaleBound <= 0 {
		c.Replication.StaleBound = 500 * time.Millisecond
	}
	if c.Overload.Breakers && c.Overload.BreakerThreshold <= 0 {
		c.Overload.BreakerThreshold = 5
	}
	if c.Overload.Breakers && c.Overload.BreakerCooldown <= 0 {
		c.Overload.BreakerCooldown = 100 * time.Millisecond
	}
	return c
}

// New builds the cluster on an already-running system: the shard nodes
// (remote ones each claim a core and bootstrap their store behind a urpc
// handler), then the router workers (each claims a front-end core, attaches
// a client to every co-resident node's store, and connects an endpoint to
// every remote node), then — with replication on — the health monitor. The
// Router implements server.Backend, so it plugs directly into
// server.NewWithBackend.
//
// Core budget: Workers + remote nodes (+1 for the monitor when replicating
// with any remote node) must not exceed the machine's cores; claiming past
// the end fails here, not at runtime.
//
// A cluster always counts: on a machine with no stats sink New installs one
// (System.Sink), which is what lets every site below count unguarded.
func New(sys *core.System, cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	obs := sys.Sink()
	r := &Router{sys: sys, obs: obs, ctr: obs.Cluster(), srv: obs.Server(), cfg: cfg}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	r.installTable(initialTable(cfg.Nodes))
	if cfg.Replication.Enabled {
		if _, sbSize := sys.M.PM.Superblock(); sbSize == 0 {
			r.Close()
			return nil, fmt.Errorf("cluster: replication needs an NVM superblock (mem.Config.NVMSuperblock)")
		}
		// Headroom in the channel capacities for nodes added later.
		r.shipCh = make(chan int, cfg.Nodes*4)
		r.suspectCh = make(chan int, cfg.Nodes*16)
		r.idleCh = make(chan struct{})
		r.forks = fork.New(sys, r.obs)
	}
	r.obs.InstallClusterSlots(NumSlots)

	// Workers claim the first cores so they land on the first socket(s);
	// remote nodes claim after them, so with more nodes than fit on the
	// workers' socket the placement naturally yields both URPC L and
	// URPC X channels.
	for i := 0; i < cfg.Workers; i++ {
		w, err := r.newWorker(i)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		r.workers = append(r.workers, w)
	}
	for i := 0; i < cfg.Nodes; i++ {
		n, err := r.newNode(i, cfg.Mode.Local(i, cfg))
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		r.nodes = append(r.nodes, n)
	}
	// Attach every worker to every co-resident store, and connect an
	// endpoint to every remote node. The first attachment bootstraps the
	// node's store lazily, exactly as RedisJMP clients do.
	for _, w := range r.workers {
		if err := r.wireWorker(w); err != nil {
			r.Close()
			return nil, fmt.Errorf("cluster: wiring worker %d: %w", w.id, err)
		}
	}
	if cfg.Replication.Enabled && len(r.replicatedNodes()) > 0 {
		// The monitor claims last, so its core lands after the nodes'.
		proc, th, err := r.claimThread()
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("cluster: health monitor: %w", err)
		}
		r.mon = &monitor{proc: proc, th: th, eps: endpointSet{coreID: th.Core.ID}}
	}
	// Only now do the worker and monitor goroutines start driving their
	// cores.
	for _, w := range r.workers {
		r.workerWG.Add(1)
		go r.runWorker(w)
	}
	if r.mon != nil {
		r.mgrWG.Add(1)
		go r.runMonitor()
	}
	return r, nil
}

// destroyStores releases every frozen view and removes what every node
// leaves behind, through a short-lived admin process — node threads may be
// dead from crash injection.
func (r *Router) destroyStores() error {
	proc, th, err := r.claimThread()
	if err != nil {
		return err
	}
	defer proc.Exit()
	var errs error
	// Frozen views go first: a view pins its live object as a COW parent,
	// so releasing it keeps the live store's teardown a plain free. The
	// workers — the views' only readers — have exited.
	if r.forks != nil {
		if err := r.forks.Close(th); err != nil {
			errs = fmt.Errorf("fork engine: %w", err)
		}
	}
	// Iterate the actual node list, not cfg.Nodes: AddNode grows it past
	// the configured size.
	for _, n := range r.nodes {
		errs = errors.Join(errs, r.destroyNode(th, n))
	}
	return errs
}

// destroyNode removes what node n left under its names, whichever of it
// exists: its store, its standby replica (a removed node's are already gone)
// and the scratch heaps that crashed nodes of this cluster orphaned on either:
// the reaper only reclaims private segments, and a client's scratch heap is a
// named global one. No client may be attached to the stores anymore.
func (r *Router) destroyNode(th *core.Thread, n *node) error {
	var errs error
	for _, names := range []redis.Names{n.names, redis.StandbyNames(n.id)} {
		if err := redis.DestroyNamed(th, names); err != nil && !errors.Is(err, core.ErrNotFound) {
			errs = errors.Join(errs, fmt.Errorf("node %d store %s: %w", n.id, names.Seg, err))
		}
		for _, pid := range r.pids {
			if sid, err := th.SegFind(redis.ScratchName(names, pid)); err == nil {
				if err := th.SegFree(sid); err != nil {
					errs = errors.Join(errs, fmt.Errorf("node %d scratch: %w", n.id, err))
				}
			}
		}
	}
	return errs
}

// Close drains the cluster: the monitor stops (its timers die with the
// router context), the workers finish their backlogs, close their clients
// and exit (releasing front-end cores), then the migration engine and the
// remote node processes exit, and finally every node store is destroyed.
// After Close the only simulated memory left is what existed before New.
// The lifecycle lock is taken first, so an in-flight AddNode/RemoveNode/
// MigrateSlot finishes (or fails) before teardown starts. It is also how New
// unwinds a cluster it could not finish: whatever was not built or started
// yet is an empty list or a wait group nobody joined.
func (r *Router) Close() error {
	r.lifecycleMu.Lock()
	defer r.lifecycleMu.Unlock()
	r.closeOnce.Do(func() {
		r.cancel()
		r.mgrWG.Wait()
		if r.mon != nil {
			r.mon.proc.Exit()
		}
		for _, w := range r.workers {
			close(w.queue)
		}
		r.workerWG.Wait()
		for _, w := range r.workers {
			w.release()
			if w.err != nil {
				r.closeErr = errors.Join(r.closeErr, fmt.Errorf("worker %d: %w", w.id, w.err))
			}
		}
		if r.eng != nil {
			if err := r.eng.close(); err != nil {
				r.closeErr = errors.Join(r.closeErr, fmt.Errorf("migration engine: %w", err))
			}
			r.eng = nil
		}
		// No worker can call into a node anymore.
		for _, n := range r.nodes {
			if err := n.shutdown(); err != nil {
				r.closeErr = errors.Join(r.closeErr, fmt.Errorf("node %d: %w", n.id, err))
			}
		}
		if err := r.destroyStores(); err != nil {
			r.closeErr = errors.Join(r.closeErr, err)
		}
	})
	return r.closeErr
}

// PendingFrames returns the urpc frames sitting unconsumed across every
// channel into each remote node — the workers' data endpoints, the
// monitor's probe endpoints and the migration engine's copy endpoints. On
// a loss-free interconnect a drained cluster reports zero; the drain test
// holds it to that. Safe to call while the cluster serves: every channel
// into a node is only driven under that node's mutex, which this takes per
// node, the node list is read under the topology lock, and each agent's
// endpoint set, which grows on first use, under its own mutex.
func (r *Router) PendingFrames() int {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	var total int
	for _, n := range r.nodes {
		if n.local || n.serving() == servingRemoved {
			continue
		}
		n.mu.Lock()
		for _, w := range r.workers {
			total += w.eps.pending(n.id)
		}
		if r.mon != nil {
			total += r.mon.eps.pending(n.id)
		}
		if r.eng != nil {
			total += r.eng.eps.pending(n.id)
		}
		n.mu.Unlock()
	}
	return total
}

// Router routes RESP commands to shard nodes. It implements server.Backend
// and server.ClusterStatus.
type Router struct {
	sys *core.System
	obs *stats.Sink            // never nil (New); the events that trace go through it
	ctr *stats.ClusterCounters // obs's cluster block
	srv *stats.ServerCounters  // obs's server block: queueing and latency are the backend's to count
	cfg Config

	workers []*worker
	nodes   []*node // append-only; grown by AddNode under topoMu
	mon     *monitor
	pids    []int // every process claimThread spawned; New's goroutine, then under lifecycleMu

	// forks manages the frozen COW views behind non-blocking checkpoint
	// ships and follower reads. Nil when replication is off — every method
	// tolerates the nil receiver.
	forks *fork.Engine

	// table is the current slot-table epoch (see placement.go). Replaced
	// wholesale under topoMu; read lock-free for Owner/Table.
	table atomic.Pointer[SlotTable]

	// migs holds the in-flight migration per slot (nil when none). A
	// worker's write on a migrating slot touches its keys there once it
	// ran (execRun), and the engine recopies them.
	migs [NumSlots]atomic.Pointer[migration]

	// eng is the lazily built migration engine (one core, claimed at the
	// first lifecycle operation). Guarded by lifecycleMu for mutation and
	// published under topoMu so PendingFrames can read it.
	eng *engine

	// lifecycleMu serializes cluster lifecycle operations — AddNode,
	// RemoveNode, MigrateSlot, Close — against each other.
	lifecycleMu sync.Mutex

	// ctx is the router's lifetime: the monitor's timers and waits hang
	// off it, so Close cancels them instead of leaking them.
	ctx    context.Context
	cancel context.CancelFunc

	// topoMu orders routing-entry flips (promotions, slot-table installs,
	// node appends) against the workers' command execution: a worker holds
	// the read side for a whole command, so a writer that holds the write
	// side has waited out every in-flight command.
	topoMu sync.RWMutex

	// removals counts RemoveNode's tombstones; a worker that sees it move
	// lets go, at its next batch boundary, of what it holds on removed nodes
	// (worker.reconcile).
	removals atomic.Uint64

	shipCh    chan int      // monitor pokes: write-count ship triggers
	suspectCh chan int      // monitor pokes: data-path timeout evidence
	idleCh    chan struct{} // a send lands once the monitor is between two steps

	workerWG  sync.WaitGroup
	mgrWG     sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}
