package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"spacejmp/internal/core"
	"spacejmp/internal/redis"
)

// migration is one in-flight slot move, published in Router.migs while the
// copy runs. Workers that route a write onto the slot serialize through mu
// and append the applied command to delta — the bounded log the engine
// replays onto the target before flipping ownership; if it overflows, the
// engine aborts and rolls back rather than replay a truncated log. fenced
// flips just before the table install: from then on writes get the
// retryable -MOVED while reads keep serving the still-authoritative source.
type migration struct {
	slot, src, dst int

	fenced atomic.Bool

	// mu makes a worker's execute-then-record on the migrating slot one
	// step, so the log's order is exactly the source store's apply order.
	mu    sync.Mutex
	delta deltaLog
}

// engine is the migration agent: its own process, thread and core (claimed
// lazily at the first lifecycle operation), a private urpc endpoint per
// remote node and a cached client per store it reaches by switching VAS.
// All use is serialized by Router.lifecycleMu.
type engine struct {
	r    *Router
	proc *core.Process
	th   *core.Thread

	eps     endpointSet
	clients map[int]*redis.Client // co-resident stores and promoted standbys, by node id
}

// ensureEngine lazily claims the engine's core. Caller holds lifecycleMu.
// The publication into r.eng happens under topoMu so PendingFrames can
// read the pointer safely.
func (r *Router) ensureEngine() (*engine, error) {
	if r.eng != nil {
		return r.eng, nil
	}
	proc, th, err := r.claimThread()
	if err != nil {
		return nil, fmt.Errorf("migration engine: %w", err)
	}
	e := &engine{
		r: r, proc: proc, th: th,
		eps:     endpointSet{coreID: th.Core.ID},
		clients: map[int]*redis.Client{},
	}
	r.topoMu.Lock()
	r.eng = e
	r.topoMu.Unlock()
	return e, nil
}

func (e *engine) close() error {
	var errs error
	for _, c := range e.clients {
		if err := c.Close(); err != nil {
			errs = errors.Join(errs, err)
		}
	}
	e.proc.Exit()
	return errs
}

// reach resolves how the engine gets at node n's serving copy, by the same
// answer the workers route on: a client on the VAS path for a co-resident
// store or a promoted standby, its private endpoint for a remote primary.
// A node with no serving copy — fenced or crashed mid-migration — is an
// error, so a copy can never land on a primary the range has left behind.
func (e *engine) reach(n *node) (target, error) {
	switch s := n.serving(); {
	case s == servingPrimary && !n.local:
		return target{ep: e.eps.to(e.r, n)}, nil
	case s.active():
		c, err := e.r.attachStore(e.th, e.clients, n)
		return target{client: c}, err
	}
	return target{}, fmt.Errorf("node %d not serving", n.id)
}

// run executes one command on node n's serving copy, reached as reach says
// at this moment: a node that stops serving mid-copy stops the copy.
func (e *engine) run(n *node, argv ...string) ([]byte, error) {
	t, err := e.reach(n)
	if err != nil {
		return nil, err
	}
	return t.run(n, argv...)
}

// dumpSlot reads a slot's pairs off a node (CLUSTER.MIGRATE).
func (e *engine) dumpSlot(n *node, slot int) ([]redis.KV, error) {
	payload, err := e.run(n, redis.ClusterMigrate, strconv.Itoa(slot), strconv.Itoa(NumSlots))
	if err != nil {
		return nil, err
	}
	pairs, err := redis.DecodePairs(payload)
	if err != nil {
		return nil, fmt.Errorf("migrate decode: %w", err)
	}
	return pairs, nil
}

// importChunkBytes is the flush threshold for one CLUSTER.IMPORT request:
// the whole request must fit the urpc ring, so pairs stream in chunks
// estimated well under it.
const importChunkBytes = 4 << 10

// importPairs replays a slot's pairs into the target in chunked
// CLUSTER.IMPORT commands — sized for the ring whichever way the target is
// reached.
func (e *engine) importPairs(n *node, slot int, pairs []redis.KV) error {
	for start := 0; start < len(pairs); {
		end, est := start, 0
		for end < len(pairs) && (end == start || est < importChunkBytes) {
			est += len(pairs[end].Key) + len(pairs[end].Val) + 32
			end++
		}
		chunk, err := redis.EncodePairs(pairs[start:end])
		if err != nil {
			return fmt.Errorf("import encode: %w", err)
		}
		if _, err := e.run(n, redis.ClusterImport, strconv.Itoa(slot), string(chunk)); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// replay drains the migration's delta log onto the target and returns how
// many entries it applied. The target is resolved once per window — also
// for an empty one, so ownership never flips onto a node that stopped
// serving during the copy.
func (e *engine) replay(mig *migration, n *node) (uint64, error) {
	entries, dropped := mig.delta.take()
	if dropped > 0 {
		return 0, errors.New("delta log overflow")
	}
	t, err := e.reach(n)
	if err != nil {
		return 0, err
	}
	return replay(n, t, entries)
}

// cleanupSlot deletes a node's copy of a slot (the source after a flip, or
// the target after a rollback).
func (e *engine) cleanupSlot(n *node, slot int) error {
	_, err := e.run(n, redis.ClusterCleanup, strconv.Itoa(slot), strconv.Itoa(NumSlots))
	return err
}

// MigrateSlot moves one placement slot to node dst while the cluster keeps
// serving:
//
//  1. publish the migration, so every write on the slot is recorded in the
//     delta log (in store order) from before the copy starts;
//  2. copy the slot's pairs off the source (checkpointed first on a
//     replicated source) and stream them into the target in ring-sized
//     chunks;
//  3. replay the delta accumulated during the copy;
//  4. fence writes (-MOVED, retryable), take the topology write lock —
//     which waits out every in-flight command, so the log is complete —
//     replay the final delta, install the slot table with ownership
//     flipped and the version bumped;
//  5. delete the source's copy (best effort — the source no longer owns
//     the slot either way).
//
// Any copy/replay failure rolls back: the target's partial copy is
// deleted, the table stays as it was, and the source remains
// authoritative. A delta-log overflow (Config.MigrationDeltaLog) aborts
// the same way rather than replay a truncated log.
func (r *Router) MigrateSlot(slot, dst int) error {
	r.lifecycleMu.Lock()
	defer r.lifecycleMu.Unlock()
	return r.migrateSlotLocked(slot, dst)
}

func (r *Router) migrateSlotLocked(slot, dst int) error {
	if r.ctx.Err() != nil {
		return fmt.Errorf("cluster: closed")
	}
	if slot < 0 || slot >= NumSlots {
		return fmt.Errorf("cluster: no slot %d", slot)
	}
	dstN := r.nodeByID(dst)
	if dstN == nil {
		return fmt.Errorf("cluster: no node %d", dst)
	}
	src := r.Owner(slot)
	if src == dst {
		return nil
	}
	// An unserving endpoint is an operational failure (the operator asked
	// for a move that cannot happen), not a malformed request: it counts
	// against the slot-move failure totals like a mid-copy abort would.
	abort := func(cause error) error {
		r.obs.ClusterSlotMoveFailed(slot, src, dst, cause.Error())
		return fmt.Errorf("cluster: migrate slot %d (%d→%d): %w", slot, src, dst, cause)
	}
	if !dstN.serving().active() {
		return abort(fmt.Errorf("target node %d not serving", dst))
	}
	srcN := r.nodeByID(src)
	if srcN == nil || !srcN.serving().active() {
		return abort(fmt.Errorf("source node %d not serving", src))
	}
	e, err := r.ensureEngine()
	if err != nil {
		return err
	}

	// Published under the topology write lock, which waits out every
	// in-flight command: a write that looked before the record was there
	// has reached the store before the dump below reads it.
	mig := &migration{slot: slot, src: src, dst: dst, delta: deltaLog{bound: r.cfg.MigrationDeltaLog}}
	r.topoMu.Lock()
	r.migs[slot].Store(mig)
	r.topoMu.Unlock()
	fail := func(imported bool, cause error) error {
		r.migs[slot].Store(nil)
		if imported {
			// Best-effort rollback of the target's partial copy; the table
			// never flipped, so the source stays authoritative either way.
			_ = e.cleanupSlot(dstN, slot)
		}
		return abort(cause)
	}

	pairs, err := e.dumpSlot(srcN, slot)
	if err != nil {
		return fail(false, fmt.Errorf("dump: %w", err))
	}
	var moved uint64
	for _, kv := range pairs {
		moved += uint64(len(kv.Key) + len(kv.Val))
	}
	if err := e.importPairs(dstN, slot, pairs); err != nil {
		return fail(true, fmt.Errorf("import: %w", err))
	}

	// Pre-drain: shrink the delta while writes still flow, so the fenced
	// window (where writers see -MOVED) stays short.
	var replayed uint64
	for i := 0; i < 8; i++ {
		applied, err := e.replay(mig, dstN)
		if err != nil {
			return fail(true, fmt.Errorf("replay: %w", err))
		}
		replayed += applied
		if applied < 16 {
			break
		}
	}

	// Fence, then take the topology write lock: acquiring it waits out
	// every in-flight command (workers hold the read side end to end), so
	// after this the delta log is final.
	mig.fenced.Store(true)
	r.topoMu.Lock()
	applied, err := e.replay(mig, dstN)
	if err != nil {
		r.topoMu.Unlock()
		return fail(true, fmt.Errorf("final replay: %w", err))
	}
	replayed += applied
	t := r.Table().clone()
	t.Owners[slot] = dst
	r.installTable(t)
	r.migs[slot].Store(nil)
	r.topoMu.Unlock()

	// Ownership moved: frozen views of both ends predate the flip — the
	// source's views still carry the slot's keys it no longer owns, the
	// target's lack them entirely. Fence them off the follower-read path.
	r.forks.InvalidateNode(src, "slot-migration")
	r.forks.InvalidateNode(dst, "slot-migration")

	// The flip is durable; the source's copy is garbage now. Cleanup is
	// best effort — a failure leaves dead keys on a node that no longer
	// owns the slot, which the normal path never reads.
	_ = e.cleanupSlot(srcN, slot)
	r.obs.ClusterSlotMoved(slot, src, dst, uint64(len(pairs)), moved, replayed)
	return nil
}
