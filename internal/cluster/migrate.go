package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"spacejmp/internal/core"
	"spacejmp/internal/redis"
	"spacejmp/internal/urpc"
)

// migration is one in-flight slot move, published in Router.migs while the
// copy runs. Workers that route a write onto the slot serialize through mu
// and append the applied command to delta — the bounded log the engine
// replays onto the target before flipping ownership. fenced flips just
// before the table install: from then on writes get the retryable -MOVED
// while reads keep serving the still-authoritative source.
type migration struct {
	slot, src, dst int

	fenced atomic.Bool

	// mu serializes writes on the migrating slot with the delta log, so
	// the log's order is exactly the source store's apply order.
	mu       sync.Mutex
	delta    [][]string
	overflow bool
}

// record appends one applied write. Called with mu held (the worker wraps
// execute+record in one critical section). On overflow the migration is
// poisoned — the engine aborts and rolls back rather than replay a
// truncated log.
func (m *migration) record(args []string, bound int) {
	if m.overflow || len(m.delta) >= bound {
		m.overflow = true
		return
	}
	m.delta = append(m.delta, args)
}

// drain takes the buffered window, reporting whether the log overflowed.
func (m *migration) drain() ([][]string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	entries, of := m.delta, m.overflow
	m.delta = nil
	return entries, of
}

// engine is the migration agent: its own process, thread and core (claimed
// lazily at the first lifecycle operation), a private urpc endpoint per
// remote node (copies must not queue behind data traffic on the workers'
// channels) and a cached client per co-resident store. All use is
// serialized by Router.lifecycleMu.
type engine struct {
	r      *Router
	proc   *core.Process
	th     *core.Thread
	coreID int

	// epMu guards eps: the engine grows the map mid-migration while
	// PendingFrames reads it from outside.
	epMu sync.Mutex
	eps  map[int]*urpc.Endpoint

	locals map[int]*redis.Client // co-resident stores, attached lazily
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
		r: r, proc: proc, th: th, coreID: th.Core.ID,
		eps:    map[int]*urpc.Endpoint{},
		locals: map[int]*redis.Client{},
	}
	r.topoMu.Lock()
	r.eng = e
	r.topoMu.Unlock()
	return e, nil
}

func (e *engine) close() error {
	var errs error
	for _, c := range e.locals {
		if err := c.Close(); err != nil {
			errs = errors.Join(errs, err)
		}
	}
	e.proc.Exit()
	return errs
}

// epFor returns (connecting on first use) the engine's endpoint to a
// remote node.
func (e *engine) epFor(n *node) *urpc.Endpoint {
	e.epMu.Lock()
	defer e.epMu.Unlock()
	if ep := e.eps[n.id]; ep != nil {
		return ep
	}
	ep := urpc.Connect(e.r.sys.M, e.coreID, n.coreID, e.r.cfg.Slots, n.handler)
	e.eps[n.id] = ep
	return ep
}

// existingEp returns the engine's endpoint to node id without connecting.
func (e *engine) existingEp(id int) *urpc.Endpoint {
	e.epMu.Lock()
	defer e.epMu.Unlock()
	return e.eps[id]
}

// clientFor resolves how the engine reaches a node's serving store on the
// VAS fast path, if it can: a cached client for a co-resident store, a
// transient client for a promoted standby (the primary is dead; release
// closes it). A nil client means "use urpc".
func (e *engine) clientFor(n *node) (c *redis.Client, release func(), err error) {
	noop := func() {}
	if n.local {
		if c := e.locals[n.id]; c != nil {
			return c, noop, nil
		}
		c, err := redis.NewClientNamed(e.th, e.r.cfg.SegSize, n.names)
		if err != nil {
			return nil, noop, fmt.Errorf("node %d store: %w", n.id, err)
		}
		e.locals[n.id] = c
		return c, noop, nil
	}
	if n.promoted.Load() {
		c, err := redis.NewClientNamed(e.th, e.r.cfg.SegSize, n.standby)
		if err != nil {
			return nil, noop, fmt.Errorf("node %d standby: %w", n.id, err)
		}
		return c, func() { c.Close() }, nil
	}
	return nil, noop, nil
}

// callCheck runs one command on a remote node through the engine's
// endpoint and surfaces an error reply as an error.
func (e *engine) callCheck(n *node, wire []byte) error {
	resp, _, err := n.call(e.epFor(n), wire, 0)
	if err == nil {
		_, _, err = redis.DecodeReply(resp) // an error reply decodes to a ReplyError
	}
	return err
}

// dumpSlot reads a slot's pairs off a node: DumpSlot on the fast path,
// CLUSTER.MIGRATE (bulk gob) over urpc.
func (e *engine) dumpSlot(n *node, slot int) ([]redis.KV, error) {
	c, release, err := e.clientFor(n)
	if err != nil {
		return nil, err
	}
	defer release()
	if c != nil {
		return c.DumpSlot(slot, NumSlots)
	}
	wire := redis.EncodeCommand(redis.ClusterMigrate, strconv.Itoa(slot), strconv.Itoa(NumSlots))
	resp, err := n.callBulk(e.epFor(n), wire)
	if err != nil {
		return nil, err
	}
	payload, isNil, err := redis.DecodeReply(resp)
	if err != nil {
		return nil, err
	}
	if isNil {
		return nil, fmt.Errorf("migrate: nil dump reply from node %d", n.id)
	}
	var pairs []redis.KV
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&pairs); err != nil {
		return nil, fmt.Errorf("migrate decode: %w", err)
	}
	return pairs, nil
}

// importChunkBytes is the flush threshold for one CLUSTER.IMPORT request:
// the whole request must fit the urpc ring, so pairs stream in chunks
// estimated well under it.
const importChunkBytes = 4 << 10

// importPairs replays a slot's pairs into the target: direct Sets on the
// fast path, chunked CLUSTER.IMPORT commands over urpc.
func (e *engine) importPairs(n *node, slot int, pairs []redis.KV) error {
	c, release, err := e.clientFor(n)
	if err != nil {
		return err
	}
	defer release()
	if c != nil {
		for _, kv := range pairs {
			if err := c.Set(string(kv.Key), kv.Val); err != nil {
				return err
			}
		}
		return nil
	}
	for start := 0; start < len(pairs); {
		end, est := start, 0
		for end < len(pairs) && (end == start || est < importChunkBytes) {
			est += len(pairs[end].Key) + len(pairs[end].Val) + 32
			end++
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(pairs[start:end]); err != nil {
			return fmt.Errorf("import encode: %w", err)
		}
		wire := redis.EncodeCommand(redis.ClusterImport, strconv.Itoa(slot), buf.String())
		if err := e.callCheck(n, wire); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// applyEntry replays one delta-log write onto the target.
func (e *engine) applyEntry(n *node, args []string) error {
	c, release, err := e.clientFor(n)
	if err != nil {
		return err
	}
	defer release()
	if c != nil {
		_, _, err := redis.DecodeReply(redis.Execute(c, args))
		return err
	}
	return e.callCheck(n, redis.EncodeCommand(args...))
}

// cleanupSlot deletes a node's copy of a slot (the source after a flip, or
// the target after a rollback).
func (e *engine) cleanupSlot(n *node, slot int) error {
	c, release, err := e.clientFor(n)
	if err != nil {
		return err
	}
	defer release()
	if c != nil {
		_, err := c.DelSlot(slot, NumSlots)
		return err
	}
	wire := redis.EncodeCommand(redis.ClusterCleanup, strconv.Itoa(slot), strconv.Itoa(NumSlots))
	return e.callCheck(n, wire)
}

// nodeActive reports whether a node can serve its slots right now: local
// stores always, a promoted standby, or a healthy/suspect remote primary.
func nodeActive(n *node) bool {
	if n.removed.Load() {
		return false
	}
	if n.local {
		return true
	}
	if n.promoted.Load() {
		return true
	}
	if n.crashed.Load() {
		return false
	}
	switch n.curState() {
	case StateFailed, StatePromoting, StateDegraded:
		return false
	}
	return true
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
	if !nodeActive(dstN) {
		return abort(fmt.Errorf("target node %d not serving", dst))
	}
	srcN := r.nodeByID(src)
	if srcN == nil || !nodeActive(srcN) {
		return abort(fmt.Errorf("source node %d not serving", src))
	}
	e, err := r.ensureEngine()
	if err != nil {
		return err
	}

	mig := &migration{slot: slot, src: src, dst: dst}
	r.migs[slot].Store(mig)
	fail := func(imported bool, cause error) error {
		r.migs[slot].Store(nil)
		if imported {
			// Best-effort rollback of the target's partial copy; the table
			// never flipped, so the source stays authoritative either way.
			_ = e.cleanupSlot(dstN, slot)
		}
		r.obs.ClusterSlotMoveFailed(slot, src, dst, cause.Error())
		return fmt.Errorf("cluster: migrate slot %d (%d→%d): %w", slot, src, dst, cause)
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
		entries, overflow := mig.drain()
		if overflow {
			return fail(true, errors.New("delta log overflow"))
		}
		for _, args := range entries {
			if err := e.applyEntry(dstN, args); err != nil {
				return fail(true, fmt.Errorf("replay: %w", err))
			}
		}
		replayed += uint64(len(entries))
		if len(entries) < 16 {
			break
		}
	}

	// Fence, then take the topology write lock: acquiring it waits out
	// every in-flight command (workers hold the read side end to end), so
	// after this the delta log is final.
	mig.fenced.Store(true)
	r.topoMu.Lock()
	entries, overflow := mig.drain()
	if overflow {
		r.topoMu.Unlock()
		return fail(true, errors.New("delta log overflow"))
	}
	for _, args := range entries {
		if err := e.applyEntry(dstN, args); err != nil {
			r.topoMu.Unlock()
			return fail(true, fmt.Errorf("final replay: %w", err))
		}
	}
	replayed += uint64(len(entries))
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
