package cluster

import (
	"errors"
	"fmt"

	"spacejmp/internal/server"
)

// AddNode spins up a new remote shard node mid-run: it claims a core,
// bootstraps a store behind a urpc handler (replicated, with a standby,
// when replication is on), and appends it to the topology under the write
// lock; agents connect to it on first use. The new node owns zero slots —
// call RebalanceInto (or MigrateSlot) to give it load. Returns its id.
func (r *Router) AddNode() (int, error) {
	r.lifecycleMu.Lock()
	defer r.lifecycleMu.Unlock()
	if r.ctx.Err() != nil {
		return 0, fmt.Errorf("cluster: closed")
	}
	// Node ids are stable list indices; only lifecycle ops append, and
	// lifecycleMu serializes them, so the length is stable here.
	id := len(r.nodes)
	n, err := r.newNode(id, false)
	if err != nil {
		return 0, fmt.Errorf("cluster: add node %d: %w", id, err)
	}
	r.topoMu.Lock()
	r.nodes = append(r.nodes, n)
	r.topoMu.Unlock()
	if n.replicated && r.mon != nil {
		// Hand the node to the monitor: the first ship warms the standby,
		// and probes start with the next tick.
		poke(r.shipCh, id)
	}
	r.obs.ClusterNodeAdded(id)
	return id, nil
}

// RemoveNode drains node id — migrating every slot it owns to the
// least-loaded remaining nodes — then decommissions it: the routing entry
// is tombstoned under the topology lock, every worker lets go of what it
// holds on the node, the monitor finishes any step it was taking on it, the
// node's process exits (a promoted node's already died, at crash time), and
// both its store and its standby are destroyed — after the drain neither
// holds a key the cluster still routes to. The node id is never reused.
func (r *Router) RemoveNode(id int) error {
	r.lifecycleMu.Lock()
	defer r.lifecycleMu.Unlock()
	if r.ctx.Err() != nil {
		return fmt.Errorf("cluster: closed")
	}
	n := r.nodeByID(id)
	if n == nil {
		return fmt.Errorf("cluster: no node %d", id)
	}
	if n.local {
		return fmt.Errorf("cluster: node %d is co-resident; it cannot be removed", id)
	}
	if !n.serving().active() {
		return fmt.Errorf("cluster: node %d is not serving; its slots cannot be drained", id)
	}
	// Drain: move every owned slot to the active node with the fewest
	// slots, recomputed per move so the drain itself stays balanced.
	for {
		slots := r.Table().slotsOf(id)
		if len(slots) == 0 {
			break
		}
		dst, err := r.leastLoadedActive(id)
		if err != nil {
			return fmt.Errorf("cluster: remove node %d: %w", id, err)
		}
		if err := r.migrateSlotLocked(slots[0], dst); err != nil {
			return fmt.Errorf("cluster: remove node %d: %w", id, err)
		}
	}
	// Tombstone under the write lock: every in-flight command has
	// finished, no slot routes here anymore, and the health/stats paths
	// skip removed nodes from now on.
	r.topoMu.Lock()
	n.removed.Store(true)
	r.topoMu.Unlock()
	// No worker can reach the node (it owns no slots), but each may still
	// hold a client on its promoted standby or a reader on its last frozen
	// view. A worker lets go of those at a batch boundary: post every worker
	// an empty batch and wait for it.
	r.removals.Add(1)
	syncs := make([]*server.Batch, len(r.workers))
	for i, w := range r.workers {
		syncs[i] = server.NewBatch(nil)
		w.queue <- syncs[i]
	}
	for _, b := range syncs {
		b.Wait(0)
	}
	// Wait out a ship into, or a promotion of, the standby: the monitor's
	// next step finds no removed node.
	if r.mon != nil {
		r.idleCh <- struct{}{}
	}
	if err := n.shutdown(); err != nil {
		return fmt.Errorf("cluster: remove node %d: %w", id, err)
	}
	// Destroy the stores through the engine's thread — which lets go of
	// its own attachment to a promoted standby first.
	e, err := r.ensureEngine()
	if err != nil {
		return err
	}
	var errs error
	if c := e.clients[id]; c != nil {
		delete(e.clients, id)
		errs = c.Close()
	}
	errs = errors.Join(errs, r.destroyNode(e.th, n))
	r.obs.ClusterNodeRemoved(id)
	if errs != nil {
		return fmt.Errorf("cluster: remove node %d: %w", id, errs)
	}
	return nil
}

// leastLoadedActive returns the active node (excluding `exclude`) owning
// the fewest slots.
func (r *Router) leastLoadedActive(exclude int) (int, error) {
	t := r.Table()
	counts := map[int]int{}
	for _, n := range r.activeNodes() {
		if n.id != exclude {
			counts[n.id] = 0
		}
	}
	if len(counts) == 0 {
		return 0, fmt.Errorf("no other active node to take the slots")
	}
	for _, owner := range t.Owners {
		if _, ok := counts[owner]; ok {
			counts[owner]++
		}
	}
	best, bestCount := -1, NumSlots+1
	for id, c := range counts {
		if c < bestCount || (c == bestCount && id < best) {
			best, bestCount = id, c
		}
	}
	return best, nil
}

// activeNodes snapshots the nodes currently able to serve.
func (r *Router) activeNodes() []*node {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	var out []*node
	for _, n := range r.nodes {
		if n.serving().active() {
			out = append(out, n)
		}
	}
	return out
}

// RebalanceInto migrates slots onto node id until it holds a fair share
// (NumSlots / active nodes), taking each slot from the currently
// most-loaded donor. Returns how many slots moved. The usual follow-up to
// AddNode.
func (r *Router) RebalanceInto(id int) (int, error) {
	r.lifecycleMu.Lock()
	defer r.lifecycleMu.Unlock()
	if r.ctx.Err() != nil {
		return 0, fmt.Errorf("cluster: closed")
	}
	n := r.nodeByID(id)
	if n == nil {
		return 0, fmt.Errorf("cluster: no node %d", id)
	}
	if !n.serving().active() {
		return 0, fmt.Errorf("cluster: node %d not serving", id)
	}
	moved := 0
	for {
		actives := r.activeNodes()
		fair := NumSlots / len(actives)
		t := r.Table()
		if len(t.slotsOf(id)) >= fair {
			return moved, nil
		}
		donor, donorCount := -1, 0
		for _, a := range actives {
			if a.id == id {
				continue
			}
			if c := len(t.slotsOf(a.id)); c > donorCount {
				donor, donorCount = a.id, c
			}
		}
		if donor < 0 || donorCount <= fair {
			return moved, nil // nothing left to take without unbalancing a donor
		}
		if err := r.migrateSlotLocked(t.slotsOf(donor)[0], id); err != nil {
			return moved, err
		}
		moved++
	}
}
