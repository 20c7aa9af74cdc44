package cluster

import (
	"fmt"
	"strconv"
	"time"

	"spacejmp/internal/core"
	"spacejmp/internal/fork"
	"spacejmp/internal/redis"
)

// forkWire is the pre-encoded replication control command.
var forkWire = redis.EncodeCommand(redis.ClusterFork)

// ship moves one checkpoint generation from node n's primary to its
// standby, in two phases. Phase one holds the node's mutex just long enough
// for the primary to fork a frozen COW view of its store and for the delta
// window to be truncated: everything buffered before the fork is inside the
// frozen image, and nothing can slip between the fork and the truncation.
// Phase two runs with the mutex released — the primary is already serving
// writes again (they fault and break COW into private frames) while the
// monitor extracts from the frozen view the pages written since the
// generation the standby holds and patches it with them — or, when the view
// was not forked over exactly that generation (the first ship, a standby lost
// to a failed apply, a fork nobody got to extract), every page, and rebuilds
// it. If the extraction or apply fails, the taken window is restored: those
// writes are still newer than whatever image the standby holds.
func (m *monitor) ship(r *Router, n *node) {
	if n.serving() != servingPrimary {
		return
	}
	ep := m.eps.to(r, n)
	n.mu.Lock()
	resp, err := n.callBulk(ep, forkWire)
	if err != nil {
		n.mu.Unlock()
		r.ctr.Replication.ShipFailures.Add(1)
		m.noteFailure(r, n)
		return
	}
	entries, dropped := n.delta.take()
	n.mu.Unlock()

	gen, err := parseForkReply(resp)
	var view *fork.View
	if err == nil {
		if view = r.forks.Current(n.id); view == nil || view.Gen() != gen {
			err = fmt.Errorf("fork gen %d no longer current", gen)
		}
	}
	var img *core.SegmentImage
	start := time.Now()
	if err == nil {
		if img, err = r.forks.Image(view, n.held); err == nil {
			err = m.applyImage(n, img)
		}
	}
	if err != nil {
		// The primary answered but could not produce (or we could not
		// apply) a usable view — a checkpoint fault, not dead-node
		// evidence. Keep the window for the next attempt.
		n.delta.restore(entries, dropped)
		r.ctr.Replication.ShipFailures.Add(1)
		return
	}
	n.held = gen
	r.ctr.Fork.ShipNs.Observe(uint64(time.Since(start).Nanoseconds())) // extract + apply, all off the node mutex
	r.obs.ClusterShip(n.id, uint64(len(img.Data)), img.Base == 0)
}

// parseForkReply extracts the fork generation from the node's integer
// reply; a shard error reply surfaces as the contained ReplyError.
func parseForkReply(resp []byte) (uint64, error) {
	v, _, err := redis.DecodeReply(resp)
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(string(v), 10, 64)
}

// promote fails node n's range over to its standby. The standby is rebuilt
// from the last shipped generation (or, if no ship ever landed, from the
// newest generation still in the shared NVM superblock — the primary's
// store frames survive its process), the bounded post-checkpoint delta is
// replayed in order, and the routing entry flips under the topology lock.
// If the delta window overflowed, replaying a suffix would reorder history:
// promotion degrades to checkpoint-only and every buffered update is
// counted lost. If no valid image exists at all, the range is degraded.
func (m *monitor) promote(r *Router, n *node) {
	n.setState(StatePromoting, r.obs)
	// Fence outstanding frozen views first: once the standby takes over,
	// views of the dead primary are semantically stale in a way no
	// staleness bound covers — follower reads must fall back immediately.
	r.forks.InvalidateNode(n.id, "promotion")
	if !n.warm {
		img, err := r.sys.CheckpointSegment(n.names.Seg)
		if err == nil {
			err = m.applyImage(n, img)
		}
		if err != nil {
			m.degrade(r, n, fmt.Errorf("no recoverable replica: %w", err))
			return
		}
	}
	entries, dropped := n.delta.take()
	var replayed uint64
	if dropped == 0 && len(entries) > 0 {
		// The standby is not promoted yet, so it is attached by name,
		// through a temporary client on the monitor's thread.
		if c, err := redis.NewClientNamed(m.th, r.cfg.SegSize, n.standby); err == nil {
			replayed, _ = replay(n, target{client: c}, entries)
			c.Close()
		}
	}
	lost := dropped + uint64(len(entries)) - replayed
	n.lost.Add(lost)
	r.topoMu.Lock()
	n.promoted.Store(true)
	n.state.Store(int32(StateHealthy))
	r.topoMu.Unlock()
	r.obs.ClusterNodeState(n.id, StateHealthy.String())
	r.obs.ClusterPromotion(n.id, replayed, lost)
}

// KillNode crashes remote node id abruptly: the process dies with whatever
// it holds, exactly as the cluster.node.crash fault point does, and the
// data path is fenced. Local (co-resident) nodes share the front-end
// process and cannot be killed independently.
func (r *Router) KillNode(id int) error {
	n := r.nodeByID(id)
	if n == nil {
		return fmt.Errorf("cluster: no node %d", id)
	}
	if n.local || n.proc == nil {
		return fmt.Errorf("cluster: node %d is co-resident; kill the server instead", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.crashed.Swap(true) {
		n.proc.Crash()
	}
	return nil
}
