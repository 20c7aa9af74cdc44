package cluster

import (
	"fmt"
	"time"

	"spacejmp/internal/core"
	"spacejmp/internal/fork"
	"spacejmp/internal/redis"
)

// forkWire is the pre-encoded replication control command.
var forkWire = redis.EncodeCommand(redis.ClusterFork)

// ship moves one checkpoint generation from node n's primary to its
// standby. One call into the node forks a frozen COW view of its store and
// answers with the view's generation and the delta-log records it holds.
// Then, with the primary serving writes again (they break COW into private
// frames), the monitor extracts from the view the pages written since the
// generation the standby holds and patches it with them — or, when the view
// was not forked over exactly that generation (the first ship, a standby lost
// to a failed apply, a fork nobody got to extract), every page, and rebuilds
// it. Only an applied image drops its records from the log.
func (m *monitor) ship(r *Router, n *node) {
	if n.serving() != servingPrimary {
		return
	}
	ep := m.eps.to(r, n)
	resp, turn, err := n.call(ep, forkWire, nil, 0)
	if ep.ClientCore().AddCycles(turn); err != nil {
		r.ctr.Replication.ShipFailures.Add(1)
		m.noteFailure(r, n)
		return
	}
	gen, records, err := parseForkReply(resp)
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
		// evidence.
		r.ctr.Replication.ShipFailures.Add(1)
		return
	}
	n.delta.drop(records)
	r.ctr.Fork.ShipNs.Observe(uint64(time.Since(start).Nanoseconds())) // extract + apply, all off the node mutex
	r.obs.ClusterShip(n.id, uint64(len(img.Data)), img.Base == 0)
}

// parseForkReply reads forkReply's answer; a shard error reply surfaces as
// the contained ReplyError.
func parseForkReply(resp []byte) (gen, records uint64, err error) {
	v, _, err := redis.DecodeReply(resp)
	if err == nil {
		_, err = fmt.Sscan(string(v), &gen, &records)
	}
	return gen, records, err
}

// promote fails node n's range over to its standby. Past the fence, taking
// the topology lock waits out the stretches that resolved the primary, so no
// write lands on it after the log is taken. A cold standby (no ship landed, or
// the last apply failed) is rebuilt from a generation written into the shared
// NVM superblock now (the primary's store frames survive its process), never
// an older one: the sweeps of later forks may have freed frames it names.
// Then the node's delta log — slot copies included — is replayed in order, and
// the routing entry flips under the topology lock. If the log overflowed,
// replaying what follows the hole would reorder history: promotion is
// checkpoint-only and every logged update counts lost. If no generation can be
// written and read, the range is degraded.
func (m *monitor) promote(r *Router, n *node) {
	n.setState(StatePromoting, r.obs)
	r.topoMu.Lock() // workers hold the read side for a whole stretch
	r.topoMu.Unlock()
	// Fence outstanding frozen views first: once the standby takes over,
	// views of the dead primary are semantically stale in a way no
	// staleness bound covers — follower reads must fall back immediately.
	r.forks.InvalidateNode(n.id, "promotion")
	if n.held == 0 {
		var img *core.SegmentImage
		err := r.sys.Checkpoint()
		if err == nil {
			img, err = r.sys.CheckpointSegment(n.names.Seg)
		}
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
