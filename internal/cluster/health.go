package cluster

import (
	"fmt"
	"time"

	"spacejmp/internal/core"
	"spacejmp/internal/fault"
	"spacejmp/internal/server"
)

// monitor is the cluster's health-and-replication agent: one goroutine with
// its own process, thread and front-end core, plus a private urpc endpoint
// to every replicated node. It ships checkpoints to the standbys, probes
// the primaries, and drives the failover state machine.
type monitor struct {
	proc *core.Process
	th   *core.Thread
	eps  endpointSet
}

// runMonitor is the monitor goroutine: warm every standby with an initial
// ship, then alternate probe ticks, periodic ships, write-count-triggered
// ships, and worker timeout reports until the router closes. All timers are
// tied to the router-lifetime context, so Close never leaves one running.
func (r *Router) runMonitor() {
	defer r.mgrWG.Done()
	m := r.mon
	probe := time.NewTicker(r.cfg.Replication.ProbeInterval)
	defer probe.Stop()
	ship := time.NewTicker(r.cfg.Replication.ShipInterval)
	defer ship.Stop()
	for _, n := range r.replicatedNodes() {
		m.ship(r, n)
	}
	for {
		select {
		case <-r.ctx.Done():
			return
		case nid := <-r.shipCh:
			// A write-count trigger, or AddNode handing over a new
			// replicated node: its first ship warms the standby.
			if n := r.nodeByID(nid); n != nil {
				m.ship(r, n)
			}
		case nid := <-r.suspectCh:
			// A worker's data call timed out: that is probe-grade
			// evidence, counted toward the failure threshold so detection
			// under load beats the probe cadence.
			if n := r.nodeByID(nid); n != nil {
				m.noteFailure(r, n)
			}
		case <-ship.C:
			for _, n := range r.replicatedNodes() {
				if buffered, dropped := n.delta.pending(); buffered > 0 || dropped > 0 {
					m.ship(r, n)
				}
			}
		case <-probe.C:
			for _, n := range r.replicatedNodes() {
				m.probe(r, n)
			}
		}
	}
}

// replicatedNodes snapshots the replicated, still-present nodes under the
// topology lock (AddNode appends concurrently; removed nodes are done).
func (r *Router) replicatedNodes() []*node {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	var out []*node
	for _, n := range r.nodes {
		if n.replicated && n.serving() != servingRemoved {
			out = append(out, n)
		}
	}
	return out
}

// nodeByID resolves a node id against the live list, nil for out-of-range
// or removed ids (stale pokes on the monitor channels).
func (r *Router) nodeByID(id int) *node {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	if id < 0 || id >= len(r.nodes) || r.nodes[id].serving() == servingRemoved {
		return nil
	}
	return r.nodes[id]
}

// probe sends one PING on the monitor's private endpoint. The
// cluster.probe.drop fault point models the probe lost in the interconnect;
// consecutive failures back off (skip fails-1 ticks) so a flapping node is
// not hammered while it is counted toward the threshold.
func (m *monitor) probe(r *Router, n *node) {
	if !n.serving().watched() {
		return
	}
	if n.skip > 0 {
		n.skip--
		return
	}
	ok := false
	if !r.sys.M.Faults.FireAt(fault.ClusterProbeDrop, n.id) {
		_, err := target{ep: m.eps.to(r, n)}.run(n, "PING")
		ok = err == nil
	}
	r.ctr.Replication.Probes.Add(1)
	if !ok {
		r.ctr.Replication.ProbeFailures.Add(1)
		m.noteFailure(r, n)
		return
	}
	n.fails, n.skip = 0, 0
	n.noteProbe(true)
	if n.curState() == StateSuspect {
		n.setState(StateHealthy, r.obs)
	}
}

// noteFailure counts one piece of dead-node evidence and, at the
// threshold, declares the node failed and promotes its standby.
func (m *monitor) noteFailure(r *Router, n *node) {
	if !n.serving().watched() {
		return
	}
	n.noteProbe(false)
	n.fails++
	n.skip = n.fails - 1
	if n.curState() == StateHealthy {
		n.setState(StateSuspect, r.obs)
	}
	if n.fails >= r.cfg.Replication.ProbeThreshold {
		n.setState(StateFailed, r.obs)
		m.promote(r, n)
	}
}

// degrade parks the node in the terminal degraded state: no serving copy of
// the range exists, and everything buffered for replay is lost.
func (m *monitor) degrade(r *Router, n *node, err error) {
	cause := err.Error()
	n.cause.Store(&cause)
	r.forks.InvalidateNode(n.id, "degraded")
	entries, dropped := n.delta.take()
	lost := dropped + uint64(len(entries))
	n.lost.Add(lost)
	r.ctr.Replication.LostUpdates.Add(lost)
	n.setState(StateDegraded, r.obs)
}

// Health reports every node's routing/failover status (server.ClusterStatus).
func (r *Router) Health() []server.NodeHealth {
	r.topoMu.RLock()
	nodes := r.nodes
	r.topoMu.RUnlock()
	out := make([]server.NodeHealth, len(nodes))
	for i, n := range nodes {
		h := server.NodeHealth{Node: n.id, Local: n.local, State: StateHealthy.String()}
		switch s := n.serving(); {
		case s == servingRemoved:
			h.State = "removed"
		case !n.local:
			h.State = n.curState().String()
			h.Replicated = n.replicated
			h.Promoted = s == servingStandby
			h.LostUpdates = n.lost.Load()
			buffered, dropped := n.delta.pending()
			h.DeltaBuffered = buffered + int(dropped)
			if p := n.cause.Load(); p != nil {
				h.Detail = *p
			}
			// The crash bit alone is not yet a verdict: the range counts as
			// down once the monitor has ruled.
			h.Degraded = s == servingFenced || s == servingDegraded
			if h.Degraded && h.Detail == "" {
				h.Detail = fmt.Sprintf("range %d not serving", n.id)
			}
		}
		out[i] = h
	}
	return out
}
