package cluster

import (
	"fmt"
	"sync"
	"time"

	"spacejmp/internal/core"
	"spacejmp/internal/fault"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/urpc"
)

// monitor is the cluster's health-and-replication agent: one goroutine with
// its own process, thread and front-end core, plus a private urpc endpoint
// to every replicated node (probes must not queue behind data traffic on
// the workers' channels). It ships checkpoints to the standbys, probes the
// primaries, and drives the failover state machine.
type monitor struct {
	proc   *core.Process
	th     *core.Thread
	coreID int

	// epMu guards eps: the monitor goroutine grows the map when AddNode
	// hands it a new replicated node (monCtl), and PendingFrames reads it
	// from outside.
	epMu  sync.Mutex
	eps   map[int]*urpc.Endpoint // replicated remote nodes, by node id
	fails map[int]int            // consecutive probe failures
	skip  map[int]int            // probe-backoff ticks remaining
}

// epFor returns the monitor's probe endpoint to node id, if any.
func (m *monitor) epFor(id int) *urpc.Endpoint {
	m.epMu.Lock()
	defer m.epMu.Unlock()
	return m.eps[id]
}

// setEp installs a probe endpoint for a node wired after construction.
func (m *monitor) setEp(id int, ep *urpc.Endpoint) {
	m.epMu.Lock()
	defer m.epMu.Unlock()
	m.eps[id] = ep
}

// pingWire is the monitor's probe command, pre-encoded.
var pingWire = redis.EncodeCommand("PING")

// newMonitor claims a core for the health monitor and connects it to every
// replicated node. Called after workers and nodes, so the monitor's core
// lands after theirs.
func (r *Router) newMonitor() error {
	proc, th, err := r.claimThread()
	if err != nil {
		return err
	}
	m := &monitor{
		proc: proc, th: th, coreID: th.Core.ID,
		eps:   map[int]*urpc.Endpoint{},
		fails: map[int]int{},
		skip:  map[int]int{},
	}
	for _, n := range r.nodes {
		if n.replicated {
			m.eps[n.id] = urpc.Connect(r.sys.M, m.coreID, n.coreID, r.cfg.Slots, n.handler)
		}
	}
	r.mon = m
	return nil
}

// runMonitor is the monitor goroutine: warm every standby with an initial
// ship, then alternate probe ticks, periodic ships, write-count-triggered
// ships, and worker timeout reports until the router closes. All timers are
// tied to the router-lifetime context, so Close never leaves one running.
func (r *Router) runMonitor() {
	defer r.mgrWG.Done()
	m := r.mon
	defer m.proc.Exit()
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
		case nid := <-r.monCtl:
			// AddNode wired a new replicated node: connect a probe
			// endpoint and warm its standby with an initial ship.
			n := r.nodeByID(nid)
			if n == nil || !n.replicated {
				continue
			}
			m.setEp(nid, urpc.Connect(r.sys.M, m.coreID, n.coreID, r.cfg.Slots, n.handler))
			m.ship(r, n)
		case nid := <-r.shipCh:
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
				if n.pendingWrites() {
					m.ship(r, n)
				}
			}
			m.refreshLocalForks(r)
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
		if n.replicated && !n.removed.Load() {
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
	if id < 0 || id >= len(r.nodes) || r.nodes[id].removed.Load() {
		return nil
	}
	return r.nodes[id]
}

// probe sends one PING on the monitor's private endpoint. The
// cluster.probe.drop fault point models the probe lost in the interconnect;
// consecutive failures back off (skip fails-1 ticks) so a flapping node is
// not hammered while it is counted toward the threshold.
func (m *monitor) probe(r *Router, n *node) {
	if n.promoted.Load() {
		return
	}
	switch n.curState() {
	case StateFailed, StatePromoting, StateDegraded:
		return
	}
	if m.skip[n.id] > 0 {
		m.skip[n.id]--
		return
	}
	ep := m.epFor(n.id)
	if ep == nil {
		return
	}
	ok := false
	if !r.sys.M.Faults.FireAt(fault.ClusterProbeDrop, n.id) {
		_, _, err := n.call(ep, pingWire, 0)
		ok = err == nil
	}
	r.obs.ClusterProbe(ok)
	if ok {
		m.noteSuccess(r, n)
	} else {
		m.noteFailure(r, n)
	}
}

func (m *monitor) noteSuccess(r *Router, n *node) {
	m.fails[n.id], m.skip[n.id] = 0, 0
	n.noteProbe(true)
	if n.curState() == StateSuspect {
		n.setState(StateHealthy, r.obs)
	}
}

// noteFailure counts one piece of dead-node evidence and, at the
// threshold, declares the node failed and promotes its standby.
func (m *monitor) noteFailure(r *Router, n *node) {
	if !n.replicated || n.promoted.Load() {
		return
	}
	n.noteProbe(false)
	switch n.curState() {
	case StateFailed, StatePromoting, StateDegraded:
		return
	}
	m.fails[n.id]++
	m.skip[n.id] = m.fails[n.id] - 1
	if n.curState() == StateHealthy {
		n.setState(StateSuspect, r.obs)
	}
	if m.fails[n.id] >= r.cfg.Replication.ProbeThreshold {
		n.setState(StateFailed, r.obs)
		m.promote(r, n)
	}
}

// refreshLocalForks keeps a frozen fork view of every local node current so
// degraded reads have something to serve when the workers saturate. Remote
// nodes get views as a side effect of checkpoint shipping; local nodes have
// no ship path, so the monitor forks them here on the ship cadence, under
// the full topology lock — the write side of the lock every worker holds
// read-side per command, so the store is quiescent for the COW freeze
// exactly as a remote node's mutex-held forkReply is. Gated on the queue
// watermark: it is the only degradation trigger a local node has (breakers
// are remote-only), so without one the views would be dead weight.
func (m *monitor) refreshLocalForks(r *Router) {
	if r.cfg.Overload.QueueWatermark <= 0 {
		return
	}
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	for _, n := range r.nodes {
		if !n.local || n.removed.Load() {
			continue
		}
		if v := r.forks.Current(n.id); v != nil && v.Age() <= r.cfg.Replication.ShipInterval {
			continue
		}
		if _, err := r.forks.Fork(m.th, n.id, n.names.Seg); err != nil {
			// The store may not exist yet (bootstrapped lazily by the
			// first worker client); try again next tick.
			continue
		}
	}
}

// degrade parks the node in the terminal degraded state: no serving copy of
// the range exists, and everything buffered for replay is lost.
func (m *monitor) degrade(r *Router, n *node, err error) {
	cause := err.Error()
	n.cause.Store(&cause)
	r.forks.InvalidateNode(n.id, "degraded")
	entries, dropped := n.takeDelta()
	lost := dropped + uint64(len(entries))
	n.lost.Add(lost)
	r.obs.ClusterLostUpdates(lost)
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
		if n.removed.Load() {
			h.State = "removed"
			out[i] = h
			continue
		}
		if !n.local {
			st := n.curState()
			h.State = st.String()
			h.Replicated = n.replicated
			h.Promoted = n.promoted.Load()
			h.LostUpdates = n.lost.Load()
			buffered, dropped := n.deltaLen()
			h.DeltaBuffered = buffered + int(dropped)
			if p := n.cause.Load(); p != nil {
				h.Detail = *p
			}
			switch st {
			case StateFailed, StatePromoting, StateDegraded:
				h.Degraded = true
			}
			if h.Degraded && h.Detail == "" {
				h.Detail = fmt.Sprintf("range %d not serving", n.id)
			}
		}
		out[i] = h
	}
	return out
}
