package cluster

import (
	"bytes"
	"cmp"
	"fmt"
	"strings"

	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// Mode places shard nodes relative to the front-end machine.
type Mode string

const (
	// ModeVAS makes every node co-resident: all commands take the
	// shared-VAS fast path (Figure 7's switching side).
	ModeVAS Mode = "vas"
	// ModeURPC makes every node remote: all commands cross urpc channels
	// (Figure 7's message-passing side).
	ModeURPC Mode = "urpc"
	// ModeAuto splits the nodes — the first Locals co-resident, the rest
	// remote — so one run exercises both paths and multi-key commands span
	// them.
	ModeAuto Mode = "auto"
)

// ParseMode validates a -mode flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(strings.ToLower(s)) {
	case ModeVAS:
		return ModeVAS, nil
	case ModeURPC:
		return ModeURPC, nil
	case ModeAuto, "":
		return ModeAuto, nil
	}
	return "", fmt.Errorf("cluster: unknown mode %q (want vas, urpc, or auto)", s)
}

// Local reports whether node i is co-resident with the front-end under
// this mode.
func (m Mode) Local(i int, cfg Config) bool {
	switch m {
	case ModeVAS:
		return true
	case ModeURPC:
		return false
	default:
		return i < cfg.Locals
	}
}

// NodeInfo is a node's one record: placement, routing and failover status.
// It is server.NodeHealth, so the admin surface serves it as it is.
type NodeInfo = server.NodeHealth

// Topology returns every node's record (server.ClusterStatus), read under the
// topology lock: AddNode appends nodes and worker endpoints concurrently.
func (r *Router) Topology() []NodeInfo {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	table := r.Table()
	out := make([]NodeInfo, len(r.nodes))
	for i, n := range r.nodes {
		info := NodeInfo{Node: n.id, Local: n.local, State: StateHealthy.String(),
			Store: n.names.Seg, Slots: len(table.slotsOf(n.id))}
		switch s := n.serving(); {
		case s == servingRemoved:
			info.State, info.Removed = "removed", true
		case !n.local:
			info.State = n.curState().String()
			info.Replicated = n.replicated
			info.Promoted = s == servingStandby
			info.LostUpdates = n.lost.Load()
			buffered, dropped := n.delta.pending()
			info.DeltaBuffered = buffered + int(dropped)
			if p := n.cause.Load(); p != nil {
				info.Detail = *p
			}
			// The crash bit alone is not yet a verdict: the range counts as
			// down once the monitor has ruled.
			info.Degraded = s == servingFenced || s == servingDegraded
			if info.Degraded && info.Detail == "" {
				info.Detail = fmt.Sprintf("range %d not serving", n.id)
			}
			info.Core = n.coreID
			for _, w := range r.workers {
				if w.endpoints[n.id] != nil && !r.sys.M.SameSocket(w.th.Core.ID, n.coreID) {
					info.CrossSocket = true
				}
			}
		}
		out[i] = info
	}
	return out
}

// String renders the topology one node per line, with each node's slot
// ranges from the current table epoch.
func (r *Router) String() string {
	placement := r.PlacementInfo()
	ranges := rangesByNode(placement)
	topo := r.Topology()
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d nodes, %d workers, mode %s, slot table v%d\n",
		len(topo), len(r.workers), r.cfg.Mode, placement.Version)
	for _, n := range topo {
		slots := cmp.Or(strings.Join(ranges[n.Node], ","), "none")
		switch {
		case n.Removed:
			fmt.Fprintf(&b, "  node %d: removed\n", n.Node)
		case n.Local:
			fmt.Fprintf(&b, "  node %d: local (shared VAS %s), slots %s\n", n.Node, n.Store, slots)
		default:
			x := "same socket"
			if n.CrossSocket {
				x = "cross socket"
			}
			rep := ""
			if n.Replicated {
				rep = ", replicated"
				if n.Promoted {
					rep = ", standby promoted"
				}
				if n.State != "healthy" {
					rep += ", " + n.State
				}
			}
			fmt.Fprintf(&b, "  node %d: remote on core %d (urpc, %s%s), slots %s\n", n.Node, n.Core, x, rep, slots)
		}
	}
	return b.String()
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
	placement := r.PlacementInfo()
	ranges := rangesByNode(placement)
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
		case n.State != "healthy":
			state = n.State
		}
		line := fmt.Sprintf("node-%d %s %s - 0 0 %d %s %s", n.Node, addr, flags, placement.Version, state, strings.Join(ranges[n.Node], " "))
		b.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	return redis.EncodeBulk([]byte(b.String()))
}
