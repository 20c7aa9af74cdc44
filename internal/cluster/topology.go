package cluster

import (
	"fmt"
	"strings"
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

// NodeInfo describes one node's placement for tooling and logs.
type NodeInfo struct {
	ID          int    `json:"id"`
	Local       bool   `json:"local"`
	Core        int    `json:"core,omitempty"`         // remote nodes: the core its handler runs on
	CrossSocket bool   `json:"cross_socket,omitempty"` // remote nodes: any worker reaches it across sockets
	Store       string `json:"store"`
	Replicated  bool   `json:"replicated,omitempty"` // a warm standby shadows this node
	State       string `json:"state,omitempty"`      // remote nodes: failover state
	Promoted    bool   `json:"promoted,omitempty"`   // the standby serves this range
	Removed     bool   `json:"removed,omitempty"`    // decommissioned by RemoveNode; owns no slots
	Slots       int    `json:"slots"`                // placement slots this node currently owns
}

// Topology returns the cluster's node placement. Safe against concurrent
// AddNode: the node list is read under the topology lock.
func (r *Router) Topology() []NodeInfo {
	r.topoMu.RLock()
	nodes := r.nodes
	workers := r.workers
	r.topoMu.RUnlock()
	table := r.Table()
	out := make([]NodeInfo, len(nodes))
	for i, n := range nodes {
		s := n.serving()
		info := NodeInfo{
			ID:      n.id,
			Local:   n.local,
			Store:   n.names.Seg,
			Removed: s == servingRemoved,
			Slots:   len(table.slotsOf(n.id)),
		}
		if !n.local && !info.Removed {
			info.Core = n.coreID
			info.Replicated = n.replicated
			info.State = n.curState().String()
			info.Promoted = s == servingStandby
			for _, w := range workers {
				if ep := w.endpoints[n.id]; ep != nil && !r.sys.M.SameSocket(w.th.Core.ID, n.coreID) {
					info.CrossSocket = true
				}
			}
		}
		out[i] = info
	}
	return out
}

// slotRanges renders a node's owned slots as compact ranges ("0-2,9,12-14").
func slotRanges(slots []int) string {
	if len(slots) == 0 {
		return "none"
	}
	var b strings.Builder
	for i := 0; i < len(slots); {
		j := i
		for j+1 < len(slots) && slots[j+1] == slots[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if j == i {
			fmt.Fprintf(&b, "%d", slots[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", slots[i], slots[j])
		}
		i = j + 1
	}
	return b.String()
}

// String renders the topology one node per line, with each node's slot
// ranges from the current table epoch.
func (r *Router) String() string {
	table := r.Table()
	topo := r.Topology()
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d nodes, %d workers, mode %s, slot table v%d\n",
		len(topo), len(r.workers), r.cfg.Mode, table.Version)
	for _, n := range topo {
		slots := slotRanges(table.slotsOf(n.ID))
		switch {
		case n.Removed:
			fmt.Fprintf(&b, "  node %d: removed\n", n.ID)
		case n.Local:
			fmt.Fprintf(&b, "  node %d: local (shared VAS %s), slots %s\n", n.ID, n.Store, slots)
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
				if n.State != "" && n.State != "healthy" {
					rep += ", " + n.State
				}
			}
			fmt.Fprintf(&b, "  node %d: remote on core %d (urpc, %s%s), slots %s\n", n.ID, n.Core, x, rep, slots)
		}
	}
	return b.String()
}
