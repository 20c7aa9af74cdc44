package cluster

import (
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// NumSlots is the fixed number of placement slots the key space is divided
// into. Keys hash onto slots (redis.SlotForKey); slots map onto nodes via
// the versioned slot table. 256 slots over a handful of nodes keeps every
// rebalance granular without making the table big.
const NumSlots = 256

// SlotTable is one immutable placement epoch: which node owns each slot.
// The router publishes tables through an atomic pointer; readers get a
// consistent epoch for the whole command, and a migration flips ownership
// by installing a fresh copy with Version bumped — never by mutating a
// published table.
type SlotTable struct {
	// Version increments on every ownership change. Commands that raced a
	// flip see -MOVED and retry against the next version.
	Version uint64
	// Owners maps slot → node id.
	Owners [NumSlots]int
}

// clone returns a mutable copy with the version bumped, ready for edits
// before being installed as the next epoch.
func (t *SlotTable) clone() *SlotTable {
	cp := *t
	cp.Version++
	return &cp
}

// slotsOf returns the slots a node owns, ascending.
func (t *SlotTable) slotsOf(node int) []int {
	var out []int
	for s, o := range t.Owners {
		if o == node {
			out = append(out, s)
		}
	}
	return out
}

// Slot hashes a key onto its placement slot (0..NumSlots-1). Slot, Owner and
// Table are how keys map to slots and slots to nodes; everything that needs a
// routing decision — workers, the migration engine, admin endpoints, CLUSTER
// commands — goes through them rather than hashing on its own.
func (r *Router) Slot(key string) int {
	return redis.SlotForKey(key, NumSlots)
}

// Owner returns the node currently owning a slot.
func (r *Router) Owner(slot int) int {
	return r.table.Load().Owners[slot]
}

// Table returns the current slot table epoch. The returned table is
// immutable; callers may hold it across calls and compare Versions.
func (r *Router) Table() *SlotTable {
	return r.table.Load()
}

// PlacementInfo renders the current table epoch for the admin surface
// (server.ClusterStatus).
func (r *Router) PlacementInfo() server.PlacementInfo {
	t := r.Table()
	info := server.PlacementInfo{Version: t.Version, Slots: NumSlots}
	for s := 0; s < NumSlots; {
		e := s
		for e+1 < NumSlots && t.Owners[e+1] == t.Owners[s] {
			e++
		}
		info.Ranges = append(info.Ranges, server.SlotRangeInfo{Start: s, End: e, Node: t.Owners[s]})
		s = e + 1
	}
	return info
}

// initialTable builds epoch 1: slots striped round-robin across the
// starting nodes, so every node begins with an equal share (±1).
func initialTable(nodes int) *SlotTable {
	t := &SlotTable{Version: 1}
	for s := range t.Owners {
		t.Owners[s] = s % nodes
	}
	return t
}

// installTable publishes the next epoch. Callers hold topoMu exclusively —
// the install is the linearization point of a flip.
func (r *Router) installTable(t *SlotTable) {
	r.table.Store(t)
}
