package tlb

import "spacejmp/internal/arch"

// refTLB is the reference model the differential tests and FuzzTLBModel
// compare TLB against: every flush scans every entry and clears a valid bit.
// It is the obviously-correct statement of the semantics (victim choice,
// eviction attribution, flushed-entry counts) that the generation-stamped
// TLB must reproduce step by step.
type refTLB struct {
	cfg  Config
	sets [][]refEntry
	tick uint64
}

type refEntry struct {
	Entry
	valid bool
	used  uint64
}

func newRef(cfg Config) *refTLB {
	r := &refTLB{cfg: cfg, sets: make([][]refEntry, cfg.Sets)}
	for i := range r.sets {
		r.sets[i] = make([]refEntry, cfg.Ways)
	}
	return r
}

func (r *refTLB) setFor(vpn uint64) []refEntry { return r.sets[vpn&uint64(r.cfg.Sets-1)] }

func (r *refTLB) Lookup(asid arch.ASID, va arch.VirtAddr) (Entry, bool) {
	r.tick++
	for _, ps := range pageSizes {
		vpn := uint64(arch.AlignDown(va, ps)) >> arch.PageShift
		set := r.setFor(vpn)
		for i := range set {
			e := &set[i]
			if e.valid && e.PageSize == ps && e.VPN == vpn && (e.Global || e.ASID == asid) {
				e.used = r.tick
				return e.Entry, true
			}
		}
	}
	return Entry{}, false
}

func (r *refTLB) Insert(asid arch.ASID, base arch.VirtAddr, frame arch.PhysAddr, pageSize uint64, perm arch.Perm, global bool) (arch.ASID, bool) {
	r.tick++
	vpn := uint64(arch.AlignDown(base, pageSize)) >> arch.PageShift
	set := r.setFor(vpn)
	victim := 0
	for i := range set {
		e := &set[i]
		if e.valid && e.PageSize == pageSize && e.VPN == vpn && e.ASID == asid {
			victim = i
			break
		}
		if !e.valid {
			victim = i
			break
		}
		if e.used < set[victim].used {
			victim = i
		}
	}
	var victimASID arch.ASID
	evicted := false
	if set[victim].valid && (set[victim].VPN != vpn || set[victim].ASID != asid) {
		victimASID, evicted = set[victim].ASID, true
	}
	set[victim] = refEntry{
		Entry: Entry{
			VPN: vpn, ASID: asid, Frame: arch.PhysAddr(arch.AlignDown(arch.VirtAddr(frame), pageSize)),
			Perm: perm, PageSize: pageSize, Global: global,
		},
		valid: true, used: r.tick,
	}
	return victimASID, evicted
}

// flush invalidates every valid entry match accepts and returns the count.
func (r *refTLB) flush(match func(e *refEntry) bool) int {
	n := 0
	for _, set := range r.sets {
		for i := range set {
			if set[i].valid && match(&set[i]) {
				set[i].valid = false
				n++
			}
		}
	}
	return n
}

func (r *refTLB) FlushAll() int {
	return r.flush(func(e *refEntry) bool { return !e.Global })
}

func (r *refTLB) FlushASID(asid arch.ASID) int {
	return r.flush(func(e *refEntry) bool { return e.ASID == asid })
}

func (r *refTLB) FlushPage(asid arch.ASID, va arch.VirtAddr) int {
	n := 0
	for _, ps := range pageSizes {
		vpn := uint64(arch.AlignDown(va, ps)) >> arch.PageShift
		set := r.setFor(vpn)
		for i := range set {
			e := &set[i]
			if e.valid && e.PageSize == ps && e.VPN == vpn && e.ASID == asid {
				e.valid = false
				n++
			}
		}
	}
	return n
}

func (r *refTLB) Live() int {
	n := 0
	for _, set := range r.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}
