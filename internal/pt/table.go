package pt

import (
	"fmt"

	"spacejmp/internal/arch"
	"spacejmp/internal/mem"
	"spacejmp/internal/stats"
)

// Stats counts page-table activity, used by the Figure 1 reproduction.
// WalkRefs accumulates the table nodes the hardware walker referenced
// across all walks — the paper's "page-table nodes touched" metric.
type Stats struct {
	TablesAllocated uint64
	TablesFreed     uint64
	EntriesSet      uint64
	EntriesCleared  uint64
	Walks           uint64
	WalkRefs        uint64
}

// Table is one address space's translation structure: a root (PML4) frame
// plus the intermediate tables it owns. Tables reached through linked
// subtrees (segment translation caches, Barrelfish shared page tables) are
// not owned and are neither descended into for teardown nor freed.
type Table struct {
	pm    *mem.PhysMem
	root  arch.PhysAddr
	owned map[arch.PhysAddr]struct{}
	stats Stats
	obs   *stats.PTCounters // optional machine-wide counters (nil = off)
}

// New allocates an empty page table.
func New(pm *mem.PhysMem) (*Table, error) {
	root, err := pm.AllocPage()
	if err != nil {
		return nil, fmt.Errorf("pt: allocating root: %w", err)
	}
	t := &Table{pm: pm, root: root, owned: map[arch.PhysAddr]struct{}{root: {}}}
	t.stats.TablesAllocated++
	return t, nil
}

// SetObserver mirrors this table's subsequent activity into the machine-wide
// page-table counters (stats.Sink.PT). A nil observer disables mirroring;
// activity before the call is not backfilled.
func (t *Table) SetObserver(o *stats.PTCounters) { t.obs = o }

// Root returns the physical address of the root table — the value a core
// loads into CR3 to activate this address space.
func (t *Table) Root() arch.PhysAddr { return t.root }

// Stats returns a snapshot of the table's activity counters.
func (t *Table) Stats() Stats { return t.stats }

// OwnedTables returns the number of table nodes this Table owns.
func (t *Table) OwnedTables() int { return len(t.owned) }

func (t *Table) load(table arch.PhysAddr, idx uint64) PTE {
	v, err := t.pm.Load64(table + arch.PhysAddr(idx*8))
	if err != nil {
		panic("pt: table frame vanished: " + err.Error())
	}
	return PTE(v)
}

func (t *Table) store(table arch.PhysAddr, idx uint64, e PTE) {
	if err := t.pm.Store64(table+arch.PhysAddr(idx*8), uint64(e)); err != nil {
		panic("pt: table frame vanished: " + err.Error())
	}
}

func (t *Table) allocTable() (arch.PhysAddr, error) {
	pa, err := t.pm.AllocPage()
	if err != nil {
		return 0, fmt.Errorf("pt: allocating table: %w", err)
	}
	t.owned[pa] = struct{}{}
	t.stats.TablesAllocated++
	t.obs.TableAllocated()
	return pa, nil
}

// ensurePath walks from the root down to (but not including) leafLevel,
// allocating intermediate tables as needed, and returns the physical address
// of the table at leafLevel.
func (t *Table) ensurePath(va arch.VirtAddr, leafLevel int) (arch.PhysAddr, error) {
	table := t.root
	for level := arch.PTLevels - 1; level > leafLevel; level-- {
		idx := va.Index(level)
		e := t.load(table, idx)
		if !e.Present() {
			child, err := t.allocTable()
			if err != nil {
				return 0, err
			}
			t.store(table, idx, makeTablePTE(child))
			t.stats.EntriesSet++
			t.obs.EntrySet()
			table = child
			continue
		}
		if e.Huge() {
			return 0, fmt.Errorf("pt: %v already mapped by a level-%d large page", va, level)
		}
		table = e.Addr()
	}
	return table, nil
}

// MapPage installs a single translation va -> pa of the given page size.
// Both addresses must be aligned to pageSize. Mapping over an existing
// translation is an error: unlike Linux mmap (paper §2.4), the simulator
// refuses to silently overwrite.
func (t *Table) MapPage(va arch.VirtAddr, pa arch.PhysAddr, pageSize uint64, perm arch.Perm, global bool) error {
	ll, err := leafLevel(pageSize)
	if err != nil {
		return err
	}
	if uint64(va)%pageSize != 0 || uint64(pa)%pageSize != 0 {
		return fmt.Errorf("pt: map %v -> %v not aligned to %d", va, pa, pageSize)
	}
	if !va.Canonical() {
		return fmt.Errorf("pt: non-canonical %v", va)
	}
	table, err := t.ensurePath(va, ll)
	if err != nil {
		return err
	}
	idx := va.Index(ll)
	if t.load(table, idx).Present() {
		return fmt.Errorf("pt: %v already mapped", va)
	}
	var extra PTE
	if ll > 0 {
		extra |= FlagHuge
	}
	if global {
		extra |= FlagGlobal
	}
	t.store(table, idx, MakePTE(pa, perm, extra))
	t.stats.EntriesSet++
	t.obs.EntrySet()
	return nil
}

// Map installs translations for size bytes starting at va, backed by
// contiguous physical memory starting at pa, using pages of pageSize.
func (t *Table) Map(va arch.VirtAddr, pa arch.PhysAddr, size, pageSize uint64, perm arch.Perm, global bool) error {
	if size%pageSize != 0 {
		return fmt.Errorf("pt: map size %d not a multiple of page size %d", size, pageSize)
	}
	for off := uint64(0); off < size; off += pageSize {
		if err := t.MapPage(va+arch.VirtAddr(off), pa+arch.PhysAddr(off), pageSize, perm, global); err != nil {
			return err
		}
	}
	return nil
}

// WalkResult is the outcome of a successful page-table walk.
type WalkResult struct {
	PA       arch.PhysAddr // translation of the queried address
	Perm     arch.Perm     // leaf permissions
	PageSize uint64        // size of the mapping's page
	Global   bool          // leaf has the global bit set
	Refs     int           // memory references the hardware walker issued
}

// Walk translates va. On failure the returned WalkResult still carries the
// number of walker references issued, so the MMU can charge miss cycles.
func (t *Table) Walk(va arch.VirtAddr) (WalkResult, error) {
	r, err := t.walk(va)
	t.stats.Walks++
	t.stats.WalkRefs += uint64(r.Refs)
	t.obs.Walk(r.Refs)
	return r, err
}

func (t *Table) walk(va arch.VirtAddr) (r WalkResult, _ error) {
	table := t.root
	for level := arch.PTLevels - 1; level >= 0; level-- {
		r.Refs++
		e := t.load(table, va.Index(level))
		if !e.Present() {
			return r, &NotMappedError{VA: va, Level: level}
		}
		if level == 0 || e.Huge() {
			r.PageSize = arch.LevelCoverage(level)
			r.PA = e.Addr() + arch.PhysAddr(uint64(va)%r.PageSize)
			r.Perm = e.Perm()
			r.Global = e.Global()
			return r, nil
		}
		table = e.Addr()
	}
	panic("pt: unreachable")
}

// NotMappedError reports a translation failure — the simulator's page fault.
type NotMappedError struct {
	VA    arch.VirtAddr
	Level int
}

func (e *NotMappedError) Error() string {
	return fmt.Sprintf("pt: %v not mapped (miss at level %d)", e.VA, e.Level)
}

// Protect changes the permissions of every mapping in [va, va+size). All
// pages in the range must be mapped.
func (t *Table) Protect(va arch.VirtAddr, size uint64, perm arch.Perm) error {
	end := uint64(va) + size
	for cur := uint64(va); cur < end; {
		table, level, err := t.leafFor(arch.VirtAddr(cur))
		if err != nil {
			return err
		}
		idx := arch.VirtAddr(cur).Index(level)
		e := t.load(table, idx)
		t.store(table, idx, MakePTE(e.Addr(), perm, e&(FlagHuge|FlagGlobal)))
		cur += arch.LevelCoverage(level)
	}
	return nil
}

// leafFor returns the table and level holding the leaf entry for va.
func (t *Table) leafFor(va arch.VirtAddr) (arch.PhysAddr, int, error) {
	table := t.root
	for level := arch.PTLevels - 1; level >= 0; level-- {
		e := t.load(table, va.Index(level))
		if !e.Present() {
			return 0, 0, &NotMappedError{VA: va, Level: level}
		}
		if level == 0 || e.Huge() {
			return table, level, nil
		}
		table = e.Addr()
	}
	panic("pt: unreachable")
}

// Unmap removes every translation inside [va, va+size) and frees owned
// table nodes that become empty. Large pages must be unmapped whole.
func (t *Table) Unmap(va arch.VirtAddr, size uint64) error {
	if size == 0 {
		return nil
	}
	_, err := t.unmapLevel(t.root, arch.PTLevels-1, 0, uint64(va), uint64(va)+size)
	return err
}

// unmapLevel clears the range [lo, hi) within the table at tablePA, whose
// entry i covers [base + i*cover, base + (i+1)*cover). Returns whether the
// table ended up empty.
func (t *Table) unmapLevel(tablePA arch.PhysAddr, level int, base, lo, hi uint64) (bool, error) {
	cover := arch.LevelCoverage(level)
	first := uint64(0)
	if lo > base {
		first = (lo - base) / cover
	}
	for i := first; i < arch.PTEntries; i++ {
		entryBase := base + i*cover
		if entryBase >= hi {
			break
		}
		e := t.load(tablePA, i)
		if !e.Present() {
			continue
		}
		if level == 0 || e.Huge() {
			if entryBase < lo || entryBase+cover > hi {
				return false, fmt.Errorf("pt: partial unmap of %d-byte page at va:%#x", cover, entryBase)
			}
			t.store(tablePA, i, 0)
			t.stats.EntriesCleared++
			continue
		}
		child := e.Addr()
		if _, ours := t.owned[child]; !ours {
			// Linked subtree (shared translation cache): detach only if the
			// range covers the whole entry; never descend into it.
			if entryBase >= lo && entryBase+cover <= hi {
				t.store(tablePA, i, 0)
				t.stats.EntriesCleared++
			}
			continue
		}
		empty, err := t.unmapLevel(child, level-1, entryBase, lo, hi)
		if err != nil {
			return false, err
		}
		if empty {
			t.store(tablePA, i, 0)
			t.stats.EntriesCleared++
			t.freeTable(child)
		}
	}
	return t.tableEmpty(tablePA), nil
}

func (t *Table) tableEmpty(tablePA arch.PhysAddr) bool {
	for i := uint64(0); i < arch.PTEntries; i++ {
		if t.load(tablePA, i).Present() {
			return false
		}
	}
	return true
}

func (t *Table) freeTable(pa arch.PhysAddr) {
	delete(t.owned, pa)
	if err := t.pm.Free(pa, 0); err != nil {
		panic("pt: freeing table: " + err.Error())
	}
	t.stats.TablesFreed++
	t.obs.TableFreed()
}

// LinkSubtree installs an entry at the given level pointing to an externally
// owned table subtree (a segment's cached translations, or another address
// space's shared tables). va must be aligned to the coverage of one entry at
// that level. level is the level of the entry (e.g. 3 links a PDPT into the
// PML4; 2 links a PD into a PDPT).
func (t *Table) LinkSubtree(va arch.VirtAddr, level int, subtree arch.PhysAddr) error {
	if level < 1 || level >= arch.PTLevels {
		return fmt.Errorf("pt: cannot link at level %d", level)
	}
	if uint64(va)%arch.LevelCoverage(level) != 0 {
		return fmt.Errorf("pt: %v not aligned for level-%d link", va, level)
	}
	table, err := t.ensurePath(va, level)
	if err != nil {
		return err
	}
	idx := va.Index(level)
	if t.load(table, idx).Present() {
		return fmt.Errorf("pt: %v already mapped; cannot link subtree", va)
	}
	t.store(table, idx, makeTablePTE(subtree))
	t.stats.EntriesSet++
	t.obs.EntrySet()
	return nil
}

// UnlinkSubtree removes an entry installed by LinkSubtree without touching
// the subtree itself.
func (t *Table) UnlinkSubtree(va arch.VirtAddr, level int) error {
	table := t.root
	for l := arch.PTLevels - 1; l > level; l-- {
		e := t.load(table, va.Index(l))
		if !e.Present() || e.Huge() {
			return fmt.Errorf("pt: no subtree linked at %v", va)
		}
		table = e.Addr()
	}
	idx := va.Index(level)
	e := t.load(table, idx)
	if !e.Present() {
		return fmt.Errorf("pt: no subtree linked at %v", va)
	}
	if _, ours := t.owned[e.Addr()]; ours {
		return fmt.Errorf("pt: entry at %v is an owned table, not a linked subtree", va)
	}
	t.store(table, idx, 0)
	t.stats.EntriesCleared++
	t.obs.EntryCleared()
	return nil
}

// Destroy frees every table node this Table owns. Linked subtrees are left
// intact. The Table must not be used afterwards.
func (t *Table) Destroy() {
	for pa := range t.owned {
		delete(t.owned, pa)
		if err := t.pm.Free(pa, 0); err != nil {
			panic("pt: destroy: " + err.Error())
		}
		t.stats.TablesFreed++
		t.obs.TableFreed()
	}
}
