// Package tlb simulates a set-associative, tagged translation lookaside
// buffer. Entries carry an ASID (a 12-bit PCID, paper §4.4); loading CR3
// with the reserved flush tag invalidates all non-global entries, while
// switching between tagged address spaces retains translations — the
// mechanism behind the paper's Figure 6 and the tagged rows of Table 2.
package tlb

import (
	"fmt"
	"sync"

	"spacejmp/internal/arch"
)

// Config sizes the TLB. Entries = Sets * Ways.
type Config struct {
	Sets int // power of two
	Ways int
}

// DefaultConfig models a modern unified L2 TLB: 128 sets x 12 ways = 1536
// entries (Haswell-era STLB, matching the paper's M3 machine).
var DefaultConfig = Config{Sets: 128, Ways: 12}

// Entry is one cached translation.
type Entry struct {
	VPN      uint64        // virtual page number (va / PageSize of the page base)
	Frame    arch.PhysAddr // physical base of the page
	PageSize uint64
	ASID     arch.ASID
	Perm     arch.Perm
	Global   bool

	// gen is the flush generation the entry was installed in; 0 marks an
	// empty slot. A non-global entry is live only while gen equals the TLB's
	// current generation, which is how FlushAll invalidates all of them by
	// bumping one counter. Global entries outlive generations.
	gen  uint64
	used uint64 // LRU timestamp
}

// Stats counts TLB activity.
type Stats struct {
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	Flushes        uint64
	FlushedEntries uint64
}

// TLB is a single-level, set-associative translation cache. A core's TLB
// is mostly touched by that core's own goroutine, but shootdown IPIs
// (vm.Space.Shootdown) flush entries from whichever goroutine removed the
// translation — the mutex is the interconnect that serializes them.
type TLB struct {
	mu   sync.Mutex
	cfg  Config
	sets [][]Entry
	tick uint64
	// gen is the current flush generation (starts at 1) and nonGlobal the
	// number of live non-global entries — exactly what a scan for FlushAll's
	// victims would count, maintained by every operation that installs or
	// invalidates an entry.
	gen       uint64
	nonGlobal int
	stats     Stats
}

// New creates a TLB with the given geometry.
func New(cfg Config) *TLB {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("tlb: sets must be a positive power of two, got %d", cfg.Sets))
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("tlb: ways must be positive, got %d", cfg.Ways))
	}
	t := &TLB{cfg: cfg, sets: make([][]Entry, cfg.Sets), gen: 1}
	for i := range t.sets {
		t.sets[i] = make([]Entry, cfg.Ways)
	}
	return t
}

// Capacity returns the number of entries the TLB can hold.
func (t *TLB) Capacity() int { return t.cfg.Sets * t.cfg.Ways }

// Stats returns a snapshot of the activity counters.
func (t *TLB) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// ResetStats clears the activity counters (entries are kept).
func (t *TLB) ResetStats() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats = Stats{}
}

func (t *TLB) setFor(vpn uint64) []Entry {
	return t.sets[vpn&uint64(t.cfg.Sets-1)]
}

// live reports whether e holds a translation: installed in the current
// generation, or global and installed at all.
func (t *TLB) live(e *Entry) bool {
	return e.gen == t.gen || (e.Global && e.gen != 0)
}

// invalidate empties a live entry on behalf of a flush.
func (t *TLB) invalidate(e *Entry) {
	if !e.Global {
		t.nonGlobal--
	}
	e.gen = 0
	t.stats.FlushedEntries++
}

// pageSizes are probed from smallest to largest on lookup, emulating a
// unified TLB that caches all three page sizes.
var pageSizes = [...]uint64{arch.PageSize, arch.HugePageSize, arch.GiantPageSize}

// probe returns the live entry translating va under the given ASID, or nil,
// and changes nothing. Global entries match any ASID. Caller holds t.mu.
func (t *TLB) probe(asid arch.ASID, va arch.VirtAddr) *Entry {
	for _, ps := range pageSizes {
		vpn := uint64(arch.AlignDown(va, ps)) >> arch.PageShift
		set := t.setFor(vpn)
		for i := range set {
			e := &set[i]
			if e.VPN == vpn && e.PageSize == ps && (e.Global || e.ASID == asid) && t.live(e) {
				return e
			}
		}
	}
	return nil
}

// find is one counted lookup: the clock advances, and the probe is a hit that
// renews the entry's LRU stamp or a miss. Caller holds t.mu.
func (t *TLB) find(asid arch.ASID, va arch.VirtAddr) *Entry {
	t.tick++
	e := t.probe(asid, va)
	if e == nil {
		t.stats.Misses++
		return nil
	}
	e.used = t.tick
	t.stats.Hits++
	return e
}

// Lookup probes the TLB for a translation of va under the given ASID.
// Global entries match any ASID. On a hit the entry's LRU stamp is renewed.
func (t *TLB) Lookup(asid arch.ASID, va arch.VirtAddr) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.find(asid, va); e != nil {
		return *e, true
	}
	return Entry{}, false
}

// Translate is Lookup as the MMU uses it on every access: on a hit it
// returns the physical address va maps to and the mapping's permissions,
// without copying the entry out.
func (t *TLB) Translate(asid arch.ASID, va arch.VirtAddr) (pa arch.PhysAddr, perm arch.Perm, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.find(asid, va); e != nil {
		return e.Frame + arch.PhysAddr(uint64(va)&(e.PageSize-1)), e.Perm, true
	}
	return 0, 0, false
}

// TranslateRun is k Translate calls on consecutive words of one 4 KiB page,
// starting at va, for a caller that needs all of them to hit with need
// allowed. If the page's entry is live and allows need, the clock, the hit
// count and the entry's LRU stamp end exactly where k lookups leave them —
// every probe of one 4 KiB page finds the same entry, and a hit changes
// nothing else. Otherwise nothing at all changes and ok is false: the caller
// issues the words one by one, and each counts its own outcome.
func (t *TLB) TranslateRun(asid arch.ASID, va arch.VirtAddr, need arch.Perm, k int) (pa arch.PhysAddr, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.probe(asid, va)
	if e == nil || !e.Perm.Allows(need) {
		return 0, false
	}
	t.tick += uint64(k)
	t.stats.Hits += uint64(k)
	e.used = t.tick
	return e.Frame + arch.PhysAddr(uint64(va)&(e.PageSize-1)), true
}

// Insert installs a translation, evicting the least recently used entry of
// the target set if it is full. The entry's VPN is derived from its page
// base, so callers pass the base virtual address of the page. It returns
// the ASID of the entry it displaced and whether an eviction happened, so
// the MMU can attribute the eviction to the victim's address space.
func (t *TLB) Insert(asid arch.ASID, base arch.VirtAddr, frame arch.PhysAddr, pageSize uint64, perm arch.Perm, global bool) (victimASID arch.ASID, evicted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tick++
	vpn := uint64(arch.AlignDown(base, pageSize)) >> arch.PageShift
	set := t.setFor(vpn)
	victim := 0
	for i := range set {
		e := &set[i]
		if !t.live(e) {
			victim = i
			break
		}
		if e.PageSize == pageSize && e.VPN == vpn && e.ASID == asid {
			victim = i // refresh in place
			break
		}
		if e.used < set[victim].used {
			victim = i
		}
	}
	v := &set[victim]
	if t.live(v) {
		if v.VPN != vpn || v.ASID != asid {
			t.stats.Evictions++
			victimASID, evicted = v.ASID, true
		}
		if !v.Global {
			t.nonGlobal--
		}
	}
	*v = Entry{
		VPN: vpn, ASID: asid, Frame: arch.PhysAddr(arch.AlignDown(arch.VirtAddr(frame), pageSize)),
		Perm: perm, PageSize: pageSize, Global: global, gen: t.gen, used: t.tick,
	}
	if !global {
		t.nonGlobal++
	}
	return victimASID, evicted
}

// FlushAll invalidates every non-global entry — the effect of writing CR3
// without a tag (or with the reserved flush tag). It returns the number of
// entries invalidated. The cost is one generation bump whatever the TLB
// holds: entries of older generations are dead wherever they are consulted.
func (t *TLB) FlushAll() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Flushes++
	n := t.nonGlobal
	t.stats.FlushedEntries += uint64(n)
	t.nonGlobal = 0
	t.gen++
	return n
}

// FlushASID invalidates every entry tagged with the given ASID (INVPCID)
// and returns the number of entries invalidated.
func (t *TLB) FlushASID(asid arch.ASID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Flushes++
	n := 0
	for _, set := range t.sets {
		for i := range set {
			if e := &set[i]; e.ASID == asid && t.live(e) {
				t.invalidate(e)
				n++
			}
		}
	}
	return n
}

// FlushPage invalidates the translation of the page containing va for the
// given ASID at every page size (INVLPG) and returns the number of entries
// invalidated.
func (t *TLB) FlushPage(asid arch.ASID, va arch.VirtAddr) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, ps := range pageSizes {
		vpn := uint64(arch.AlignDown(va, ps)) >> arch.PageShift
		set := t.setFor(vpn)
		for i := range set {
			if e := &set[i]; e.PageSize == ps && e.VPN == vpn && e.ASID == asid && t.live(e) {
				t.invalidate(e)
				n++
			}
		}
	}
	return n
}

// Live returns the number of valid entries (for tests and introspection).
func (t *TLB) Live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, set := range t.sets {
		for i := range set {
			if t.live(&set[i]) {
				n++
			}
		}
	}
	return n
}
