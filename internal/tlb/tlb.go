// Package tlb simulates a set-associative, tagged translation lookaside
// buffer. Entries carry an ASID (a 12-bit PCID, paper §4.4); loading CR3
// with the reserved flush tag invalidates all non-global entries, while
// switching between tagged address spaces retains translations — the
// mechanism behind the paper's Figure 6 and the tagged rows of Table 2.
package tlb

import (
	"fmt"
	"sync"
	"sync/atomic"

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
	// bumping one counter. Global entries outlive generations. A flush writes
	// it while the owner may look, so both use sync/atomic on the plain word
	// (an atomic type would forbid copying an Entry).
	gen  uint64
	used uint64 // LRU timestamp
}

// TLB is a single-level, set-associative translation cache. Only the owning
// core looks up and inserts, so the clock, the LRU stamps and what an entry
// translates change on its goroutine alone, and its lookups (Probe, Settle)
// take no lock. Shootdown IPIs (vm.Space.Shootdown) flush from any goroutine;
// flushes and Insert hold mu. What a flush writes and the owner reads unlocked
// is atomic and ordered: an entry's gen is stored before the epoch advances,
// the TLB's gen is bumped before it, and the owner reads the epoch before it
// probes. So a probe that saw an entry live made a copy stale from birth, and
// one after the flush misses. That lets the owner keep an L0 in front
// (hw.Core): a copy is good while its epoch lasts and the owner has not reused
// the entry, and the hits it serves reach the TLB later, in one Settle.
type TLB struct {
	mu   sync.Mutex
	cfg  Config
	sets [][]Entry
	tick uint64 // the LRU clock: the owner's
	// epoch advances with every entry a flush takes and every FlushAll: written
	// under mu, read by the owner without it before every hit its L0 serves.
	epoch atomic.Uint64
	// gen is the current flush generation (starts at 1) and nonGlobal the
	// number of live non-global entries — exactly what a scan for FlushAll's
	// victims would count, maintained by every operation that installs or
	// invalidates an entry.
	gen       atomic.Uint64
	nonGlobal int
	// large counts the slots holding a 2 MiB or 1 GiB entry, live or not. Only
	// Insert changes it, so the owner reads it unlocked and a flush under mu.
	large int
}

// New creates a TLB with the given geometry.
func New(cfg Config) *TLB {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("tlb: sets must be a positive power of two, got %d", cfg.Sets))
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("tlb: ways must be positive, got %d", cfg.Ways))
	}
	t := &TLB{cfg: cfg, sets: make([][]Entry, cfg.Sets)}
	for i := range t.sets {
		t.sets[i] = make([]Entry, cfg.Ways)
	}
	t.gen.Store(1)
	return t
}

// Capacity returns the number of entries the TLB can hold.
func (t *TLB) Capacity() int { return t.cfg.Sets * t.cfg.Ways }

func (t *TLB) setFor(vpn uint64) []Entry {
	return t.sets[vpn&uint64(t.cfg.Sets-1)]
}

// live reports whether e holds a translation in generation gen: installed in
// it, or global and installed at all.
func live(e *Entry, gen uint64) bool {
	g := atomic.LoadUint64(&e.gen)
	return g == gen || (e.Global && g != 0)
}

// invalidate empties a live entry on behalf of a flush (gen before epoch: see TLB).
func (t *TLB) invalidate(e *Entry) {
	if !e.Global {
		t.nonGlobal--
	}
	atomic.StoreUint64(&e.gen, 0)
	t.epoch.Add(1)
}

// pageSizes are probed from smallest to largest on lookup, emulating a
// unified TLB that caches all three page sizes.
var pageSizes = [...]uint64{arch.PageSize, arch.HugePageSize, arch.GiantPageSize}

// sizes returns the page sizes a lookup or FlushPage must probe: while no slot
// holds a large entry, only 4 KiB.
func (t *TLB) sizes() []uint64 {
	if t.large == 0 {
		return pageSizes[:1]
	}
	return pageSizes[:]
}

// find is one lookup: the clock advances, and the probe is a hit that renews the
// entry's LRU stamp or a miss. Global entries match any ASID. Only the owner
// calls it.
func (t *TLB) find(asid arch.ASID, va arch.VirtAddr) *Entry {
	t.tick++
	gen := t.gen.Load()
	for _, ps := range t.sizes() {
		vpn := uint64(arch.AlignDown(va, ps)) >> arch.PageShift
		set := t.setFor(vpn)
		for i := range set {
			e := &set[i]
			if e.VPN == vpn && e.PageSize == ps && (e.Global || e.ASID == asid) && live(e, gen) {
				e.used = t.tick
				return e
			}
		}
	}
	return nil
}

// Lookup probes the TLB for a translation of va under the given ASID.
// Global entries match any ASID. On a hit the entry's LRU stamp is renewed.
// It holds mu to copy the entry whole: a flush may be writing its gen.
func (t *TLB) Lookup(asid arch.ASID, va arch.VirtAddr) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.find(asid, va); e != nil {
		return *e, true
	}
	return Entry{}, false
}

// Touch is one entry's share of a batch of deferred hits: the entry, as Probe
// or Insert returned it, and the position in the batch (from 1) of its latest.
type Touch struct {
	E    *Entry
	Last uint64
}

// Settle leaves the TLB where the deferred batch's n lookups, all hits the
// owner's L0 answered since the last settle, would have: the clock advances by
// n, and each entry that served any takes the stamp its latest would have given
// it (the later, if listed twice: a large page behind two L0 slots; a flush may
// have taken it since). Only the owner calls it, without a lock.
func (t *TLB) Settle(n uint64, touched []Touch) {
	for _, x := range touched {
		x.E.used = max(x.E.used, t.tick+x.Last)
	}
	t.tick += n
}

// Probe is the lookup behind the owner's L0: the deferred batch is settled, then
// va is looked up as by Lookup, and a hit returns the entry itself, whose
// exported fields only the owner's next Insert over it changes. It takes no
// lock. The caller reads Epoch first: a flush after that makes its copy stale
// from birth, never good (see TLB).
func (t *TLB) Probe(asid arch.ASID, va arch.VirtAddr, n uint64, touched []Touch) *Entry {
	t.Settle(n, touched)
	return t.find(asid, va)
}

// Epoch returns the flush epoch an L0 copy is valid in.
func (t *TLB) Epoch() uint64 { return t.epoch.Load() }

// Insert installs a translation, evicting the least recently used entry of
// the target set if it is full. The entry's VPN is derived from its page
// base, so callers pass the base virtual address of the page. It returns the
// entry it installed; what the slot held, if that was live (PageSize 0 if not),
// for the owner's L0 to drop its copies of; and whether that was an eviction,
// which the MMU attributes to the victim's address space. Deferred hits must be
// settled first: the victim is chosen by stamp.
func (t *TLB) Insert(asid arch.ASID, base arch.VirtAddr, frame arch.PhysAddr, pageSize uint64, perm arch.Perm, global bool) (e *Entry, was Entry, evicted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tick++
	gen := t.gen.Load()
	vpn := uint64(arch.AlignDown(base, pageSize)) >> arch.PageShift
	set := t.setFor(vpn)
	victim := 0
	for i := range set {
		e := &set[i]
		if !live(e, gen) {
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
	if live(v, gen) {
		was = *v
		evicted = v.VPN != vpn || v.ASID != asid
		if !v.Global {
			t.nonGlobal--
		}
	}
	if v.PageSize > arch.PageSize {
		t.large--
	}
	if pageSize > arch.PageSize {
		t.large++
	}
	*v = Entry{
		VPN: vpn, ASID: asid, Frame: arch.PhysAddr(arch.AlignDown(arch.VirtAddr(frame), pageSize)),
		Perm: perm, PageSize: pageSize, Global: global, gen: gen, used: t.tick,
	}
	if !global {
		t.nonGlobal++
	}
	return v, was, evicted
}

// FlushAll invalidates every non-global entry — the effect of writing CR3
// without a tag (or with the reserved flush tag). It returns the number of
// entries invalidated. The cost is one generation bump whatever the TLB
// holds: entries of older generations are dead wherever they are consulted.
func (t *TLB) FlushAll() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.nonGlobal
	t.nonGlobal = 0
	t.gen.Add(1) // before the epoch (see TLB)
	t.epoch.Add(1)
	return n
}

// FlushASID invalidates every entry tagged with the given ASID (INVPCID)
// and returns the number of entries invalidated.
func (t *TLB) FlushASID(asid arch.ASID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, gen := 0, t.gen.Load()
	for _, set := range t.sets {
		for i := range set {
			if e := &set[i]; e.ASID == asid && live(e, gen) {
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
	n, gen := 0, t.gen.Load()
	for _, ps := range t.sizes() {
		vpn := uint64(arch.AlignDown(va, ps)) >> arch.PageShift
		set := t.setFor(vpn)
		for i := range set {
			if e := &set[i]; e.PageSize == ps && e.VPN == vpn && e.ASID == asid && live(e, gen) {
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
	n, gen := 0, t.gen.Load()
	for _, set := range t.sets {
		for i := range set {
			if live(&set[i], gen) {
				n++
			}
		}
	}
	return n
}
