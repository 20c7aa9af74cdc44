// Package hw models the hardware the SpaceJMP prototypes ran on: multi-core,
// dual-socket machines (paper Table 1) whose cores each hold a CR3 root
// pointer and a tagged TLB, with a deterministic cycle cost model calibrated
// to the paper's Table 2 measurements.
//
// All simulated work is charged to a per-core cycle counter; benchmarks
// convert cycles to time using the machine's clock frequency, which lets the
// reproduction report the same units the paper does regardless of the speed
// of the host running the simulation.
package hw

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"spacejmp/internal/arch"
	"spacejmp/internal/fault"
	"spacejmp/internal/mem"
	"spacejmp/internal/pt"
	"spacejmp/internal/stats"
	"spacejmp/internal/tlb"
)

// CostModel holds the hardware cycle costs. The CR3 constants come straight
// from Table 2 (measured on M2): loading CR3 costs 130 cycles untagged and
// 224 cycles with PCID tagging enabled, because the tagged write activates
// extra TLB circuitry.
type CostModel struct {
	CR3Load       uint64 // write to CR3, untagged
	CR3LoadTagged uint64 // write to CR3 with a PCID tag
	TLBHit        uint64 // translation served from the TLB
	WalkRef       uint64 // one page-walker memory reference
	MemAccess     uint64 // one cache-line data access
	CacheLineXfer uint64 // cache-line transfer between cores, same socket
	CacheLineXSoc uint64 // cache-line transfer across sockets (coherence round trip)

	// Kernel page-table manipulation costs (Figure 1's mmap/munmap cost
	// model): writing one PTE, allocating+zeroing one table node, and
	// freeing one.
	PTESet     uint64
	PTEClear   uint64
	TableAlloc uint64
	TableFree  uint64
}

// DefaultCost is the cost model used by every machine config.
var DefaultCost = CostModel{
	CR3Load:       130,
	CR3LoadTagged: 224,
	TLBHit:        1,
	WalkRef:       40,
	MemAccess:     4,
	CacheLineXfer: 100,
	CacheLineXSoc: 450,
	PTESet:        45,
	PTEClear:      25,
	TableAlloc:    600,
	TableFree:     300,
}

// MachineConfig describes a simulated platform.
type MachineConfig struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	GHz            float64
	Mem            mem.Config
	TLB            tlb.Config
	Cost           CostModel
}

// The three large-memory platforms of Table 1. Physical memory is lazily
// materialized, so the full capacities are simulated faithfully.
func M1() MachineConfig {
	// The Xeon X5650 is a 6-core part; §5.3 calls M1 "the twelve core
	// machine" (SMT disabled), i.e. 2 sockets x 6 cores.
	return MachineConfig{Name: "M1", Sockets: 2, CoresPerSocket: 6, GHz: 2.66,
		Mem: mem.Config{DRAMSize: 92 << 30}, TLB: tlb.DefaultConfig, Cost: DefaultCost}
}

func M2() MachineConfig {
	return MachineConfig{Name: "M2", Sockets: 2, CoresPerSocket: 10, GHz: 2.50,
		Mem: mem.Config{DRAMSize: 256 << 30}, TLB: tlb.DefaultConfig, Cost: DefaultCost}
}

func M3() MachineConfig {
	return MachineConfig{Name: "M3", Sockets: 2, CoresPerSocket: 18, GHz: 2.30,
		Mem: mem.Config{DRAMSize: 512 << 30}, TLB: tlb.DefaultConfig, Cost: DefaultCost}
}

// SmallTest returns a small machine for unit tests.
func SmallTest() MachineConfig {
	return MachineConfig{Name: "test", Sockets: 2, CoresPerSocket: 2, GHz: 2.0,
		Mem: mem.Config{DRAMSize: 512 << 20, NVMSize: 128 << 20}, TLB: tlb.Config{Sets: 16, Ways: 4}, Cost: DefaultCost}
}

// NamedConfig resolves a machine name as commands and scenario specs use
// them: the paper's M1/M2/M3 platforms, or "small" (the unit-test machine).
func NamedConfig(name string) (MachineConfig, error) {
	switch name {
	case "M1":
		return M1(), nil
	case "M2":
		return M2(), nil
	case "M3":
		return M3(), nil
	case "small", "":
		return SmallTest(), nil
	}
	return MachineConfig{}, fmt.Errorf("hw: unknown machine %q (want M1, M2, M3, or small)", name)
}

// Machine is a simulated platform instance.
type Machine struct {
	Cfg   MachineConfig
	PM    *mem.PhysMem
	Cores []*Core

	// Faults is the machine-wide fault-injection registry (nil when fault
	// injection is off). Install it with SetFaults so physical memory and
	// everything built on the machine share one scope.
	Faults *fault.Registry

	obs *stats.Sink
}

// SetFaults installs a fault-injection registry on the machine and its
// physical memory. Pass nil to disable injection.
func (m *Machine) SetFaults(r *fault.Registry) {
	m.Faults = r
	m.PM.SetFaults(r)
	m.wireFaultObserver()
}

// EnableStats turns on machine-wide observability: per-core cycle accounting
// by category, per-ASID TLB counters, page-table and NVM activity. When
// traceCap > 0 a bounded trace ring of that capacity is installed too. The
// returned sink is live; take point-in-time copies with StatsSnapshot.
func (m *Machine) EnableStats(traceCap int) *stats.Sink {
	s := stats.NewSink(len(m.Cores))
	if traceCap > 0 {
		s.SetTracer(stats.NewTracer(traceCap))
	}
	m.setObserver(s)
	return s
}

// DisableStats turns observability back off; subsequent hardware activity
// reduces to the nil fast path.
func (m *Machine) DisableStats() { m.setObserver(nil) }

// Observer returns the installed stats sink, or nil when observability is
// off. Components built on the machine (vm, the OS personalities, urpc)
// record their own events through it.
func (m *Machine) Observer() *stats.Sink { return m.obs }

func (m *Machine) setObserver(s *stats.Sink) {
	m.obs = s
	m.PM.SetObserver(s)
	for _, c := range m.Cores {
		c.settle() // what the L0 deferred belongs to the sink being left
		c.sink = s
		c.cobs = s.Core(c.ID)
	}
	m.wireFaultObserver()
}

func (m *Machine) wireFaultObserver() {
	if m.Faults == nil {
		return
	}
	if s := m.obs; s != nil {
		m.Faults.SetObserver(func(name string) { s.FaultFired(name) })
	} else {
		m.Faults.SetObserver(nil)
	}
}

// StatsSnapshot returns an immutable copy of every observability counter,
// completed with the per-core totals (cycles, MMU events) since the sink was
// installed. Safe while the cores run: it reads what each core reported at its
// last settle point, never the core's own words, so it lags a core by the hits
// its L0 has served since — none at a command boundary, a CR3 write. Returns
// nil when observability is off.
func (m *Machine) StatsSnapshot() *stats.Snapshot {
	snap := m.obs.Snapshot()
	for i := 0; snap != nil && i < len(snap.Cores); i++ {
		m.obs.Core(i).Complete(&snap.Cores[i])
	}
	return snap
}

// NewMachine boots a machine: physical memory plus one Core per hardware
// thread (SMT is disabled in the paper's setup).
func NewMachine(cfg MachineConfig) *Machine {
	m := &Machine{Cfg: cfg, PM: mem.New(cfg.Mem)}
	n := cfg.Sockets * cfg.CoresPerSocket
	for i := 0; i < n; i++ {
		m.Cores = append(m.Cores, &Core{
			ID:      i,
			Socket:  i / cfg.CoresPerSocket,
			machine: m,
			TLB:     tlb.New(cfg.TLB),
		})
	}
	return m
}

// SameSocket reports whether two cores share a socket (Figure 7's URPC L
// vs URPC X distinction).
func (m *Machine) SameSocket(a, b int) bool {
	return m.Cores[a].Socket == m.Cores[b].Socket
}

// CyclesToNs converts a cycle count to nanoseconds at this machine's clock.
func (m *Machine) CyclesToNs(cycles uint64) float64 {
	return float64(cycles) / m.Cfg.GHz
}

// CoreStats counts per-core MMU events.
type CoreStats struct {
	TLBHits   uint64
	TLBMisses uint64
	Faults    uint64
	CR3Loads  uint64
}

// PageFault is delivered when a translation is absent or permissions are
// insufficient. The OS personality's fault handler decides whether to
// populate the mapping and retry.
type PageFault struct {
	VA     arch.VirtAddr
	Access arch.Access
	Cause  error // underlying pt.NotMappedError or permission violation
}

func (f *PageFault) Error() string {
	return fmt.Sprintf("hw: page fault: %v %v (%v)", f.Access, f.VA, f.Cause)
}

// FaultHandler resolves a page fault, typically by establishing a mapping.
// Returning a non-nil error aborts the faulting access.
type FaultHandler func(c *Core, f *PageFault) error

// Core is one hardware thread: CR3, an ASID, a private TLB, and a cycle
// counter. A Core is driven by exactly one simulated OS thread at a time, and
// every field below TLB is that goroutine's alone.
type Core struct {
	ID     int
	Socket int
	TLB    *tlb.TLB

	machine *Machine
	table   *pt.Table // the address space CR3 points at
	asid    arch.ASID
	cycles  uint64
	stats   CoreStats

	// The L0 (DESIGN.md "The per-core L0"): copies of TLB entries the core
	// hits without telling the TLB or the sink, and what it owes them.
	l0       [l0Slots]l0Slot
	dirty    uint32 // bit i: l0[i] has served a hit since the last settle
	deferred uint64 // hits served since the last settle
	nvmDef   uint64 // how many of them were word stores into the NVM tier
	touched  [l0Slots]tlb.Touch

	// sink/cobs mirror machine.obs; both are nil-safe, so every charge site
	// records unconditionally and observability off costs one nil check.
	sink *stats.Sink
	cobs *stats.CoreCounters

	// OnFault is invoked on page faults; nil means faults are fatal to the
	// access. The OS personality installs its handler here.
	OnFault FaultHandler
}

// l0Slots sizes the L0, direct-mapped by 4 KiB page number; a bit of Core.dirty each.
const l0Slots = 32

// l0Slot is a TLB entry as one 4 KiB page of it is reached under one tag
// (which a global entry is cached under too). The zero slot allows nothing.
type l0Slot struct {
	key   uint64        // the page's virtual address; matching it also proves the access aligned
	epoch uint64        // the TLB's flush epoch the copy was made in
	frame arch.PhysAddr // physical address of the page
	e     *tlb.Entry    // the entry copied
	last  uint64        // position among the deferred hits of the latest served here
	asid  arch.ASID
	perm  arch.Perm
}

// hit serves k accesses of the given kind to consecutive words of one page,
// from va, out of the L0: if the page's slot is still good and allows them, they
// are charged to the core's own words and left for the next settle to report —
// no lock, no atomic add. Otherwise nothing changed: the caller goes the slow way.
func (c *Core) hit(va arch.VirtAddr, kind arch.Access, k uint64) (pa arch.PhysAddr, ok bool) {
	i := uint64(va) >> arch.PageShift % l0Slots
	s := &c.l0[i]
	if s.key != uint64(va)&^(arch.PageSize-8) || s.asid != c.asid || !s.perm.Allows(kind.Perm()) || s.epoch != c.TLB.Epoch() {
		return 0, false
	}
	cost := &c.machine.Cfg.Cost
	c.cycles += k * (cost.TLBHit + cost.MemAccess)
	c.stats.TLBHits += k
	c.deferred += k
	s.last = c.deferred
	c.dirty |= 1 << i
	if pa = s.frame + arch.PhysAddr(va.PageOffset()); kind == arch.AccessWrite && c.machine.PM.TierOf(pa) == mem.TierNVM {
		c.nvmDef += k
	}
	return pa, true
}

// cache copies entry e, which translates va under the current tag, into the
// L0. epoch was read before the Probe or Insert that returned e (tlb.Probe).
func (c *Core) cache(va arch.VirtAddr, e *tlb.Entry, epoch uint64) {
	page := uint64(va) &^ (arch.PageSize - 1)
	frame := e.Frame + arch.PhysAddr(page&(e.PageSize-1))
	c.l0[page>>arch.PageShift%l0Slots] = l0Slot{key: page, epoch: epoch, frame: frame, e: e, asid: c.asid, perm: e.Perm}
}

// takeDeferred ends a batch of deferred hits: the sink gets their cycles and
// counts, the caller what the TLB is owed (tlb.Settle, tlb.Probe).
func (c *Core) takeDeferred() (n uint64, touched []tlb.Touch) {
	if n = c.deferred; n == 0 {
		return 0, nil
	}
	touched = c.touched[:0]
	for d := c.dirty; d != 0; d &= d - 1 {
		s := &c.l0[bits.TrailingZeros32(d)]
		touched = append(touched, tlb.Touch{E: s.e, Last: s.last})
	}
	cost, nvm := &c.machine.Cfg.Cost, c.nvmDef
	c.cobs.AddCycles(stats.CatTLBProbe, n*cost.TLBHit)
	c.cobs.AddCycles(stats.CatData, (n-nvm)*cost.MemAccess)
	c.cobs.TLBHits(c.asid, n)
	if nvm > 0 {
		c.cobs.AddCycles(stats.CatNVMWrite, nvm*cost.MemAccess)
		c.sink.NVMWrite(nvm, 8*nvm)
	}
	c.deferred, c.nvmDef, c.dirty = 0, 0, 0
	return n, touched
}

// settle is a settle point that is not a TLB lookup (DESIGN.md).
func (c *Core) settle() {
	if n, touched := c.takeDeferred(); n != 0 {
		c.TLB.Settle(n, touched)
	}
}

// Machine returns the machine this core belongs to.
func (c *Core) Machine() *Machine { return c.machine }

// Cycles returns the core's consumed cycle count; like Stats, exact for its goroutine.
func (c *Core) Cycles() uint64 { return c.cycles }

// AddCycles charges work to the core (used by OS personalities for syscall
// and bookkeeping costs). Cycles charged this way are attributed to the
// stats.CatOther category; use AddCyclesCat to attribute them precisely.
func (c *Core) AddCycles(n uint64) { c.AddCyclesCat(stats.CatOther, n) }

// AddCyclesCat charges work to the core, attributing it to the given
// cycle-accounting category when observability is enabled.
func (c *Core) AddCyclesCat(cat stats.Cat, n uint64) {
	c.cycles += n
	c.cobs.AddCycles(cat, n)
}

// Stats returns a snapshot of the core's MMU counters.
func (c *Core) Stats() CoreStats { return c.stats }

// ResetStats clears the MMU counters.
func (c *Core) ResetStats() { c.settle(); c.stats = CoreStats{}; c.TLB.ResetStats() }

// ASID returns the currently loaded address-space tag.
func (c *Core) ASID() arch.ASID { return c.asid }

// CR3 returns the root of the currently active page table, or 0 if none.
func (c *Core) CR3() arch.PhysAddr {
	if c.table == nil {
		return 0
	}
	return c.table.Root()
}

// Table returns the active page table object.
func (c *Core) Table() *pt.Table { return c.table }

// LoadCR3 activates an address space. With the reserved flush tag (ASID 0),
// all non-global TLB entries are invalidated, as on pre-PCID x86; with a
// real tag the TLB is retained and the write costs more cycles (Table 2).
func (c *Core) LoadCR3(t *pt.Table, asid arch.ASID) {
	c.settle() // the deferred hits were under the tag being left
	c.stats.CR3Loads++
	c.cobs.CR3Load()
	cost := &c.machine.Cfg.Cost
	if asid == arch.ASIDFlush {
		// The untagged write's cost is dominated by the implicit full TLB
		// invalidation, so its cycles are attributed to the flush category.
		c.cycles += cost.CR3Load
		c.cobs.AddCycles(stats.CatFlush, cost.CR3Load)
		c.sink.TLBFlush(c.TLB.FlushAll())
	} else {
		c.cycles += cost.CR3LoadTagged
		c.cobs.AddCycles(stats.CatSwitch, cost.CR3LoadTagged)
	}
	c.table = t
	c.asid = asid
}

// Translate resolves va for the given access kind, charging TLB and walk
// cycles. On a miss it walks the active page table and fills the TLB. On a
// translation or permission failure it raises a page fault: if OnFault is
// set and resolves the fault, the translation is retried once. The slow path
// of every access the L0 does not serve, and a settle point.
func (c *Core) Translate(va arch.VirtAddr, access arch.Access) (arch.PhysAddr, error) {
	pa, err := c.translateOnce(va, access)
	if f, ok := err.(*PageFault); ok && c.OnFault != nil {
		c.stats.Faults++
		c.cobs.Fault()
		if err = c.OnFault(c, f); err == nil {
			pa, err = c.translateOnce(va, access)
		}
	}
	return pa, err
}

func (c *Core) translateOnce(va arch.VirtAddr, access arch.Access) (arch.PhysAddr, error) {
	cost := &c.machine.Cfg.Cost
	c.cycles += cost.TLBHit
	c.cobs.AddCycles(stats.CatTLBProbe, cost.TLBHit)
	epoch := c.TLB.Epoch() // before the probe: see tlb.Probe
	n, touched := c.takeDeferred()
	if e := c.TLB.Probe(c.asid, va, n, touched); e != nil {
		if e.Perm.Allows(access.Perm()) {
			c.stats.TLBHits++
			c.cobs.TLBHits(c.asid, 1)
			c.cache(va, e, epoch)
			return e.Frame + arch.PhysAddr(uint64(va)&(e.PageSize-1)), nil
		}
		// Permission violation on a cached translation: as on x86, the
		// entry may be stale after a PTE upgrade, so drop it and re-walk
		// the paging structures before raising the fault.
		if n := c.TLB.FlushPage(c.asid, va); n > 0 {
			c.sink.TLBFlush(n)
		}
	}
	c.stats.TLBMisses++
	c.cobs.TLBMiss(c.asid)
	if c.table == nil {
		return 0, &PageFault{VA: va, Access: access, Cause: fmt.Errorf("no address space loaded")}
	}
	r, err := c.table.Walk(va)
	walk := uint64(r.Refs) * cost.WalkRef
	c.cycles += walk
	c.cobs.AddCycles(stats.CatWalk, walk)
	if err != nil {
		return 0, &PageFault{VA: va, Access: access, Cause: err}
	}
	if !r.Perm.Allows(access.Perm()) {
		return 0, &PageFault{VA: va, Access: access, Cause: fmt.Errorf("%v mapping denies %v", r.Perm, access)}
	}
	base := arch.AlignDown(va, r.PageSize)
	frame := r.PA - arch.PhysAddr(uint64(va)-uint64(base))
	epoch = c.TLB.Epoch() // again: dropping the stale entry above moved it
	e, was, evicted := c.TLB.Insert(c.asid, base, frame, r.PageSize, r.Perm, r.Global)
	if evicted {
		c.cobs.TLBEvict(was.ASID)
	}
	// Of what Insert replaced the L0 has many copies, if large, or up to one.
	if s := &c.l0[was.VPN%l0Slots]; was.PageSize > arch.PageSize {
		c.l0 = [l0Slots]l0Slot{}
	} else if s.e == e {
		*s = l0Slot{}
	}
	c.cache(va, e, epoch)
	return r.PA, nil
}

// Read copies size bytes of virtual memory at va into buf, translating page
// by page and charging one MemAccess per cache line touched.
func (c *Core) Read(va arch.VirtAddr, buf []byte) error {
	return c.access(va, buf, arch.AccessRead)
}

// Write copies buf into virtual memory at va.
func (c *Core) Write(va arch.VirtAddr, buf []byte) error {
	return c.access(va, buf, arch.AccessWrite)
}

func (c *Core) access(va arch.VirtAddr, buf []byte, kind arch.Access) error {
	for len(buf) > 0 {
		pa, err := c.Translate(va, kind)
		if err != nil {
			return err
		}
		n := arch.PageSize - int(va.PageOffset())
		if n > len(buf) {
			n = len(buf)
		}
		c.chargeData(kind, pa, uint64((n+arch.CacheLineSize-1)/arch.CacheLineSize))
		if kind == arch.AccessWrite {
			err = c.machine.PM.WriteAt(pa, buf[:n])
		} else {
			err = c.machine.PM.ReadAt(pa, buf[:n])
		}
		if err != nil {
			return err
		}
		buf = buf[n:]
		va += arch.VirtAddr(n)
	}
	return nil
}

// chargeData charges a slow-path access to lines cache lines at pa; true if it
// was a store into the NVM tier, which has a category of its own.
func (c *Core) chargeData(kind arch.Access, pa arch.PhysAddr, lines uint64) (nvm bool) {
	dc := c.machine.Cfg.Cost.MemAccess * lines
	c.cycles += dc
	if nvm = kind == arch.AccessWrite && c.machine.PM.TierOf(pa) == mem.TierNVM; nvm {
		c.cobs.AddCycles(stats.CatNVMWrite, dc)
	} else {
		c.cobs.AddCycles(stats.CatData, dc)
	}
	return nvm
}

// ChargePT charges the core for kernel page-table manipulation described by
// a pt.Stats delta (entries written/cleared, table nodes allocated/freed) —
// the in-kernel work of mmap, munmap, and segment attach.
func (c *Core) ChargePT(delta pt.Stats) {
	cost := &c.machine.Cfg.Cost
	n := delta.EntriesSet*cost.PTESet +
		delta.EntriesCleared*cost.PTEClear +
		delta.TablesAllocated*cost.TableAlloc +
		delta.TablesFreed*cost.TableFree
	c.cycles += n
	c.cobs.AddCycles(stats.CatPT, n)
}

// DeltaPT subtracts two pt.Stats snapshots.
func DeltaPT(before, after pt.Stats) pt.Stats {
	return pt.Stats{
		TablesAllocated: after.TablesAllocated - before.TablesAllocated,
		TablesFreed:     after.TablesFreed - before.TablesFreed,
		EntriesSet:      after.EntriesSet - before.EntriesSet,
		EntriesCleared:  after.EntriesCleared - before.EntriesCleared,
		Walks:           after.Walks - before.Walks,
		WalkRefs:        after.WalkRefs - before.WalkRefs,
	}
}

// Load64 reads an aligned uint64 at va.
func (c *Core) Load64(va arch.VirtAddr) (uint64, error) {
	if pa, ok := c.hit(va, arch.AccessRead, 1); ok {
		return c.machine.PM.Load64(pa)
	}
	pa, err := c.Translate(va, arch.AccessRead)
	if err != nil {
		return 0, err
	}
	c.chargeData(arch.AccessRead, pa, 1)
	return c.machine.PM.Load64(pa)
}

// Store64 writes an aligned uint64 at va.
func (c *Core) Store64(va arch.VirtAddr, v uint64) error {
	if pa, ok := c.hit(va, arch.AccessWrite, 1); ok {
		return c.machine.PM.Store64(pa, v)
	}
	pa, err := c.Translate(va, arch.AccessWrite)
	if err != nil {
		return err
	}
	nvm := c.chargeData(arch.AccessWrite, pa, 1)
	if err := c.machine.PM.Store64(pa, v); err != nil || !nvm {
		return err
	}
	c.sink.NVMWrite(1, 8)
	return nil
}

// LoadWords reads len(buf)/8 consecutive words starting at va into buf,
// little-endian. It is defined as that many Load64 calls in address order,
// stopping at the first error with the words before it done (their count is
// returned); StoreWords is the same over Store64. See words.
func (c *Core) LoadWords(va arch.VirtAddr, buf []byte) (int, error) {
	return c.words(va, buf, arch.AccessRead)
}

func (c *Core) StoreWords(va arch.VirtAddr, buf []byte) (int, error) {
	return c.words(va, buf, arch.AccessWrite)
}

// words is the run-length access (DESIGN.md "Run-length accesses"). The first
// word of the run and of every further 4 KiB page is Load64/Store64 itself:
// miss, walk, fill, eviction, stale-permission re-walk, fault and retry happen
// there, so a COW break still happens on the first store to each page. The k
// words left on the page can only hit the entry that word left in the L0: k
// hits of one slot in one update, the bytes in one copy. If a shootdown took
// the entry meanwhile nothing was charged and the next word starts over.
func (c *Core) words(va arch.VirtAddr, buf []byte, kind arch.Access) (int, error) {
	pm := c.machine.PM
	write := kind == arch.AccessWrite
	n := len(buf) / 8
	for done := 0; done < n; {
		word := buf[done*8 : done*8+8]
		if write {
			if err := c.Store64(va, binary.LittleEndian.Uint64(word)); err != nil {
				return done, err
			}
		} else {
			w, err := c.Load64(va)
			if err != nil {
				return done, err
			}
			binary.LittleEndian.PutUint64(word, w)
		}
		done, va = done+1, va+8
		k := min(n-done, int((arch.PageSize-va.PageOffset())%arch.PageSize/8))
		if k == 0 {
			continue
		}
		pa, ok := c.hit(va, kind, uint64(k))
		if !ok {
			continue
		}
		run := buf[done*8 : (done+k)*8]
		var err error
		if write {
			err = pm.StoreWords(pa, run)
		} else {
			err = pm.ReadAt(pa, run)
		}
		if err != nil {
			return done, err
		}
		done, va = done+k, va+arch.VirtAddr(8*k)
	}
	return n, nil
}
