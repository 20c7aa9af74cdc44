// Package stats is the machine-wide observability layer: a schema (the
// exported Snapshot type), the live counter blocks that fill it, and the
// trace-event table, threaded through the simulated hardware (hw, tlb, pt,
// mem), the VM layer, the OS personalities and the serving stack.
//
// Two contracts. The substrate pays nothing when stats are off: every
// component holds an optional *Sink (or a sub-counter pointer taken from one)
// and consults it unconditionally; its recording methods are safe on a nil
// receiver and reduce to one pointer comparison — the pattern package fault
// uses for its registry. A serving stack always has a sink (cluster.New and
// server.NewWithBackend install one), so the serving layers hold their blocks
// (Sink.Server, Sink.Cluster, Sink.Tenant) and count into them field by field
// where the event is known; a method remains only for an event that also goes
// to the trace ring. All mutation is sync/atomic either way, so counters can
// be read mid-run from any goroutine.
//
// Cycle accounting is by category (Cat): the hardware attributes every
// cycle it charges to a category (TLB probe, page walk, flushing CR3 write,
// tagged switch, data access, NVM write, kernel page-table manipulation,
// syscall control path), so a benchmark's wall-clock claim can be
// decomposed the way the paper's §6 hardware-counter plots are.
package stats

import (
	"sync/atomic"

	"spacejmp/internal/arch"
)

// Cat is a cycle-accounting category. Every cycle the simulated hardware
// charges is attributed to exactly one category.
type Cat uint8

const (
	// CatOther holds cycles charged through the generic AddCycles path
	// (application work, URPC transfers) that no specific category claims.
	CatOther Cat = iota
	// CatSyscall is OS control-path work: syscall entry and the
	// personality's per-operation overhead.
	CatSyscall
	// CatSwitch is tagged CR3 writes plus switch bookkeeping — the cost of
	// moving a core between address spaces while retaining the TLB.
	CatSwitch
	// CatFlush is untagged CR3 writes: the flushing form of the switch,
	// whose cost is dominated by the implicit full TLB invalidation.
	CatFlush
	// CatShootdown is remote-TLB invalidation work. The calibrated cost
	// model charges shootdowns no cycles today; the category exists so the
	// taxonomy is stable when a cost is added (event counts live in
	// Sink.Shootdown*).
	CatShootdown
	// CatTLBProbe is TLB lookup cycles (hits and the probe part of misses).
	CatTLBProbe
	// CatWalk is page-walker memory references on TLB misses.
	CatWalk
	// CatPT is kernel page-table manipulation: PTE writes/clears and table
	// node allocation/free during map, unmap, and attach.
	CatPT
	// CatData is data-side cache-line accesses (loads and DRAM stores).
	CatData
	// CatNVMWrite is data stores that land in the persistent NVM tier.
	CatNVMWrite

	// NumCats is the number of cycle categories.
	NumCats = int(CatNVMWrite) + 1
)

var catNames = [NumCats]string{
	"other", "syscall", "switch", "flush", "shootdown",
	"tlb-probe", "walk", "pt", "data", "nvm-write",
}

func (c Cat) String() string {
	if int(c) < NumCats {
		return catNames[c]
	}
	return "cat(?)"
}

// Op identifies a SpaceJMP syscall for per-syscall latency accounting.
type Op uint8

const (
	OpVASCreate Op = iota
	OpVASFind
	OpVASAttach
	OpVASDetach
	OpVASSwitch
	OpVASClone
	OpVASCtl
	OpVASDestroy
	OpSegAlloc
	OpSegFind
	OpSegAttach
	OpSegDetach
	OpSegClone
	OpSegCtl
	OpSegFree

	// NumOps is the number of accounted syscalls.
	NumOps = int(OpSegFree) + 1
)

var opNames = [NumOps]string{
	"vas_create", "vas_find", "vas_attach", "vas_detach", "vas_switch",
	"vas_clone", "vas_ctl", "vas_destroy",
	"seg_alloc", "seg_find", "seg_attach", "seg_detach", "seg_clone",
	"seg_ctl", "seg_free",
}

func (o Op) String() string {
	if int(o) < NumOps {
		return opNames[o]
	}
	return "op(?)"
}

// CoreCounters is one core's shard of the sink: cycle accounting by category
// and the TLB activity of the address-space tags the core ran under. Cores
// hold a pointer to their slot and add with a single atomic op per charge;
// no two cores write the same cache line, even when they all run under one
// tag (every untagged core runs under ASID 0). Snapshot sums the shards.
type CoreCounters struct {
	cycles [NumCats]atomic.Uint64
	// faults and cr3Loads are the two MMU events no category or tag counts.
	faults, cr3Loads atomic.Uint64
	// asids is indexed by arch.ASID in chunks that appear on first use: a
	// core runs under a handful of the 4096 tags.
	asids [(int(arch.MaxASID) + 1) / asidChunk]atomic.Pointer[[asidChunk]asidCounters]
}

const asidChunk = 64

// AddCycles attributes n cycles to category cat. Safe on nil (disabled).
func (c *CoreCounters) AddCycles(cat Cat, n uint64) {
	if c == nil {
		return
	}
	c.cycles[cat].Add(n)
}

// Cycles returns the cycles attributed to cat so far.
func (c *CoreCounters) Cycles(cat Cat) uint64 {
	if c == nil {
		return 0
	}
	return c.cycles[cat].Load()
}

// Fault and CR3Load record one page fault taken and one CR3 write. Safe on nil.
func (c *CoreCounters) Fault() {
	if c != nil {
		c.faults.Add(1)
	}
}

func (c *CoreCounters) CR3Load() {
	if c != nil {
		c.cr3Loads.Add(1)
	}
}

// Complete fills in the totals of the core's row of a snapshot from the shard
// alone — cycles summed over the row's categories, hits and misses over the
// tags: what the core has reported since it joined the sink.
func (c *CoreCounters) Complete(cs *CoreSnap) {
	for _, v := range cs.ByCat {
		cs.Cycles += v
	}
	tags := map[arch.ASID]ASIDSnap{}
	c.addASIDs(tags)
	for _, a := range tags {
		cs.TLBHits += a.Hits
		cs.TLBMisses += a.Misses
	}
	cs.Faults, cs.CR3Loads = c.faults.Load(), c.cr3Loads.Load()
}

// asid returns the counter block of a tag, allocating its chunk on first use.
func (c *CoreCounters) asid(asid arch.ASID) *asidCounters {
	slot := &c.asids[asid/asidChunk]
	chunk := slot.Load()
	for chunk == nil {
		slot.CompareAndSwap(nil, new([asidChunk]asidCounters))
		chunk = slot.Load()
	}
	return &chunk[asid%asidChunk]
}

// addASIDs adds the shard's non-zero per-tag counters into sum.
func (c *CoreCounters) addASIDs(sum map[arch.ASID]ASIDSnap) {
	for ci := range c.asids {
		chunk := c.asids[ci].Load()
		if chunk == nil {
			continue
		}
		for j := range chunk {
			add := ASIDSnap{Hits: chunk[j].hits.Load(), Misses: chunk[j].misses.Load(), Evictions: chunk[j].evictions.Load()}
			if add == (ASIDSnap{}) {
				continue
			}
			asid := arch.ASID(ci*asidChunk + j)
			a := sum[asid]
			a.Hits += add.Hits
			a.Misses += add.Misses
			a.Evictions += add.Evictions
			sum[asid] = a
		}
	}
}

// TLBHits records n TLB hits while the core ran under the given tag (one
// access, or a run of them in one update). Safe on nil.
func (c *CoreCounters) TLBHits(asid arch.ASID, n uint64) {
	if c != nil {
		c.asid(asid).hits.Add(n)
	}
}

// TLBMiss records a TLB miss while the core ran under the given tag. Safe on nil.
func (c *CoreCounters) TLBMiss(asid arch.ASID) {
	if c != nil {
		c.asid(asid).misses.Add(1)
	}
}

// TLBEvict records the core's TLB evicting an entry that belonged to the
// given tag. Safe on nil.
func (c *CoreCounters) TLBEvict(asid arch.ASID) {
	if c != nil {
		c.asid(asid).evictions.Add(1)
	}
}

// PTCounters counts page-table node and entry activity machine-wide. The
// pt package records into it directly when a table has an observer set.
// Like every live block its fields carry the names of the Snapshot fields
// they fill (here PTSnap's) and are exported only so that the snapshot walk
// can pair them; record through the nil-safe methods.
type PTCounters struct {
	NodesAllocated atomic.Uint64
	NodesFreed     atomic.Uint64
	NodesTouched   atomic.Uint64 // table nodes the hardware walker referenced
	EntriesSet     atomic.Uint64
	EntriesCleared atomic.Uint64
	Walks          atomic.Uint64
}

// TableAllocated records one table-node allocation. Safe on nil.
func (p *PTCounters) TableAllocated() {
	if p != nil {
		p.NodesAllocated.Add(1)
	}
}

// TableFreed records one table-node free. Safe on nil.
func (p *PTCounters) TableFreed() {
	if p != nil {
		p.NodesFreed.Add(1)
	}
}

// EntrySet records one PTE write. Safe on nil.
func (p *PTCounters) EntrySet() {
	if p != nil {
		p.EntriesSet.Add(1)
	}
}

// EntryCleared records one PTE clear. Safe on nil.
func (p *PTCounters) EntryCleared() {
	if p != nil {
		p.EntriesCleared.Add(1)
	}
}

// Walk records one page walk touching refs table nodes. Safe on nil.
func (p *PTCounters) Walk(refs int) {
	if p != nil {
		p.Walks.Add(1)
		p.NodesTouched.Add(uint64(refs))
	}
}

// asidCounters is one core's TLB activity under one address-space tag.
type asidCounters struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// Sink is the machine-wide collector. One Sink serves one hw.Machine; all
// recording methods are safe on a nil *Sink and safe to call from any
// number of goroutines.
type Sink struct {
	cores []CoreCounters

	// live is every counter that Snapshot copies by name; see counters.
	live counters

	syscalls [NumOps]Hist // per-syscall latency in simulated cycles

	tracer atomic.Pointer[Tracer]
}

// counters is the live side of the Snapshot schema: one block per Snapshot
// block, nested the same way, every field named as the Snapshot field it
// fills. A field is an atomic.Uint64, a Hist, a nested block, or a table of blocks;
// Sink.Snapshot copies them by that name, so a counter is declared here,
// once in the *Snap type, and at the site that records it. What has another
// shape — the per-core shards, the per-op syscall histograms, the tracer —
// lives in Sink beside it.
type counters struct {
	TLB tlbCounters
	PT  PTCounters
	NVM nvmCounters
	VM  vmCounters

	LockWaitNs     Hist // real time a vas_switch spent blocked acquiring segment locks
	LockHoldCycles Hist // simulated cycles a lock set was held between switches

	Shootdowns     atomic.Uint64
	ShootdownPages atomic.Uint64
	URPCRetries    atomic.Uint64
	FaultsInjected atomic.Uint64

	// The serving blocks come last, so that the table pointers they end in,
	// which every command reads, share a cache line with nothing a command
	// writes. (Field order is free — the walk pairs by name — but not
	// neutral: with the lock histograms after these blocks serve-vas and
	// serve-urpc ran 2–3 % slower in 4 of 4 pairs.)
	Server  ServerCounters
	Cluster ClusterCounters
	Tenants table[TenantCounters]
}

// tlbCounters is the part of TLBSnap that is not summed from the per-core
// ASID shards: flush operations and the entries they (and shootdowns)
// invalidated.
type tlbCounters struct {
	Flushes        atomic.Uint64
	FlushedEntries atomic.Uint64
}

// nvmCounters counts data writes into the persistent tier.
type nvmCounters struct {
	Writes       atomic.Uint64
	WrittenBytes atomic.Uint64
}

// vmCounters counts VM-layer activity across observed spaces.
type vmCounters struct {
	Maps      atomic.Uint64
	Unmaps    atomic.Uint64
	Faults    atomic.Uint64
	COWBreaks atomic.Uint64
}

// NewSink creates a collector for a machine with the given core count.
func NewSink(cores int) *Sink {
	return &Sink{cores: make([]CoreCounters, cores)}
}

// Core returns core i's category-cycle counter block, or nil when the sink
// is nil or i is out of range — callers hold the result and charge through
// its nil-safe methods.
func (s *Sink) Core(i int) *CoreCounters {
	if s == nil || i < 0 || i >= len(s.cores) {
		return nil
	}
	return &s.cores[i]
}

// Server, Cluster and Tenant hand a serving layer the live block it counts
// into, field by field, at the site that knows the event. A serving stack
// always has a sink (cluster.New and server.NewWithBackend install one), so
// unlike the substrate's recorders these are not for a nil sink.
func (s *Sink) Server() *ServerCounters   { return &s.live.Server }
func (s *Sink) Cluster() *ClusterCounters { return &s.live.Cluster }

// Tenant returns the block of the tenant registered i'th, growing the table
// to reach it.
func (s *Sink) Tenant(i int) *TenantCounters { return s.live.Tenants.Row(i) }

// PTObs returns the machine-wide page-table counter block (nil-safe).
func (s *Sink) PTObs() *PTCounters {
	if s == nil {
		return nil
	}
	return &s.live.PT
}

// TLBFlush records one flush operation that invalidated entries entries.
func (s *Sink) TLBFlush(entries int) {
	if s != nil {
		s.live.TLB.Flushes.Add(1)
		s.live.TLB.FlushedEntries.Add(uint64(entries))
	}
}

// Shootdown records one remote-TLB shootdown covering pages pages that
// invalidated entries entries across all cores.
func (s *Sink) Shootdown(pages uint64, entries int) {
	if s != nil {
		s.live.Shootdowns.Add(1)
		s.live.ShootdownPages.Add(pages)
		s.live.TLB.FlushedEntries.Add(uint64(entries))
	}
}

// NVMWrite records data writes landing in the NVM tier: one bulk write, or a
// run of word stores, of bytes in total.
func (s *Sink) NVMWrite(writes, bytes uint64) {
	if s != nil {
		s.live.NVM.Writes.Add(writes)
		s.live.NVM.WrittenBytes.Add(bytes)
	}
}

// VMMap records one vm.Space region map.
func (s *Sink) VMMap() {
	if s != nil {
		s.live.VM.Maps.Add(1)
	}
}

// VMUnmap records one vm.Space region unmap.
func (s *Sink) VMUnmap() {
	if s != nil {
		s.live.VM.Unmaps.Add(1)
	}
}

// VMFault records one VM-layer page fault (demand paging or COW break).
func (s *Sink) VMFault() {
	if s != nil {
		s.live.VM.Faults.Add(1)
	}
}

// VMCOWBreak records one copy-on-write break: a write faulted on a shared
// page and the object allocated a private frame for it.
func (s *Sink) VMCOWBreak() {
	if s != nil {
		s.live.VM.COWBreaks.Add(1)
	}
}

// LockWait records ns nanoseconds of real time a switch spent acquiring a
// VAS's segment lock set (≈0 when uncontended).
func (s *Sink) LockWait(ns uint64) {
	if s != nil {
		s.live.LockWaitNs.Observe(ns)
	}
}

// LockHold records the simulated cycles a thread held a VAS's segment lock
// set before switching away.
func (s *Sink) LockHold(cycles uint64) {
	if s != nil {
		s.live.LockHoldCycles.Observe(cycles)
	}
}

// Syscall records one completed syscall of kind op taking the given number
// of simulated cycles.
func (s *Sink) Syscall(op Op, cycles uint64) {
	if s != nil {
		s.syscalls[op].Observe(cycles)
	}
}

// URPCRetry records one request re-send by a urpc endpoint and traces it.
func (s *Sink) URPCRetry(core int, seq, try uint64) {
	if s == nil {
		return
	}
	s.live.URPCRetries.Add(1)
	s.Trace(Event{Kind: EvURPCRetry, Core: core, A: seq, B: try})
}

// FaultFired records the firing of a fault-injection point and traces it.
func (s *Sink) FaultFired(name string) {
	if s == nil {
		return
	}
	s.live.FaultsInjected.Add(1)
	s.Trace(Event{Kind: EvFault, Core: -1, Label: name})
}

// VASSwitch traces one vas_switch by the thread on the given core.
func (s *Sink) VASSwitch(core, pid int, handle uint64) {
	if s != nil {
		s.Trace(Event{Kind: EvVASSwitch, Core: core, PID: pid, A: handle})
	}
}

// SegAttach traces a segment being attached to a VAS.
func (s *Sink) SegAttach(core, pid int, vid, sid uint64) {
	if s != nil {
		s.Trace(Event{Kind: EvSegAttach, Core: core, PID: pid, A: vid, B: sid})
	}
}

// SetTracer installs (or, with nil, removes) the bounded trace ring.
func (s *Sink) SetTracer(t *Tracer) {
	if s != nil {
		s.tracer.Store(t)
	}
}

// Tracer returns the installed trace ring, or nil.
func (s *Sink) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer.Load()
}

// Trace records an event into the ring, if one is installed. The nil-tracer
// fast path is a single atomic pointer load.
func (s *Sink) Trace(e Event) {
	if s == nil {
		return
	}
	if t := s.tracer.Load(); t != nil {
		t.Record(e)
	}
}
