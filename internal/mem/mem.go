// Package mem simulates the physical memory of the machine: a flat physical
// address space carved into 4 KiB frames, managed by a buddy allocator, and
// optionally split into a volatile DRAM tier and a persistent NVM tier.
//
// Frame contents are materialized lazily, on first write, so a simulated
// machine can expose a physical address space much larger than the memory the
// test process actually writes — mirroring the paper's premise (§2.1) that
// physical capacity outgrows what a process can comfortably map.
//
// Memory model. Content is reached through a sparse directory of atomic
// pointers, never through a lock: every simulated load, store and page-walker
// reference of every core lands here. Aligned 64-bit words (Load64, Store64)
// are atomic and may be used from any goroutine at any time. Bulk copies
// (ReadAt, WriteAt, Zero) are plain memory copies, not atomic across words
// and not ordered against a concurrent access to the same words — as on
// the hardware this models; goroutines that share a range order their bulk
// copies with word accesses or with Go synchronization of their own. The
// allocator (AllocFrames, Free, PowerCycle) is serialized by a mutex, and a
// block's content is dropped while that mutex is held, so whoever allocates
// it next reads zeros.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"spacejmp/internal/arch"
	"spacejmp/internal/fault"
	"spacejmp/internal/stats"
)

// ErrTornWrite reports a write that was cut short mid-flight by an injected
// power loss (fault.MemWriteTorn): a prefix of the buffer reached memory,
// the rest did not. Recovery code must treat the destination as suspect.
var ErrTornWrite = errors.New("mem: torn write (simulated power loss)")

// Tier identifies the class of physical memory a frame lives in.
type Tier int

const (
	// TierDRAM is the volatile performance tier.
	TierDRAM Tier = iota
	// TierNVM is the persistent capacity tier (byte-addressable NVM). Its
	// frames survive PhysMem.PowerCycle, which models a reboot.
	TierNVM

	numTiers
)

func (t Tier) String() string {
	switch t {
	case TierDRAM:
		return "dram"
	case TierNVM:
		return "nvm"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// MaxOrder is the largest buddy order: order 0 is one 4 KiB frame, so
// MaxOrder 18 is a 1 GiB contiguous block.
const MaxOrder = 18

// Config sizes the two memory tiers in bytes. NVM may be zero.
// NVMSuperblock reserves the first bytes of the NVM tier outside the
// allocator: a well-known persistent region where the OS keeps the
// metadata needed to rebuild state after a power cycle (paper §7,
// persistent VASes).
type Config struct {
	DRAMSize      uint64
	NVMSize       uint64
	NVMSuperblock uint64
}

// Stats reports allocator and content activity.
type Stats struct {
	AllocatedBytes uint64 // currently allocated
	PeakBytes      uint64 // high-water mark
	Allocs         uint64
	Frees          uint64
	FailedAllocs   uint64
	ZeroedPages    uint64 // frames whose content was materialized (zeroed) by a first write
}

// frame is one frame's content. It is declared as words so that Load64 and
// Store64 can use sync/atomic on naturally aligned uint64s; bulk copies go
// through the byte view. Words are kept in memory in little-endian byte order
// on every host (see le), so the byte view is the frame's byte image.
type frame [arch.PageSize / 8]uint64

// bytes views the frame as its bytes: same size, same alignment or weaker,
// no pointers — the conversion unsafe.Pointer permits.
func (f *frame) bytes() *[arch.PageSize]byte {
	return (*[arch.PageSize]byte)(unsafe.Pointer(f))
}

var hostBigEndian = binary.NativeEndian.Uint16([]byte{1, 0}) != 1

// le converts a word between its value and its in-memory representation.
func le(v uint64) uint64 {
	if hostBigEndian {
		return bits.ReverseBytes64(v)
	}
	return v
}

// The frame directory is two levels of atomic pointers: a top-level slice
// sized to the physical address space, one slot per leafFrames frames, and
// leaves of one slot per frame. Both levels fill in by compare-and-swap on
// first touch, so a 512 GiB machine costs a 256 KiB top level until it is
// used, and a lookup is two dependent loads.
const (
	leafShift  = 12 // a leaf spans 4096 frames (16 MiB) in 32 KiB of pointers
	leafFrames = 1 << leafShift
)

type leaf [leafFrames]atomic.Pointer[frame]

// PhysMem is the machine's simulated physical memory.
type PhysMem struct {
	mu    sync.Mutex // guards the allocators and stats, and content drops
	tiers [numTiers]*buddy
	cfg   Config
	stats Stats // ZeroedPages lives in zeroed

	dir    []atomic.Pointer[leaf]
	zeroed atomic.Uint64 // frames materialized
	faults atomic.Pointer[fault.Registry]
	obs    atomic.Pointer[stats.Sink]
}

// SetFaults installs a fault-injection registry. The memory consults it at
// frame allocation (fault.MemAlloc) and on writes (fault.MemWriteTorn). A
// nil registry disables injection.
func (pm *PhysMem) SetFaults(r *fault.Registry) { pm.faults.Store(r) }

// SetObserver installs the machine-wide stats sink; the memory records
// writes landing in the NVM tier into it. Nil disables observation.
func (pm *PhysMem) SetObserver(s *stats.Sink) { pm.obs.Store(s) }

// New creates a physical memory with the given tier sizes. Sizes are rounded
// down to whole frames. DRAM occupies physical addresses [0, DRAMSize) and
// NVM [DRAMSize, DRAMSize+NVMSize).
func New(cfg Config) *PhysMem {
	cfg.DRAMSize &^= arch.PageSize - 1
	cfg.NVMSize &^= arch.PageSize - 1
	cfg.NVMSuperblock = arch.PagesIn(cfg.NVMSuperblock) * arch.PageSize
	if cfg.NVMSuperblock > cfg.NVMSize {
		cfg.NVMSuperblock = cfg.NVMSize
	}
	frames := (cfg.DRAMSize + cfg.NVMSize) / arch.PageSize
	pm := &PhysMem{cfg: cfg, dir: make([]atomic.Pointer[leaf], (frames+leafFrames-1)>>leafShift)}
	pm.tiers[TierDRAM] = newBuddy(0, cfg.DRAMSize/arch.PageSize)
	pm.tiers[TierNVM] = newBuddy((cfg.DRAMSize+cfg.NVMSuperblock)/arch.PageSize,
		(cfg.NVMSize-cfg.NVMSuperblock)/arch.PageSize)
	return pm
}

// Superblock returns the reserved persistent region's base and size
// (size 0 when no superblock is configured). Its contents survive
// PowerCycle like all NVM.
func (pm *PhysMem) Superblock() (arch.PhysAddr, uint64) {
	return arch.PhysAddr(pm.cfg.DRAMSize), pm.cfg.NVMSuperblock
}

// Size returns the total physical memory size in bytes.
func (pm *PhysMem) Size() uint64 { return pm.cfg.DRAMSize + pm.cfg.NVMSize }

// TierOf returns the tier containing pa.
func (pm *PhysMem) TierOf(pa arch.PhysAddr) Tier {
	if uint64(pa) < pm.cfg.DRAMSize {
		return TierDRAM
	}
	return TierNVM
}

// Contains reports whether pa is a valid physical address.
func (pm *PhysMem) Contains(pa arch.PhysAddr) bool { return uint64(pa) < pm.Size() }

// AllocFrames allocates a naturally aligned contiguous block of 2^order
// frames from the given tier and returns its base physical address. The
// block's contents read as zero until written.
func (pm *PhysMem) AllocFrames(order int, tier Tier) (arch.PhysAddr, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("mem: invalid order %d", order)
	}
	if tier < 0 || tier >= numTiers {
		return 0, fmt.Errorf("mem: invalid tier %d", tier)
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.faults.Load().Fire(fault.MemAlloc) {
		pm.stats.FailedAllocs++
		return 0, fmt.Errorf("mem: out of %v memory (order %d, injected)", tier, order)
	}
	pfn, ok := pm.tiers[tier].alloc(order)
	if !ok {
		pm.stats.FailedAllocs++
		return 0, fmt.Errorf("mem: out of %v memory (order %d)", tier, order)
	}
	pm.stats.Allocs++
	pm.stats.AllocatedBytes += (uint64(1) << order) * arch.PageSize
	if pm.stats.AllocatedBytes > pm.stats.PeakBytes {
		pm.stats.PeakBytes = pm.stats.AllocatedBytes
	}
	return arch.PhysAddr(pfn * arch.PageSize), nil
}

// AllocPage allocates a single 4 KiB DRAM frame.
func (pm *PhysMem) AllocPage() (arch.PhysAddr, error) { return pm.AllocFrames(0, TierDRAM) }

// Free returns a block previously obtained from AllocFrames with the same
// order. The content of the block is discarded.
func (pm *PhysMem) Free(pa arch.PhysAddr, order int) error {
	if order < 0 || order > MaxOrder {
		return fmt.Errorf("mem: invalid order %d", order)
	}
	pfn := uint64(pa) / arch.PageSize
	pm.mu.Lock()
	defer pm.mu.Unlock()
	tier := pm.TierOf(pa)
	if err := pm.tiers[tier].free(pfn, order); err != nil {
		return err
	}
	n := uint64(1) << order
	pm.drop(pfn, pfn+n)
	pm.stats.Frees++
	pm.stats.AllocatedBytes -= n * arch.PageSize
	return nil
}

// peek returns the content of a PFN, or nil while nothing has been written to
// it: an untouched frame reads as zero without costing the host a page.
func (pm *PhysMem) peek(pfn uint64) *frame {
	if l := pm.dir[pfn>>leafShift].Load(); l != nil {
		return l[pfn%leafFrames].Load()
	}
	return nil
}

// frame returns the content of a PFN for writing, materializing it (zeroed)
// on first touch. Concurrent first touches agree on one frame and count it
// once.
func (pm *PhysMem) frame(pfn uint64) *frame {
	top := &pm.dir[pfn>>leafShift]
	l := top.Load()
	for l == nil {
		top.CompareAndSwap(nil, new(leaf))
		l = top.Load() // leaves are never removed
	}
	slot := &l[pfn%leafFrames]
	for {
		if f := slot.Load(); f != nil {
			return f
		}
		if f := new(frame); slot.CompareAndSwap(nil, f) {
			pm.zeroed.Add(1)
			return f
		}
	}
}

// drop discards the content of frames [pfn, end), which read as zero again.
// Caller holds pm.mu.
func (pm *PhysMem) drop(pfn, end uint64) {
	for pfn < end {
		next := min(end, (pfn>>leafShift+1)<<leafShift)
		if l := pm.dir[pfn>>leafShift].Load(); l != nil {
			for ; pfn < next; pfn++ {
				if slot := &l[pfn%leafFrames]; slot.Load() != nil {
					slot.Store(nil)
				}
			}
		}
		pfn = next
	}
}

// copyOut and copyIn move bytes between physical memory and buf frame by
// frame; the range is already checked. Only copyIn materializes frames.
func (pm *PhysMem) copyOut(pa arch.PhysAddr, buf []byte) {
	for off := uint64(pa); len(buf) > 0; {
		po := off % arch.PageSize
		n := min(uint64(len(buf)), arch.PageSize-po)
		if f := pm.peek(off / arch.PageSize); f != nil {
			copy(buf[:n], f.bytes()[po:])
		} else {
			clear(buf[:n])
		}
		buf, off = buf[n:], off+n
	}
}

func (pm *PhysMem) copyIn(pa arch.PhysAddr, buf []byte) {
	for off := uint64(pa); len(buf) > 0; {
		po := off % arch.PageSize
		n := uint64(copy(pm.frame(off / arch.PageSize).bytes()[po:], buf))
		buf, off = buf[n:], off+n
	}
}

// ReadAt copies len(buf) bytes of physical memory starting at pa into buf.
// Reads may cross frame boundaries.
func (pm *PhysMem) ReadAt(pa arch.PhysAddr, buf []byte) error {
	if uint64(pa)+uint64(len(buf)) > pm.Size() {
		return fmt.Errorf("mem: read [%v,+%d) out of range", pa, len(buf))
	}
	pm.copyOut(pa, buf)
	return nil
}

// WriteAt copies buf into physical memory starting at pa. Under an armed
// fault.MemWriteTorn point the write may be torn: only the first half of buf
// lands and ErrTornWrite is returned, as if power failed mid-write.
func (pm *PhysMem) WriteAt(pa arch.PhysAddr, buf []byte) error {
	if uint64(pa)+uint64(len(buf)) > pm.Size() {
		return fmt.Errorf("mem: write [%v,+%d) out of range", pa, len(buf))
	}
	var torn error
	if pm.faults.Load().Fire(fault.MemWriteTorn) {
		buf = buf[:len(buf)/2]
		torn = fmt.Errorf("%w: [%v,+%d)", ErrTornWrite, pa, len(buf))
	}
	if pm.TierOf(pa) == TierNVM {
		pm.obs.Load().NVMWrite(1, uint64(len(buf)))
	}
	pm.copyIn(pa, buf)
	return torn
}

// StoreWords is a Store64 of each little-endian word of buf to consecutive
// words from pa, moved as one copy. It is not a WriteAt: a word store cannot
// tear (fault.MemWriteTorn is not asked), and like Store64 it leaves counting
// the NVM writes — k words are k — to the MMU, which knows the page's tier.
func (pm *PhysMem) StoreWords(pa arch.PhysAddr, buf []byte) error {
	if pa&7 != 0 || len(buf)&7 != 0 || uint64(pa)+uint64(len(buf)) > pm.Size() {
		return fmt.Errorf("mem: StoreWords [%v,+%d) unaligned or out of range", pa, len(buf))
	}
	pm.copyIn(pa, buf)
	return nil
}

// Load64 reads a little-endian uint64 at pa, which must be 8-byte aligned.
// This is the accessor the page walker and allocators use.
func (pm *PhysMem) Load64(pa arch.PhysAddr) (uint64, error) {
	if pa&7 != 0 {
		return 0, fmt.Errorf("mem: unaligned Load64 at %v", pa)
	}
	if uint64(pa)+8 > pm.Size() {
		return 0, fmt.Errorf("mem: Load64 at %v out of range", pa)
	}
	f := pm.peek(uint64(pa) / arch.PageSize)
	if f == nil {
		return 0, nil
	}
	return le(atomic.LoadUint64(&f[uint64(pa)%arch.PageSize/8])), nil
}

// Store64 writes a little-endian uint64 at pa, which must be 8-byte aligned.
// Word stores into the NVM tier are counted by the MMU (hw.Core), not here.
func (pm *PhysMem) Store64(pa arch.PhysAddr, v uint64) error {
	if pa&7 != 0 {
		return fmt.Errorf("mem: unaligned Store64 at %v", pa)
	}
	if uint64(pa)+8 > pm.Size() {
		return fmt.Errorf("mem: Store64 at %v out of range", pa)
	}
	f := pm.frame(uint64(pa) / arch.PageSize)
	atomic.StoreUint64(&f[uint64(pa)%arch.PageSize/8], le(v))
	return nil
}

// Zero clears size bytes starting at pa.
func (pm *PhysMem) Zero(pa arch.PhysAddr, size uint64) error {
	if uint64(pa)+size > pm.Size() {
		return fmt.Errorf("mem: zero [%v,+%d) out of range", pa, size)
	}
	for off := uint64(pa); size > 0; {
		po := off % arch.PageSize
		n := min(size, arch.PageSize-po)
		if f := pm.peek(off / arch.PageSize); f != nil {
			clear(f.bytes()[po : po+n])
		}
		off, size = off+n, size-n
	}
	return nil
}

// PowerCycle models a reboot: DRAM contents are lost (and its allocations
// reset), NVM contents and allocations survive. Persistent VASes (paper §7)
// are rebuilt from NVM after a power cycle.
func (pm *PhysMem) PowerCycle() {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.drop(0, pm.cfg.DRAMSize/arch.PageSize)
	freed := pm.tiers[TierDRAM].reset()
	pm.stats.AllocatedBytes -= freed * arch.PageSize
}

// Stats returns a snapshot of allocator statistics.
func (pm *PhysMem) Stats() Stats {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	st := pm.stats
	st.ZeroedPages = pm.zeroed.Load()
	return st
}

// FreeBytes returns the number of unallocated bytes in a tier.
func (pm *PhysMem) FreeBytes(tier Tier) uint64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.tiers[tier].freeFrames * arch.PageSize
}

// AllocatedBytes returns the bytes currently allocated across all tiers —
// the number a leak check compares before and after a process lifetime.
func (pm *PhysMem) AllocatedBytes() uint64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.stats.AllocatedBytes
}

// CheckLeaks verifies the allocator invariants and that exactly want bytes
// are allocated. It is the post-crash assertion that the reaper returned
// every frame a dead process held.
func (pm *PhysMem) CheckLeaks(want uint64) error {
	if err := pm.VerifyInvariants(); err != nil {
		return err
	}
	if got := pm.AllocatedBytes(); got != want {
		return fmt.Errorf("mem: %d bytes allocated, want %d (leaked %d)", got, want, int64(got)-int64(want))
	}
	return nil
}

// VerifyInvariants checks the buddy allocators' internal consistency: free
// and allocated blocks tile each tier exactly with no overlap, free lists
// hold only aligned in-range blocks, and the byte accounting matches the
// allocators' view. It is O(live+free blocks) and intended for tests.
func (pm *PhysMem) VerifyInvariants() error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	var allocated uint64
	for t := Tier(0); t < numTiers; t++ {
		b := pm.tiers[t]
		if err := b.check(); err != nil {
			return fmt.Errorf("mem: %v tier: %w", t, err)
		}
		allocated += (b.frames - b.freeFrames) * arch.PageSize
	}
	if allocated != pm.stats.AllocatedBytes {
		return fmt.Errorf("mem: stats say %d bytes allocated, allocators say %d",
			pm.stats.AllocatedBytes, allocated)
	}
	return nil
}
