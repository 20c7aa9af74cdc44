package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spacejmp/internal/arch"
	"spacejmp/internal/mem"
	"spacejmp/internal/pt"
	"spacejmp/internal/stats"
	"spacejmp/internal/vm"
)

// Segment is SpaceJMP's unit of sharing: a single contiguous area of
// virtual memory with a fixed start address and size, backed by reserved
// physical frames, plus metadata (name, protection, lock state). It wraps a
// BSD VM object exactly as the DragonFly prototype does (§4.1).
type Segment struct {
	ID   SegID
	Name string
	Base arch.VirtAddr
	Size uint64
	Obj  *vm.Object

	// Owner is the creating subject; personalities use it for access
	// decisions. Security is an opaque slot for personality state (an ACL
	// or a capability record).
	Owner    Creds
	Security any

	mu       sync.Mutex
	perm     arch.Perm // maximum permissions
	lockable bool
	lock     segLock

	// ephemeral marks transient derived segments (frozen fork views) that
	// must never be persisted: their frames belong to a live segment's COW
	// chain and their lifetime is bounded by the fork that created them.
	ephemeral bool

	// cache is the segment's cached translation subtree: a private page
	// table whose single PML4 entry covers the segment, whose PDPT can be
	// linked into attaching address spaces in O(1) (§4.1, §4.4).
	cache *pt.Table
}

// segLock is the reader/writer lock guarding a lockable segment. Acquisition
// mode follows the mapping permissions: read-only attachments share the
// lock, writable attachments hold it exclusively (§3.1).
type segLock struct {
	rw        sync.RWMutex
	readers   atomic.Int64
	writers   atomic.Int64
	contended atomic.Int64 // acquisitions that had to block
}

// Perm returns the segment's maximum permissions.
func (s *Segment) Perm() arch.Perm {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.perm
}

// Lockable reports whether switches must take the segment's lock.
func (s *Segment) Lockable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lockable
}

// setPerm updates the maximum permissions (seg_ctl).
func (s *Segment) setPerm(p arch.Perm) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.perm = p
}

// acquire takes the segment lock in the mode implied by the mapping
// permissions, blocking until granted, and returns the real time it blocked
// (simulated cycles stand still meanwhile): 0 unless the try failed, which
// alone reads the clock and counts a contention. Whether a segment is locked
// at all is decided once, in VAS.switchState: acquire and release always pair.
func (s *Segment) acquire(mapPerm arch.Perm) (waited time.Duration) {
	if mapPerm.CanWrite() {
		if !s.lock.rw.TryLock() {
			s.lock.contended.Add(1)
			start := time.Now()
			s.lock.rw.Lock()
			waited = time.Since(start)
		}
		s.lock.writers.Add(1)
	} else {
		if !s.lock.rw.TryRLock() {
			s.lock.contended.Add(1)
			start := time.Now()
			s.lock.rw.RLock()
			waited = time.Since(start)
		}
		s.lock.readers.Add(1)
	}
	return waited
}

// release drops the lock taken by acquire with the same mapping perms.
func (s *Segment) release(mapPerm arch.Perm) {
	if mapPerm.CanWrite() {
		s.lock.writers.Add(-1)
		s.lock.rw.Unlock()
	} else {
		s.lock.readers.Add(-1)
		s.lock.rw.RUnlock()
	}
}

// LockHolders returns the current (readers, writers) holding the lock, for
// tests and introspection.
func (s *Segment) LockHolders() (readers, writers int64) {
	return s.lock.readers.Load(), s.lock.writers.Load()
}

// LockContentions returns how many lock acquisitions had to block — the
// serialization the exclusive path imposes (§5.3's SET bottleneck).
func (s *Segment) LockContentions() int64 {
	return s.lock.contended.Load()
}

// Ephemeral reports whether the segment is a transient derived view
// (a frozen fork) excluded from checkpoints.
func (s *Segment) Ephemeral() bool { return s.ephemeral }

// End returns the first address past the segment.
func (s *Segment) End() arch.VirtAddr { return s.Base + arch.VirtAddr(s.Size) }

// pml4Slot returns the PML4 index the segment occupies, and whether it fits
// entirely within that one slot (the precondition for translation caching).
func (s *Segment) pml4Slot() (uint64, bool) {
	cover := arch.LevelCoverage(3)
	first := uint64(s.Base) / cover
	last := (uint64(s.End()) - 1) / cover
	return first, first == last
}

// HasCache reports whether cached translations are built.
func (s *Segment) HasCache() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache != nil
}

// buildCache constructs the cached translation subtree: every page of the
// segment is mapped (at its maximum permissions) into a private table whose
// PDPT is then shareable. Requires the segment to fit in one PML4 slot.
// obs (which may be nil) feeds the observability layer's page-table counters.
func (s *Segment) buildCache(pm *mem.PhysMem, obs *stats.PTCounters) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache != nil {
		return nil
	}
	if _, ok := s.pml4Slot(); !ok {
		return fmt.Errorf("%w: segment %q spans PML4 slots; cannot cache translations", ErrLayout, s.Name)
	}
	table, err := pt.New(pm)
	if err != nil {
		return err
	}
	table.SetObserver(obs)
	ps := s.Obj.PageSize
	for off := uint64(0); off < s.Size; off += ps {
		frame, err := s.Obj.Frame(off / ps)
		if err != nil {
			table.Destroy()
			return err
		}
		if err := table.MapPage(s.Base+arch.VirtAddr(off), frame, ps, s.perm, false); err != nil {
			table.Destroy()
			return err
		}
	}
	s.cache = table
	return nil
}

// cacheSubtree returns the PDPT of the cached translations (the table the
// segment's PML4 entry points at), or false if no cache is built or the
// requested permissions differ from the cached ones.
func (s *Segment) cacheSubtree(pm *mem.PhysMem, mapPerm arch.Perm) (arch.PhysAddr, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil || mapPerm != s.perm {
		return 0, false
	}
	slot, _ := s.pml4Slot()
	// The cache's root has exactly one present entry, at our slot.
	v, err := pm.Load64(s.cache.Root() + arch.PhysAddr(slot*8))
	if err != nil || !pt.PTE(v).Present() {
		return 0, false
	}
	return pt.PTE(v).Addr(), true
}

// CacheSubtree exposes a segment's cached-translation subtree (the PDPT
// its private PML4 entry points at) for tooling and experiments. Returns
// false if no cache is built.
func CacheSubtree(pm *mem.PhysMem, seg *Segment) (arch.PhysAddr, bool) {
	return seg.cacheSubtree(pm, seg.Perm())
}

// destroy releases the segment's storage. Caller must hold no mappings.
func (s *Segment) destroy() {
	s.mu.Lock()
	if s.cache != nil {
		s.cache.Destroy()
		s.cache = nil
	}
	s.mu.Unlock()
	s.Obj.Unref()
}
