package vm

import (
	"fmt"
	"sort"
	"sync"

	"spacejmp/internal/arch"
	"spacejmp/internal/hw"
	"spacejmp/internal/mem"
	"spacejmp/internal/pt"
	"spacejmp/internal/stats"
)

// MapFlags control how a region is established.
type MapFlags uint8

const (
	// MapFixed requires the region at exactly the requested address and
	// fails on overlap — SpaceJMP's safe alternative to Linux mmap's
	// silent overwrite (paper §2.4).
	MapFixed MapFlags = 1 << iota
	// MapPopulate eagerly allocates frames and installs translations.
	// Without it, pages are mapped on first fault.
	MapPopulate
	// MapGlobal marks translations global: they survive untagged TLB
	// flushes, used for mappings shared by all address spaces.
	MapGlobal
)

// Region is a BSD region descriptor: a contiguous virtual range backed by a
// window of a VM object.
type Region struct {
	Start  arch.VirtAddr
	Size   uint64
	Perm   arch.Perm
	Obj    *Object
	ObjOff uint64 // byte offset of the region's first page inside Obj
	Flags  MapFlags
}

// End returns the first address past the region.
func (r *Region) End() arch.VirtAddr { return r.Start + arch.VirtAddr(r.Size) }

func (r *Region) contains(va arch.VirtAddr) bool { return va >= r.Start && va < r.End() }

// Stats counts VM-layer activity for a Space.
type Stats struct {
	Faults     uint64
	PagesMaped uint64
	Maps       uint64
	Unmaps     uint64
	COWBreaks  uint64
}

// Space is a vmspace: region descriptors plus the page table the hardware
// walks. One Space is one virtual address space *instance*; SpaceJMP VASes
// are shared sets of segments from which per-process Spaces are built.
type Space struct {
	mu      sync.Mutex
	pm      *mem.PhysMem
	table   *pt.Table
	regions []*Region // sorted by Start, non-overlapping
	stats   Stats
	obs     *stats.Sink
	handler hw.FaultHandler // s.coreFault

	// Shootdown, if set, is invoked after translations in [va, va+size)
	// are removed or downgraded, so the OS can invalidate TLB entries on
	// every core that may cache them (the simulator's IPI shootdown).
	Shootdown func(va arch.VirtAddr, size uint64)
}

// shoot invokes the shootdown hook if installed. Caller holds s.mu; the
// hook must not call back into the space.
func (s *Space) shoot(va arch.VirtAddr, size uint64) {
	if s.Shootdown != nil {
		s.Shootdown(va, size)
	}
}

// NewSpace creates an empty address space.
func NewSpace(pm *mem.PhysMem) (*Space, error) {
	table, err := pt.New(pm)
	if err != nil {
		return nil, err
	}
	s := &Space{pm: pm, table: table}
	s.handler = s.coreFault
	return s, nil
}

// Table exposes the page table (for CR3 loads and subtree linking).
func (s *Space) Table() *pt.Table { return s.table }

// SetObserver installs the machine-wide stats sink on the space and its
// page table. Nil disables observation.
func (s *Space) SetObserver(sink *stats.Sink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = sink
	s.table.SetObserver(sink.PTObs())
}

// Stats returns a snapshot of the space's counters.
func (s *Space) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// regionAt returns the region containing va, or nil. Caller holds s.mu.
func (s *Space) regionAt(va arch.VirtAddr) *Region {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].End() > va })
	if i < len(s.regions) && s.regions[i].contains(va) {
		return s.regions[i]
	}
	return nil
}

// overlaps reports whether [va, va+size) intersects any region. Caller
// holds s.mu.
func (s *Space) overlaps(va arch.VirtAddr, size uint64) bool {
	end := va + arch.VirtAddr(size)
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].End() > va })
	return i < len(s.regions) && s.regions[i].Start < end
}

// findFree locates a free range of the given size at or above hint.
// Caller holds s.mu.
func (s *Space) findFree(hint arch.VirtAddr, size uint64) (arch.VirtAddr, error) {
	va := arch.AlignUp(hint, arch.PageSize)
	for _, r := range s.regions {
		if r.End() <= va {
			continue
		}
		if uint64(r.Start) >= uint64(va)+size {
			break
		}
		va = arch.AlignUp(r.End(), arch.PageSize)
	}
	if uint64(va)+size > arch.VASize {
		return 0, fmt.Errorf("vm: out of virtual address space")
	}
	return va, nil
}

// DefaultMapBase is where non-fixed mappings begin, clear of the
// traditional process image.
const DefaultMapBase arch.VirtAddr = 0x7000_0000

// Map inserts a region mapping size bytes of obj starting at objOff. With
// MapFixed the region is placed exactly at va; otherwise va is a hint. The
// object gains a reference. Returns the chosen base address.
func (s *Space) Map(va arch.VirtAddr, size uint64, perm arch.Perm, obj *Object, objOff uint64, flags MapFlags) (arch.VirtAddr, error) {
	ps := obj.PageSize
	if ps == 0 {
		ps = arch.PageSize
	}
	if size == 0 || size%ps != 0 {
		return 0, fmt.Errorf("vm: map size %d not a multiple of the object's %d-byte pages", size, ps)
	}
	if uint64(va)%ps != 0 {
		return 0, fmt.Errorf("vm: map address %v not aligned to %d-byte pages", va, ps)
	}
	if objOff%ps != 0 || objOff+size > obj.Size {
		return 0, fmt.Errorf("vm: window [%d,+%d) outside object %q", objOff, size, obj.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if flags&MapFixed != 0 {
		if !(va + arch.VirtAddr(size)).Canonical() {
			return 0, fmt.Errorf("vm: fixed mapping %v exceeds virtual address space", va)
		}
		if s.overlaps(va, size) {
			return 0, fmt.Errorf("vm: fixed mapping at %v overlaps an existing region", va)
		}
	} else {
		if va == 0 {
			va = DefaultMapBase
		}
		var err error
		if va, err = s.findFree(va, size); err != nil {
			return 0, err
		}
	}
	r := &Region{Start: va, Size: size, Perm: perm, Obj: obj, ObjOff: objOff, Flags: flags}
	obj.Ref()
	obj.addMapper(s)
	s.insert(r)
	s.stats.Maps++
	s.obs.VMMap()
	if flags&MapPopulate != 0 {
		if err := s.populate(r); err != nil {
			s.remove(r)
			obj.delMapper(s)
			obj.Unref()
			return 0, err
		}
	}
	return va, nil
}

// MapAnon creates a fresh anonymous object and maps it — the moral
// equivalent of anonymous mmap. The space holds the only reference.
func (s *Space) MapAnon(va arch.VirtAddr, size uint64, perm arch.Perm, flags MapFlags) (arch.VirtAddr, error) {
	size = arch.PagesIn(size) * arch.PageSize
	obj := NewObject(s.pm, fmt.Sprintf("anon@%#x", uint64(va)), size, mem.TierDRAM)
	base, err := s.Map(va, size, perm, obj, 0, flags)
	obj.Unref() // region holds its own reference
	return base, err
}

// insert adds r keeping the slice sorted. Caller holds s.mu.
func (s *Space) insert(r *Region) {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].Start > r.Start })
	s.regions = append(s.regions, nil)
	copy(s.regions[i+1:], s.regions[i:])
	s.regions[i] = r
}

// remove deletes r. Caller holds s.mu.
func (s *Space) remove(r *Region) {
	for i, cur := range s.regions {
		if cur == r {
			s.regions = append(s.regions[:i], s.regions[i+1:]...)
			return
		}
	}
}

// pageSize returns the granularity the region is mapped at.
func (r *Region) pageSize() uint64 {
	if r.Obj.PageSize != 0 {
		return r.Obj.PageSize
	}
	return arch.PageSize
}

// populate eagerly installs every page of r. Caller holds s.mu.
func (s *Space) populate(r *Region) error {
	for off := uint64(0); off < r.Size; off += r.pageSize() {
		if err := s.mapPage(r, r.Start+arch.VirtAddr(off)); err != nil {
			return err
		}
	}
	return nil
}

// mapPage installs the translation for the page containing va in region r.
// Pages still shared copy-on-write are mapped with write permission
// stripped, so the first store faults and breakCOW runs. Caller holds s.mu.
func (s *Space) mapPage(r *Region, va arch.VirtAddr) error {
	ps := r.pageSize()
	base := arch.AlignDown(va, ps)
	idx := (r.ObjOff + uint64(base-r.Start)) / ps
	frame, err := r.Obj.Frame(idx)
	if err != nil {
		return err
	}
	perm := r.Perm
	if r.Obj.IsCOW(idx) {
		perm &^= arch.PermWrite
	}
	if err := s.table.MapPage(base, frame, ps, perm, r.Flags&MapGlobal != 0); err != nil {
		return err
	}
	s.stats.PagesMaped++
	return nil
}

// breakCOW services a write fault on a copy-on-write page: the object gets
// a private frame and the translation is upgraded in place. Caller holds
// s.mu.
func (s *Space) breakCOW(r *Region, va arch.VirtAddr) error {
	ps := r.pageSize()
	base := arch.AlignDown(va, ps)
	idx := (r.ObjOff + uint64(base-r.Start)) / ps
	frame, err := r.Obj.BreakCOW(idx)
	if err != nil {
		return err
	}
	// Replace the read-only shared translation (if installed) with the
	// private writable one.
	if _, err := s.table.Walk(base); err == nil {
		if err := s.table.Unmap(base, ps); err != nil {
			return err
		}
		s.shoot(base, ps)
	}
	if err := s.table.MapPage(base, frame, ps, r.Perm, r.Flags&MapGlobal != 0); err != nil {
		return err
	}
	s.stats.PagesMaped++
	s.stats.COWBreaks++
	s.obs.VMCOWBreak()
	return nil
}

// revokePage removes any installed translation for page idx of obj from
// this space — the receiving side of Object.revokeStale. The page re-faults
// on next access and picks up the object's current frame. Safe to call on a
// space that never installed the page.
func (s *Space) revokePage(obj *Object, idx uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.regions {
		if r.Obj != obj {
			continue
		}
		ps := r.pageSize()
		off := idx * ps
		if off < r.ObjOff || off >= r.ObjOff+r.Size {
			continue
		}
		va := r.Start + arch.VirtAddr(off-r.ObjOff)
		if _, err := s.table.Walk(va); err != nil {
			continue
		}
		if err := s.table.Unmap(va, ps); err != nil {
			continue
		}
		s.shoot(va, ps)
	}
}

// DowngradeWrites strips the write bit from every *installed* leaf
// translation in [va, va+size), leaving the region descriptors untouched —
// the fork-time downgrade that makes the next store to a now-COW page fault
// into breakCOW instead of writing through a stale writable PTE into the
// frozen frames. Region permissions keep their write bit on purpose: the
// fault handler's COW branch requires r.Perm.CanWrite() to upgrade the page
// back in place. Pages whose translations were never installed need nothing
// (their first touch faults already).
func (s *Space) DowngradeWrites(va arch.VirtAddr, size uint64) error {
	end := va + arch.VirtAddr(size)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.regions {
		if r.End() <= va || r.Start >= end || !r.Perm.CanWrite() {
			continue
		}
		ps := r.pageSize()
		lo, hi := r.Start, r.End()
		if lo < va {
			lo = arch.AlignDown(va, ps)
		}
		if hi > end {
			hi = end
		}
		for p := lo; p < hi; p += arch.VirtAddr(ps) {
			if _, err := s.table.Walk(p); err != nil {
				continue
			}
			if err := s.table.Protect(p, ps, r.Perm&^arch.PermWrite); err != nil {
				return err
			}
		}
	}
	s.shoot(va, size)
	return nil
}

// Unmap removes every mapping in [va, va+size), splitting regions at the
// range boundaries, and drops object references of fully removed regions.
func (s *Space) Unmap(va arch.VirtAddr, size uint64) error {
	if size == 0 || size%arch.PageSize != 0 || !va.PageAligned() {
		return fmt.Errorf("vm: unmap range [%v,+%d) not page-aligned", va, size)
	}
	end := va + arch.VirtAddr(size)
	s.mu.Lock()
	defer s.mu.Unlock()
	var keep []*Region
	var drop []*Region
	for _, r := range s.regions {
		switch {
		case r.End() <= va || r.Start >= end:
			keep = append(keep, r)
		case r.Start >= va && r.End() <= end:
			drop = append(drop, r)
		default:
			// Partial overlap: split into surviving head and/or tail.
			if r.Start < va {
				head := *r
				head.Size = uint64(va - r.Start)
				head.Obj.Ref()
				head.Obj.addMapper(s)
				keep = append(keep, &head)
			}
			if r.End() > end {
				tail := *r
				tail.Start = end
				tail.ObjOff = r.ObjOff + uint64(end-r.Start)
				tail.Size = uint64(r.End() - end)
				tail.Obj.Ref()
				tail.Obj.addMapper(s)
				keep = append(keep, &tail)
			}
			drop = append(drop, r)
		}
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i].Start < keep[j].Start })
	// Tear down translations only where they exist; lazily mapped pages
	// that never faulted have no leaf entries, and Unmap of the page table
	// tolerates holes within the range.
	if err := s.table.Unmap(va, size); err != nil {
		return err
	}
	s.shoot(va, size)
	s.regions = keep
	for _, r := range drop {
		r.Obj.delMapper(s)
		r.Obj.Unref()
	}
	s.stats.Unmaps++
	s.obs.VMUnmap()
	return nil
}

// Protect changes permissions on [va, va+size). It updates both the region
// descriptors (splitting as needed) and any existing leaf translations.
func (s *Space) Protect(va arch.VirtAddr, size uint64, perm arch.Perm) error {
	end := va + arch.VirtAddr(size)
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Region
	for _, r := range s.regions {
		if r.End() <= va || r.Start >= end {
			out = append(out, r)
			continue
		}
		lo, hi := r.Start, r.End()
		if lo < va {
			head := *r
			head.Size = uint64(va - lo)
			head.Obj.Ref()
			head.Obj.addMapper(s)
			out = append(out, &head)
			lo = va
		}
		if hi > end {
			tail := *r
			tail.Start = end
			tail.ObjOff = r.ObjOff + uint64(end-r.Start)
			tail.Size = uint64(hi - end)
			tail.Obj.Ref()
			tail.Obj.addMapper(s)
			out = append(out, &tail)
			hi = end
		}
		mid := *r
		mid.Start = lo
		mid.ObjOff = r.ObjOff + uint64(lo-r.Start)
		mid.Size = uint64(hi - lo)
		mid.Perm = perm
		mid.Obj.Ref()
		mid.Obj.addMapper(s)
		out = append(out, &mid)
		r.Obj.delMapper(s)
		r.Obj.Unref()
		// Update only translations that are actually installed.
		for p := lo; p < hi; p += arch.PageSize {
			if _, err := s.table.Walk(p); err == nil {
				if err := s.table.Protect(p, arch.PageSize, perm); err != nil {
					return err
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	s.regions = out
	s.shoot(va, size)
	return nil
}

// HandleFault services a page fault: if the faulting address lies in a
// region whose permissions allow the access, the page is mapped in. It has
// the hw.FaultHandler shape via Space.Handler. After a COW break, stale
// translations of the page in every other mapping space are revoked before
// the faulting store retries — without this, read-only mappings installed
// pre-break would keep serving the shared (frozen) frame forever.
func (s *Space) HandleFault(va arch.VirtAddr, access arch.Access) error {
	s.mu.Lock()
	s.stats.Faults++
	s.obs.VMFault()
	r := s.regionAt(va)
	if r == nil {
		s.mu.Unlock()
		return fmt.Errorf("vm: segmentation fault: %v %v", access, va)
	}
	if !r.Perm.Allows(access.Perm()) {
		s.mu.Unlock()
		return fmt.Errorf("vm: protection fault: %v of %v in %v region", access, va, r.Perm)
	}
	base := arch.AlignDown(va, r.pageSize())
	idx := (r.ObjOff + uint64(base-r.Start)) / r.pageSize()
	if access == arch.AccessWrite && r.Obj.IsCOW(idx) {
		obj := r.Obj
		err := s.breakCOW(r, va)
		s.mu.Unlock() // revocation takes other spaces' locks; drop ours first
		if err == nil {
			obj.revokeStale(s, idx)
		}
		return err
	}
	err := s.mapPage(r, va)
	s.mu.Unlock()
	return err
}

// Handler adapts the space to the hardware fault-handler hook: one method
// value made when the space was, so a switch installs it without allocating.
func (s *Space) Handler() hw.FaultHandler { return s.handler }

func (s *Space) coreFault(_ *hw.Core, f *hw.PageFault) error {
	base := arch.AlignDown(f.VA, arch.PageSize)
	if _, err := s.table.Walk(base); err == nil {
		// Permission fault on an installed translation: a write to a
		// copy-on-write page is fixable; anything else surfaces.
		s.mu.Lock()
		r := s.regionAt(f.VA)
		if r != nil && f.Access == arch.AccessWrite && r.Perm.CanWrite() {
			hbase := arch.AlignDown(f.VA, r.pageSize())
			idx := (r.ObjOff + uint64(hbase-r.Start)) / r.pageSize()
			if r.Obj.IsCOW(idx) {
				s.stats.Faults++
				s.obs.VMFault()
				obj := r.Obj
				err := s.breakCOW(r, f.VA)
				s.mu.Unlock()
				if err == nil {
					obj.revokeStale(s, idx)
				}
				return err
			}
		}
		s.mu.Unlock()
		return fmt.Errorf("vm: protection fault: %v %v", f.Access, f.VA)
	}
	return s.HandleFault(f.VA, f.Access)
}

// Regions returns a copy of the region list (for inspection and tests).
func (s *Space) Regions() []Region {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Region, len(s.regions))
	for i, r := range s.regions {
		out[i] = *r
	}
	return out
}

// Destroy tears down the page table and drops all object references.
func (s *Space) Destroy() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.regions {
		r.Obj.delMapper(s)
		r.Obj.Unref()
	}
	s.regions = nil
	s.table.Destroy()
}
