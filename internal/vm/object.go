// Package vm implements the BSD/Mach-derived virtual memory layer the
// SpaceJMP DragonFly prototype builds on (paper §4.1): VM objects abstract
// physical storage, and a Space (the BSD "vmspace") combines a list of
// region descriptors with one architecture-level page table.
//
// SpaceJMP segments are thin wrappers around VM objects; attaching a segment
// to an address space inserts a region referencing the object, and the page
// fault handler asks the object for frames.
package vm

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"spacejmp/internal/arch"
	"spacejmp/internal/mem"
)

// Object is a Mach-style VM object: a logical array of pages backed by
// physical frames, materialized on demand. Objects are reference counted;
// mappings and segments take references.
type Object struct {
	Name string
	Size uint64
	Tier mem.Tier
	// PageSize is the granularity of the object's pages (4 KiB or 2 MiB).
	// Huge objects back huge-page mappings: one order-9 frame block per
	// page, fewer page-table levels per translation.
	PageSize uint64

	mu      sync.Mutex
	pm      *mem.PhysMem
	frames  map[uint64]arch.PhysAddr // page index -> frame (PageSize-sized)
	refs    int
	dead    bool
	copyBuf []byte // BreakCOW's page in transit, reused under mu

	// parent is the copy-on-write source: pages without an own frame are
	// served from the parent (read-only) until BreakCOW copies them — the
	// snapshotting optimization of paper §7.
	parent *Object

	// dirty, on a frozen view: the pages, in no order, the live object had
	// frames of its own for at the fork — those written since the previous fork
	// (all of them at the first; a superset after a failed fork folded back).
	// Set once by ForkFrozen; no later fold touches it.
	dirty []uint64

	// mappers is the reverse map: every Space with at least one region over
	// this object, counted per region. A COW break installs the private
	// frame only in the faulting space's table; the fault handler walks this
	// map to revoke the stale shared translation everywhere else. Guarded by
	// its own mutex — it is consulted while space locks are held, and o.mu
	// may be taken under a space lock (ABBA).
	mapMu   sync.Mutex
	mappers map[*Space]int
}

// order returns the buddy order of one page of the object.
func (o *Object) order() int {
	order := 0
	for ps := uint64(arch.PageSize); ps < o.PageSize; ps <<= 1 {
		order++
	}
	return order
}

// NewObject creates an object of the given size (rounded up to whole pages)
// with one reference held by the caller.
func NewObject(pm *mem.PhysMem, name string, size uint64, tier mem.Tier) *Object {
	return NewObjectPages(pm, name, size, tier, arch.PageSize)
}

// NewObjectPages creates an object backed by pages of the given size
// (arch.PageSize or arch.HugePageSize); size is rounded up accordingly.
func NewObjectPages(pm *mem.PhysMem, name string, size uint64, tier mem.Tier, pageSize uint64) *Object {
	size = (size + pageSize - 1) &^ (pageSize - 1)
	return &Object{
		Name: name, Size: size, Tier: tier, PageSize: pageSize,
		pm: pm, frames: make(map[uint64]arch.PhysAddr), refs: 1,
	}
}

// NewObjectFromFramesPages reconstructs an object of the given page size over
// frames that already hold content — the restore path after a power cycle,
// where NVM frames (and the allocator state covering them) survived. Page
// pages[i] is backed by frames[i].
func NewObjectFromFramesPages(pm *mem.PhysMem, name string, size uint64, tier mem.Tier, pageSize uint64, pages, frames []uint64) *Object {
	o := NewObjectPages(pm, name, size, tier, pageSize)
	for i, idx := range pages {
		o.frames[idx] = arch.PhysAddr(frames[i])
	}
	return o
}

// Ref takes an additional reference.
func (o *Object) Ref() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dead {
		panic("vm: Ref on destroyed object " + o.Name)
	}
	o.refs++
}

// Unref drops a reference; the last drop frees every backing frame.
func (o *Object) Unref() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dead {
		panic("vm: Unref on destroyed object " + o.Name)
	}
	o.refs--
	if o.refs > 0 {
		return
	}
	o.dead = true
	order := o.order()
	for idx, pa := range o.frames {
		delete(o.frames, idx)
		if err := o.pm.Free(pa, order); err != nil {
			panic("vm: freeing object frame: " + err.Error())
		}
	}
	if o.parent != nil {
		o.parent.Unref()
		o.parent = nil
	}
}

// Pages returns the number of pages (of PageSize each) the object spans.
func (o *Object) Pages() uint64 { return o.Size / o.PageSize }

// Frame returns the physical frame backing page idx. For ordinary pages it
// allocates (and zeroes) on first use — the page-cache behaviour of the
// BSD object. For COW pages without an own copy it returns the parent's
// frame; callers must map such pages read-only and call BreakCOW on the
// first write.
func (o *Object) Frame(idx uint64) (arch.PhysAddr, error) {
	if idx >= o.Pages() {
		return 0, fmt.Errorf("vm: page %d beyond object %q (%d pages)", idx, o.Name, o.Pages())
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dead {
		return 0, fmt.Errorf("vm: object %q destroyed", o.Name)
	}
	if pa, ok := o.frames[idx]; ok {
		return pa, nil
	}
	if o.parent != nil {
		return o.parent.Frame(idx)
	}
	pa, err := o.pm.AllocFrames(o.order(), o.Tier)
	if err != nil {
		return 0, fmt.Errorf("vm: backing page %d of %q: %w", idx, o.Name, err)
	}
	o.frames[idx] = pa
	return pa, nil
}

// CloneCOW creates a copy-on-write child: reads are served from this
// object's frames until the child's pages are written (§7's snapshotting
// optimization). The child holds a reference on the parent.
func (o *Object) CloneCOW(name string) *Object {
	o.Ref()
	return &Object{
		Name: name, Size: o.Size, Tier: o.Tier, PageSize: o.PageSize,
		pm: o.pm, frames: make(map[uint64]arch.PhysAddr), refs: 1, parent: o,
	}
}

// IsCOW reports whether page idx is still shared with a parent (and must
// therefore be mapped read-only).
func (o *Object) IsCOW(idx uint64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.parent == nil {
		return false
	}
	_, own := o.frames[idx]
	return !own
}

// BreakCOW gives page idx its own frame, copying the parent's content.
// It is idempotent; returns the (possibly new) frame.
//
// o.mu is held for the whole operation (taking the parent's lock inside it,
// the same child→parent order Frame uses), so a break can never interleave
// with ForkFrozen swapping the frame maps or CollapseCOW retiring the
// parent mid-copy.
func (o *Object) BreakCOW(idx uint64) (arch.PhysAddr, error) {
	if idx >= o.Pages() {
		return 0, fmt.Errorf("vm: page %d beyond object %q", idx, o.Name)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dead {
		return 0, fmt.Errorf("vm: object %q destroyed", o.Name)
	}
	if pa, ok := o.frames[idx]; ok {
		return pa, nil
	}
	if o.parent == nil {
		pa, err := o.pm.AllocFrames(o.order(), o.Tier)
		if err != nil {
			return 0, fmt.Errorf("vm: backing page %d of %q: %w", idx, o.Name, err)
		}
		o.frames[idx] = pa
		return pa, nil
	}
	src, err := o.parent.Frame(idx)
	if err != nil {
		return 0, err
	}
	dst, err := o.pm.AllocFrames(o.order(), o.Tier)
	if err != nil {
		return 0, err
	}
	if o.copyBuf == nil {
		o.copyBuf = make([]byte, o.PageSize)
	}
	if err := o.pm.ReadAt(src, o.copyBuf); err != nil {
		o.pm.Free(dst, o.order())
		return 0, err
	}
	if err := o.pm.WriteAt(dst, o.copyBuf); err != nil {
		o.pm.Free(dst, o.order())
		return 0, err
	}
	o.frames[idx] = dst
	return dst, nil
}

// ForkFrozen splits off an immutable point-in-time view of the object: the
// returned frozen object takes over o's current frames wholesale, and o
// itself becomes a copy-on-write child of it — the inverse sharing
// direction of CloneCOW, which is what a snapshot-while-serving needs
// (writes to o after the fork land in private frames via BreakCOW and never
// reach the frozen view). Which pages those frames back is recorded in the
// frozen object at this instant (Dirty), before any CollapseCOW folds an
// older generation's frames in beside them.
//
// The frozen object starts with two references: one owned by the caller,
// one held by o as its parent link. Any parent o already had is inherited
// by the frozen object (the reference moves; the chain stays intact for
// ResolveFrame).
//
// The caller must quiesce writers for the instant of the swap AND downgrade
// the installed writable translations of o afterwards — the frozen view's
// Dirty pages are the only ones that can have any (Space.DowngradeWrites) —
// or in-flight stores would write through stale PTEs into the frozen frames.
func (o *Object) ForkFrozen(name string) *Object {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dead {
		panic("vm: ForkFrozen on destroyed object " + o.Name)
	}
	dirty := slices.AppendSeq(make([]uint64, 0, len(o.frames)), maps.Keys(o.frames)) // empty, never nil
	frozen := &Object{
		Name: name, Size: o.Size, Tier: o.Tier, PageSize: o.PageSize,
		pm: o.pm, frames: o.frames, refs: 2, parent: o.parent, dirty: dirty,
	}
	o.frames = make(map[uint64]arch.PhysAddr)
	o.parent = frozen
	return o.parent
}

// Dirty returns the pages ForkFrozen recorded when it made this frozen view,
// unordered (nil for any other object); the slice is shared, never written.
func (o *Object) Dirty() []uint64 { return o.dirty }

// CollapseCOW walks o's whole copy-on-write chain and folds every link that
// nothing but its child holds (refs == 1: the child's parent link) into that
// child: the child adopts the parent's frame for each page it has none for,
// the parent's superseded frames return to the allocator, the grandparent is
// spliced in. Folding into a frozen child preserves its content — it resolved
// those pages through the parent anyway. Called after a view's last external
// reference drops, it leaves a chain of held views only, however many forks
// were ever taken, and no frame that no view can reach.
func (o *Object) CollapseCOW() {
	for c := o; c != nil; {
		c.mu.Lock()
		p := c.parent
		if p == nil {
			c.mu.Unlock()
			return
		}
		p.mu.Lock()
		if p.refs != 1 || p.dead {
			p.mu.Unlock()
			c.mu.Unlock()
			c = p // a live view holds p: it stays; look below it
			continue
		}
		// The smaller frame map moves into the larger, which c keeps (the fold
		// runs inside Fork, under the node mutex: moving the whole base into a
		// generation's few frames doubled fork time); c's frame wins.
		small, big := p.frames, c.frames
		if len(small) > len(big) {
			small, big = big, small
		}
		for idx := range small {
			pa, own := c.frames[idx]
			if ppa, has := p.frames[idx]; !own {
				pa = ppa
			} else if has {
				if err := c.pm.Free(ppa, c.order()); err != nil {
					panic("vm: freeing superseded COW frame: " + err.Error())
				}
			}
			big[idx] = pa
		}
		c.frames, p.frames = big, nil
		p.refs, p.dead = 0, true
		c.parent, p.parent = p.parent, nil // the grandparent reference moves to c
		p.mu.Unlock()
		c.mu.Unlock() // and look at c again: its new parent may fold too
	}
}

// addMapper records one region of s over o.
func (o *Object) addMapper(s *Space) {
	o.mapMu.Lock()
	defer o.mapMu.Unlock()
	if o.mappers == nil {
		o.mappers = make(map[*Space]int)
	}
	o.mappers[s]++
}

// delMapper drops one region of s over o.
func (o *Object) delMapper(s *Space) {
	o.mapMu.Lock()
	defer o.mapMu.Unlock()
	if o.mappers[s]--; o.mappers[s] <= 0 {
		delete(o.mappers, s)
	}
}

// revokeStale removes the translation for page idx from every space mapping
// o except the one that just broke COW (its table already holds the private
// frame). Revoked pages re-fault and pick the private frame up from o's own
// map. Must be called with no space lock held: each revocation takes the
// target space's lock, and holding another space's lock here would deadlock
// against a concurrent fault in the opposite direction.
func (o *Object) revokeStale(except *Space, idx uint64) {
	o.mapMu.Lock()
	var buf [8]*Space // on the stack: a break allocates nothing for a few mappers
	spaces := buf[:0]
	for s := range o.mappers {
		if s != except {
			spaces = append(spaces, s)
		}
	}
	o.mapMu.Unlock()
	for _, s := range spaces {
		s.revokePage(o, idx)
	}
}

// ResolveFrame returns the frame serving page idx through the COW chain
// without allocating anything: ok=false means no object in the chain ever
// materialized the page and it reads as zeros. This is the extraction path
// for frozen views — unlike Frame it cannot mutate the object.
func (o *Object) ResolveFrame(idx uint64) (arch.PhysAddr, bool) {
	// Held across the descent, as in Frame: a fold between the two lookups
	// would move the frame into o and the page would read as zeros.
	o.mu.Lock()
	defer o.mu.Unlock()
	if pa, ok := o.frames[idx]; ok {
		return pa, true
	}
	if o.parent != nil {
		return o.parent.ResolveFrame(idx)
	}
	return 0, false
}

// ResolvedFrames returns every materialized page, ascending, and the frame
// backing each, resolved through the COW parent chain: what a reader of this
// object actually sees. After a frozen fork the object's own map holds only
// pages written since the fork, while the rest still live upstream, so
// persisting code that read that map alone would silently drop, from a
// checkpoint taken mid-fork, everything unwritten since.
//
// The chain is descended once, each level's lock taken once and held to the
// bottom (child→parent, as ResolveFrame holds them): the nearest frame wins.
// It allocates three slices, one of them a word per page, nothing per entry.
func (o *Object) ResolvedFrames() (pages, frames []uint64) {
	near := make([]uint64, o.Pages()) // page -> its nearest frame + 1; 0: none yet
	n := o.resolveInto(near)
	pages, frames = make([]uint64, 0, n), make([]uint64, 0, n)
	for idx, f := range near {
		if f != 0 {
			pages, frames = append(pages, uint64(idx)), append(frames, f-1)
		}
	}
	return pages, frames
}

func (o *Object) resolveInto(near []uint64) (n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for idx, pa := range o.frames {
		if near[idx] == 0 {
			near[idx] = uint64(pa) + 1
			n++
		}
	}
	if o.parent != nil {
		n += o.parent.resolveInto(near)
	}
	return n
}

// Resident returns the number of pages currently backed by frames.
func (o *Object) Resident() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return uint64(len(o.frames))
}

// Populate allocates frames for every page (physical reservation at segment
// creation, paper §4.1: "Physical pages are reserved at the time a segment
// is created, and are not swappable"). On a COW object it materializes
// private copies of every page.
func (o *Object) Populate() error {
	for idx := uint64(0); idx < o.Pages(); idx++ {
		if o.IsCOW(idx) {
			if _, err := o.BreakCOW(idx); err != nil {
				return err
			}
			continue
		}
		if _, err := o.Frame(idx); err != nil {
			return err
		}
	}
	return nil
}
