package core

import (
	"sort"
	"sync"

	"spacejmp/internal/arch"
)

// SegMapping is one segment's membership in a VAS, carrying the permissions
// it is mapped with there. The same segment can be mapped read-only in one
// VAS and writable in another (the RedisJMP pattern, §5.3), which in turn
// decides the lock mode taken on switch.
type SegMapping struct {
	Seg  *Segment
	Perm arch.Perm
}

// VAS is a first-class virtual address space: a named set of non-overlapping
// global segments, independent of any process (§3.2). Processes attach to a
// VAS to obtain a concrete, process-private address space instance
// (an Attachment wrapping a vmspace) they can switch into.
type VAS struct {
	ID    VASID
	Name  string
	Owner Creds
	Mode  uint16 // Unix-style permission bits, interpreted by the personality

	// Security is personality state (ACL record, capability).
	Security any

	mu   sync.Mutex
	segs []SegMapping
	tag  arch.ASID // the TLB tag switches load; ASIDFlush means untagged (§4.4)
	// held is the pool tag the VAS owns: tag, or the one ClearTag took from
	// switches while something was attached (a core may still run under it),
	// kept until the next SetTag or vas_destroy. Written under sys.mu and mu.
	held arch.ASID
	atts map[*Attachment]struct{}
	// attaching counts vas_attach calls between finding the VAS and
	// registering the attachment they build; vas_destroy sets destroyed, which
	// refuses further attaches, only when atts and attaching are both empty.
	// A VAS, and so the segments it maps, stays registered while a space over
	// them is being built.
	attaching int
	destroyed bool

	// locks caches switchState's lock set (nil: recompute). It is dropped wherever
	// segs or a segment's lockable bit changes and never modified once handed
	// out: switching threads hold it as their lock list.
	locks []SegMapping
}

// CurrentMode returns the VAS's mode bits, as vas_ctl SetMode last left them.
func (v *VAS) CurrentMode() uint16 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.Mode
}

// Tag returns the VAS's TLB tag (ASIDFlush if untagged).
func (v *VAS) Tag() arch.ASID {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.tag
}

// Mappings returns a snapshot of the VAS's segment list.
func (v *VAS) Mappings() []SegMapping {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]SegMapping, len(v.segs))
	copy(out, v.segs)
	return out
}

// switchState is what a switch into the VAS reads of it, in one hold of v.mu:
// the lock set and the tag. The lock set is the lockable mappings in
// deterministic (SegID) order, the order every switch acquires locks in, which
// rules out lock-order deadlocks between concurrent switchers. The caller must
// not modify it.
func (v *VAS) switchState() (locks []SegMapping, tag arch.ASID) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.locks == nil {
		v.locks = make([]SegMapping, 0, len(v.segs))
		for _, m := range v.segs {
			if m.Seg.Lockable() {
				v.locks = append(v.locks, m)
			}
		}
		sort.Slice(v.locks, func(i, j int) bool { return v.locks[i].Seg.ID < v.locks[j].Seg.ID })
	}
	return v.locks, v.tag
}

// dropLockSet invalidates the cached lock set.
func (v *VAS) dropLockSet() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.locks = nil
}

// overlapsLocked reports whether [base, base+size) intersects any mapped
// segment. Caller holds v.mu.
func (v *VAS) overlapsLocked(base arch.VirtAddr, size uint64) bool {
	end := base + arch.VirtAddr(size)
	for _, m := range v.segs {
		if m.Seg.Base < end && base < m.Seg.End() {
			return true
		}
	}
	return false
}

// addSeg registers a mapping; the segment must not overlap existing ones.
func (v *VAS) addSeg(m SegMapping) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.overlapsLocked(m.Seg.Base, m.Seg.Size) {
		return false
	}
	v.segs = append(v.segs, m)
	v.locks = nil
	return true
}

// removeSeg unregisters a segment; reports whether it was mapped.
func (v *VAS) removeSeg(id SegID) (SegMapping, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, m := range v.segs {
		if m.Seg.ID == id {
			v.segs = append(v.segs[:i], v.segs[i+1:]...)
			v.locks = nil
			return m, true
		}
	}
	return SegMapping{}, false
}

// attachments returns a snapshot of current attachments.
func (v *VAS) attachments() []*Attachment {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*Attachment, 0, len(v.atts))
	for a := range v.atts {
		out = append(out, a)
	}
	return out
}

// beginAttach announces an attach in flight; false means the VAS is gone.
func (v *VAS) beginAttach() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.destroyed {
		return false
	}
	v.attaching++
	return true
}

// endAttach ends an attach in flight, registering the attachment it built
// (nil when building failed).
func (v *VAS) endAttach(a *Attachment) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.attaching--
	if a != nil {
		v.atts[a] = struct{}{}
	}
}

// markDestroyed refuses while anything is attached or attaching.
func (v *VAS) markDestroyed() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.atts) > 0 || v.attaching > 0 {
		return false
	}
	v.destroyed = true
	return true
}

func (v *VAS) dropAttachment(a *Attachment) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.atts, a)
}

// AttachCount returns the number of processes currently attached.
func (v *VAS) AttachCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.atts)
}
