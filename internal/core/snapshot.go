package core

import (
	"fmt"

	"spacejmp/internal/arch"
	"spacejmp/internal/stats"
)

// Snapshotting and copy-on-write cloning — the address-space creation
// optimizations the paper lists as ongoing work in §7 ("copy-on-write,
// snapshotting, and versioning").

// SegCloneCOW creates a copy-on-write clone of a segment. Both sides keep
// the original's rights. The clone reads the original's frames page by page
// until it writes a page itself: its first write to a page copies that page
// into a private frame, and from then on the page is the clone's own. The
// original is never copied: it keeps writing its own frames in place, so a
// write to the original shows through the clone on every page the clone has
// not yet written.
//
// Note the sharing direction: this gives the *clone* stable private pages
// on write, which is the cheap-copy primitive. For a true point-in-time
// snapshot that also isolates writes made to the original, snapshot the
// VAS instead (VASSnapshot freezes the original's segments by cloning and
// swapping).
func (t *Thread) SegCloneCOW(sid SegID, newName string) (SegID, error) {
	sys, done, err := t.enter(stats.OpSegClone)
	if err != nil {
		return 0, err
	}
	defer done()
	src, err := sys.seg(sid)
	if err != nil {
		return 0, err
	}
	if err := sys.P.CheckSeg(t.Proc.Creds, src, arch.PermRead); err != nil {
		return 0, err
	}
	sys.mu.Lock()
	if _, dup := sys.segByName[newName]; dup {
		sys.mu.Unlock()
		return 0, fmt.Errorf("%w: segment %q", ErrExists, newName)
	}
	id := sys.nextSeg
	sys.nextSeg++
	sys.mu.Unlock()
	dst := &Segment{
		ID: id, Name: newName, Base: src.Base, Size: src.Size,
		Obj: src.Obj.CloneCOW(newName), Owner: t.Proc.Creds,
		perm: src.Perm(), lockable: src.Lockable(),
	}
	if err := sys.registerSeg(dst); err != nil {
		return 0, err
	}
	return dst.ID, nil
}

// SegForkFrozen splits an immutable point-in-time view off a live segment:
// the returned segment owns the source's current frames (read-only, not
// lockable), and the source becomes a copy-on-write child of it — writes to
// the live segment after the fork break into private frames and never reach
// the frozen view. This is the fork side of a BGSAVE-style snapshot: the
// frozen segment can be attached read-only or have its image extracted
// (System.SegmentImageOf) while the original keeps serving writes.
//
// The caller must quiesce writers of the source for the duration of the call
// (the cluster holds the node mutex across it); SegForkFrozen downgrades
// every installed writable translation of the source afterwards so resumed
// writers fault and break COW instead of storing through stale PTEs.
//
// Segments with cached translation subtrees are refused: the cache holds
// writable PTEs pointing at what are now frozen frames and cannot be
// downgraded per-space.
func (t *Thread) SegForkFrozen(sid SegID, newName string) (SegID, error) {
	sys, done, err := t.enter(stats.OpSegClone)
	if err != nil {
		return 0, err
	}
	defer done()
	src, err := sys.seg(sid)
	if err != nil {
		return 0, err
	}
	if err := sys.P.CheckSeg(t.Proc.Creds, src, arch.PermWrite); err != nil {
		return 0, err
	}
	if src.HasCache() {
		return 0, fmt.Errorf("%w: segment %q has cached translations; cannot fork frozen", ErrInvalid, src.Name)
	}
	sys.mu.Lock()
	if _, dup := sys.segByName[newName]; dup {
		sys.mu.Unlock()
		return 0, fmt.Errorf("%w: segment %q", ErrExists, newName)
	}
	id := sys.nextSeg
	sys.nextSeg++
	vases := make([]*VAS, 0, len(sys.vases))
	for _, v := range sys.vases {
		vases = append(vases, v)
	}
	sys.mu.Unlock()
	dst := &Segment{
		ID: id, Name: newName, Base: src.Base, Size: src.Size,
		Obj: src.Obj.ForkFrozen(newName), Owner: t.Proc.Creds,
		perm: arch.PermRead, lockable: false, ephemeral: true,
	}
	// The live object's frames map is now empty; installed writable PTEs
	// still point at the frozen frames. Downgrade them everywhere the source
	// is mapped writable so the next store faults and breaks COW.
	for _, v := range vases {
		for _, m := range v.Mappings() {
			if m.Seg.ID != src.ID || !m.Perm.CanWrite() {
				continue
			}
			for _, a := range v.attachments() {
				if err := a.Space.DowngradeWrites(src.Base, src.Size); err != nil {
					dst.Obj.Unref()
					src.Obj.CollapseCOW()
					return 0, fmt.Errorf("spacejmp: downgrading writers of %q: %w", src.Name, err)
				}
			}
		}
	}
	if err := sys.registerSeg(dst); err != nil {
		// The frozen view is gone again; fold its frames back into the
		// source, as when the downgrade fails.
		src.Obj.CollapseCOW()
		return 0, err
	}
	return dst.ID, nil
}

// VASSnapshot creates a point-in-time copy of a VAS: a new VAS whose
// segments are copy-on-write clones of the original's, named
// "<segment>@<snapshot>". The snapshot is immediately attachable; its
// memory cost is one frame per page *written* through it, not the full
// footprint (§7's snapshotting optimization).
//
// The snapshot diverges from the original on the snapshot's writes. Writes
// to the original after the snapshot remain visible through the snapshot's
// unwritten pages; freeze the original (map it read-only in its VAS, or
// quiesce writers via the segment locks) if a strict point-in-time image
// is required — the RedisJMP pattern of taking snapshots while holding the
// exclusive lock does exactly that.
func (t *Thread) VASSnapshot(vid VASID, snapName string) (VASID, error) {
	sys, done, err := t.enter(stats.OpVASClone)
	if err != nil {
		return 0, err
	}
	defer done()
	src, err := sys.vas(vid)
	if err != nil {
		return 0, err
	}
	if err := sys.P.CheckVAS(t.Proc.Creds, src, arch.PermRead); err != nil {
		return 0, err
	}
	newVID, err := t.VASCreate(snapName, src.Mode)
	if err != nil {
		return 0, err
	}
	for _, m := range src.Mappings() {
		cloneID, err := t.SegCloneCOW(m.Seg.ID, fmt.Sprintf("%s@%s", m.Seg.Name, snapName))
		if err != nil {
			return 0, err
		}
		if err := t.SegAttachVAS(newVID, cloneID, m.Perm); err != nil {
			return 0, err
		}
	}
	return newVID, nil
}
