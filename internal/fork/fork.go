// Package fork manages frozen copy-on-write views of shard stores — the
// subsystem behind non-blocking checkpoint shipping and bounded-staleness
// follower reads.
//
// A fork clones a node's live data segment via core.SegForkFrozen: the
// frozen view owns the segment's frames at the instant of the fork, the
// live segment becomes a copy-on-write child of it, and writers resume
// immediately (their first store per page faults and breaks COW into a
// private frame). The frozen view is attached read-only into its own VAS,
// so image extraction and follower reads proceed with no lock on the live
// store and no node mutex held.
//
// Views are generation-fenced: every fork gets a monotonically increasing
// generation, a promotion or slot migration invalidates a node's
// outstanding views, and readers must re-check validity after attaching.
// Released views return every private COW frame to the allocator
// (vm.Object.CollapseCOW) — the leak-check contract verified through the
// physical-memory reaper.
package fork

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/stats"
	"spacejmp/internal/vm"
)

// View is one immutable frozen fork of a node's live store segment.
type View struct {
	node      int
	gen       uint64
	base      uint64 // the node's previous fork; 0 for none
	segName   string // "<live-seg>@fork<gen>"
	vasName   string
	vid       core.VASID
	sid       core.SegID
	liveObj   *vm.Object // the live segment's object, now a COW child of the frozen one
	createdAt time.Time
	invalid   atomic.Bool
}

// Node returns the shard node the view was forked from.
func (v *View) Node() int { return v.node }

// Gen returns the view's fork generation — the fencing token readers and
// the ship path compare against the engine's current generation.
func (v *View) Gen() uint64 { return v.gen }

// Base returns the generation this view is a delta over: the node's previous
// fork, whether or not anyone extracted it, and 0 for the node's first.
func (v *View) Base() uint64 { return v.base }

// SegName returns the frozen segment's registry name.
func (v *View) SegName() string { return v.segName }

// VID returns the frozen VAS readers attach to serve from the view.
func (v *View) VID() core.VASID { return v.vid }

// Age returns how far behind the live store the view is.
func (v *View) Age() time.Duration { return time.Since(v.createdAt) }

// Invalid reports whether the view has been fenced off (superseded by a
// promotion or slot migration). Readers must re-check after attaching: a
// view that is still the node's current one cannot be released out from
// under an attachment.
func (v *View) Invalid() bool { return v.invalid.Load() }

// Engine tracks the current and retired frozen views of every shard node.
// Forks and releases are driven on the owning node's thread (the cluster
// holds the node mutex across Fork, which quiesces that node's writers for
// the instant of the frame swap); invalidation may come from any goroutine.
type Engine struct {
	sys *core.System
	obs *stats.Sink

	mu      sync.Mutex
	gen     uint64
	last    map[int]uint64 // node -> generation of its latest fork
	current map[int]*View
	retired map[int][]*View
}

// New creates an engine over sys reporting to obs (which may be nil).
func New(sys *core.System, obs *stats.Sink) *Engine {
	return &Engine{
		sys:     sys,
		obs:     obs,
		last:    map[int]uint64{},
		current: map[int]*View{},
		retired: map[int][]*View{},
	}
}

// Fork takes a new frozen view of node's live segment segName and publishes
// it as the node's current view, retiring (and, when no reader is attached,
// releasing) the predecessor. It must run on the node's own thread with the
// node's writers quiesced — the cluster calls it from the node's command
// handler under the node mutex. The mutex is needed only for the duration
// of this call; image extraction happens later, lock-free, via Image.
func (e *Engine) Fork(th *core.Thread, node int, segName string) (*View, error) {
	sid, err := th.SegFind(segName)
	if err != nil {
		return nil, err
	}
	seg, err := e.sys.SegByID(sid)
	if err != nil {
		return nil, err
	}
	liveObj := seg.Obj

	e.mu.Lock()
	e.gen++
	gen := e.gen
	e.mu.Unlock()

	frozenName := fmt.Sprintf("%s@fork%d", segName, gen)
	fsid, err := th.SegForkFrozen(sid, frozenName)
	if err != nil {
		return nil, err
	}
	vid, err := th.VASCreate(frozenName+".vas", 0o666)
	if err != nil {
		_ = th.SegFree(fsid)
		liveObj.CollapseCOW()
		return nil, err
	}
	if err := th.SegAttachVAS(vid, fsid, arch.PermRead); err != nil {
		_ = th.VASDestroy(vid)
		_ = th.SegFree(fsid)
		liveObj.CollapseCOW()
		return nil, err
	}

	v := &View{
		node: node, gen: gen, segName: frozenName, vasName: frozenName + ".vas",
		vid: vid, sid: fsid, liveObj: liveObj, createdAt: time.Now(),
	}

	e.mu.Lock()
	// A fork that failed above folded its frames back and left last alone:
	// this view's dirty set covers that one's too.
	v.base, e.last[node] = e.last[node], gen
	if prev := e.current[node]; prev != nil {
		e.retired[node] = append(e.retired[node], prev)
	}
	e.current[node] = v
	e.sweepLocked(th, node)
	e.mu.Unlock()

	e.obs.ClusterFork(node, gen)
	return v, nil
}

// Current returns node's current valid view, or nil when the node has no
// view or its view has been invalidated. Safe on a nil engine (replication
// disabled).
func (e *Engine) Current(node int) *View {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	v := e.current[node]
	if v == nil || v.invalid.Load() {
		return nil
	}
	return v
}

// Image extracts the frozen view's segment content for a receiver holding
// generation have of the node's store (0: nothing): the pages written since,
// when have is exactly the generation the view was forked over, every page
// otherwise. It takes no thread and no node mutex — the frames are immutable
// by construction, so the primary keeps serving while the image is read. Fails
// if the view was invalidated (its frames may already be reclaimed).
func (e *Engine) Image(v *View, have uint64) (*core.SegmentImage, error) {
	if v.invalid.Load() {
		return nil, fmt.Errorf("%w: fork gen %d of node %d invalidated", core.ErrInvalid, v.gen, v.node)
	}
	if have == 0 || have != v.base {
		return e.sys.SegmentImageOf(v.segName, v.gen, nil)
	}
	seg, err := e.sys.SegByID(v.sid)
	if err != nil {
		return nil, err
	}
	img, err := e.sys.SegmentImageOf(v.segName, v.gen, seg.Obj.Dirty())
	if err == nil {
		img.Base = v.base
	}
	return img, err
}

// InvalidateNode fences every outstanding view of node: a promotion or slot
// migration makes frozen views of the old primary semantically stale in a
// way no staleness bound covers, so readers must stop trusting them
// immediately. Views are retired, not released — readers may still hold
// attachments; their frames are reclaimed at the next sweep or at Close.
// Safe on a nil engine.
func (e *Engine) InvalidateNode(node int, reason string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	views := uint64(0)
	if v := e.current[node]; v != nil {
		if !v.invalid.Swap(true) {
			views++
		}
		e.retired[node] = append(e.retired[node], v)
		delete(e.current, node)
	}
	for _, v := range e.retired[node] {
		if !v.invalid.Swap(true) {
			views++
		}
	}
	e.mu.Unlock()
	if views > 0 {
		e.obs.ClusterForkInvalidate(node, views, reason)
	}
}

// sweepLocked releases node's retired views that no reader is attached to.
// Views still attached stay retired for the next sweep; the release path's
// VASDestroy refuses (ErrBusy) while attachments exist or an attach is in
// flight, so a reader that attached — or is attaching — between the
// generation flip and the sweep is never pulled out from under. Caller holds
// e.mu.
func (e *Engine) sweepLocked(th *core.Thread, node int) {
	kept := e.retired[node][:0]
	for _, v := range e.retired[node] {
		if err := e.releaseView(th, v); err != nil {
			kept = append(kept, v)
		}
	}
	e.retired[node] = kept
}

// releaseView reclaims one retired view: destroy the frozen VAS (refused
// while attached — the fencing guarantee), free the frozen segment, then
// fold the live object's COW chain: the released generation's frames move
// up into the view above it, and the ones that view superseded are freed.
func (e *Engine) releaseView(th *core.Thread, v *View) error {
	if err := th.VASDestroy(v.vid); err != nil {
		return err
	}
	if err := th.SegFree(v.sid); err != nil {
		return err
	}
	v.liveObj.CollapseCOW()
	e.obs.ClusterForkRelease(v.node, v.gen)
	return nil
}

// Close force-releases every view, current and retired, on the given
// (admin) thread — node threads may be dead after crash injection. Callers
// must have quiesced readers first (the cluster closes workers before the
// engine); a view still attached is reported, not leaked silently.
func (e *Engine) Close(th *core.Thread) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var errs error
	for node, v := range e.current {
		v.invalid.Store(true)
		e.retired[node] = append(e.retired[node], v)
	}
	e.current = map[int]*View{}
	for node, views := range e.retired {
		for _, v := range views {
			if err := e.releaseView(th, v); err != nil {
				errs = errors.Join(errs, fmt.Errorf("fork: releasing node %d gen %d: %w", node, v.gen, err))
			}
		}
	}
	e.retired = map[int][]*View{}
	return errs
}
