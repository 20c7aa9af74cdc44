package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spacejmp/internal/arch"
	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/mem"
	"spacejmp/internal/stats"
	"spacejmp/internal/vm"
)

// System is the OS-side SpaceJMP state: the registries of first-class VASes
// and segments, the process table, and the TLB tag allocator, bound to a
// simulated machine and an OS personality.
type System struct {
	M *hw.Machine
	P Personality

	mu           sync.Mutex
	vases        map[VASID]*VAS
	vasByName    map[string]*VAS
	segs         map[SegID]*Segment
	segByName    map[string]*Segment
	nextVAS      VASID
	nextSeg      SegID
	nextPID      int
	nextASID     arch.ASID
	coreInUse    []bool
	segTier      mem.Tier
	tagPrimaries bool
	switches     atomic.Uint64 // total vas_switch count (Figure 9's switch rate); not under mu
}

// NewSystem boots a SpaceJMP system on the given machine with the given
// personality.
func NewSystem(m *hw.Machine, p Personality) *System {
	return &System{
		M: m, P: p,
		vases: map[VASID]*VAS{}, vasByName: map[string]*VAS{},
		segs: map[SegID]*Segment{}, segByName: map[string]*Segment{},
		nextVAS: 1, nextSeg: 1, nextPID: 1, nextASID: 1,
		coreInUse: make([]bool, len(m.Cores)),
		segTier:   mem.TierDRAM,
	}
}

// SetSegmentTier selects the memory tier backing subsequently created
// segments (TierNVM gives segments that survive power cycles, §7).
func (sys *System) SetSegmentTier(t mem.Tier) {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	sys.segTier = t
}

// SetTagPrimaries makes subsequently created processes' primary address
// spaces TLB-tagged, so switching between a tagged VAS and the process's
// own space retains translations in both directions — the configuration
// behind the paper's tagged measurements (Table 2, Figure 10a).
func (sys *System) SetTagPrimaries(v bool) {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	sys.tagPrimaries = v
}

// allocTag hands out a fresh, never-reused TLB tag.
func (sys *System) allocTag() (arch.ASID, error) {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if sys.nextASID >= arch.MaxASID {
		return 0, fmt.Errorf("%w: out of TLB tags", ErrBusy)
	}
	tag := sys.nextASID
	sys.nextASID++
	return tag, nil
}

// installShootdown arranges TLB invalidation across all cores when
// translations are removed from the space. tagOf yields the tag the space's
// entries are cached under at invalidation time.
func (sys *System) installShootdown(space *vm.Space, tagOf func() arch.ASID) {
	space.Shootdown = func(va arch.VirtAddr, size uint64) {
		pages := arch.PagesIn(size)
		tag := tagOf()
		entries := 0
		for _, c := range sys.M.Cores {
			if pages > 64 {
				entries += c.TLB.FlushASID(tag)
				if tag != arch.ASIDFlush {
					continue
				}
				entries += c.TLB.FlushAll()
				continue
			}
			for i := uint64(0); i < pages; i++ {
				a := va + arch.VirtAddr(i*arch.PageSize)
				entries += c.TLB.FlushPage(tag, a)
				if tag != arch.ASIDFlush {
					entries += c.TLB.FlushPage(arch.ASIDFlush, a)
				}
			}
		}
		sys.M.Observer().Shootdown(pages, entries)
	}
}

// Switches returns the number of vas_switch operations performed.
func (sys *System) Switches() uint64 { return sys.switches.Load() }

func (sys *System) countSwitch(t *Thread, h Handle) {
	sys.switches.Add(1)
	sys.M.Observer().VASSwitch(t.Core.ID, t.Proc.PID, uint64(h))
}

// EnableStats turns on machine-wide observability (see hw.Machine.EnableStats)
// and returns the live sink. Address spaces built after this call also feed
// the page-table counters; enable stats before creating processes and
// segments for complete accounting.
func (sys *System) EnableStats(traceCap int) *stats.Sink {
	return sys.M.EnableStats(traceCap)
}

// Sink returns the live stats sink, first installing one with no trace ring
// if the machine has none: what a serving stack, which always counts, asks for.
func (sys *System) Sink() *stats.Sink {
	if s := sys.M.Observer(); s != nil {
		return s
	}
	return sys.EnableStats(0)
}

// Stats returns an immutable snapshot of every observability counter,
// completed with the syscall-layer totals, or nil when stats are disabled.
func (sys *System) Stats() *stats.Snapshot {
	snap := sys.M.StatsSnapshot()
	if snap != nil {
		snap.Switches = sys.Switches()
	}
	return snap
}

// Tracer returns the installed trace ring, or nil when tracing is off.
func (sys *System) Tracer() *stats.Tracer {
	return sys.M.Observer().Tracer()
}

// claimCore reserves a free core for a thread.
func (sys *System) claimCore() (*hw.Core, error) {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	for i, used := range sys.coreInUse {
		if !used {
			sys.coreInUse[i] = true
			return sys.M.Cores[i], nil
		}
	}
	return nil, fmt.Errorf("%w: all %d cores busy", ErrBusy, len(sys.coreInUse))
}

func (sys *System) releaseCore(c *hw.Core) {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	sys.coreInUse[c.ID] = false
}

// NewProcess creates a process with the traditional private segments (text,
// globals, stack) mapped into a primary address space.
func (sys *System) NewProcess(creds Creds) (*Process, error) {
	sys.mu.Lock()
	pid := sys.nextPID
	sys.nextPID++
	sys.mu.Unlock()

	p := &Process{PID: pid, Creds: creds, sys: sys, atts: map[Handle]*Attachment{}, nextHandle: 1}
	sys.mu.Lock()
	tagIt := sys.tagPrimaries
	sys.mu.Unlock()
	if tagIt {
		tag, err := sys.allocTag()
		if err != nil {
			return nil, err
		}
		p.primaryTag = tag
	}
	layout := []struct {
		name string
		base arch.VirtAddr
		size uint64
		perm arch.Perm
	}{
		{"text", TextBase, TextSize, arch.PermRead | arch.PermExec},
		{"globals", GlobalsBase, GlobalsSize, arch.PermRW},
		{"stack", StackBase, StackSize, arch.PermRW},
	}
	for _, l := range layout {
		seg := sys.newSegmentLocked(fmt.Sprintf("pid%d.%s", pid, l.name), l.base, l.size, l.perm, creds, false)
		p.priv = append(p.priv, SegMapping{Seg: seg, Perm: l.perm})
	}
	space, err := sys.buildSpace(p, nil)
	if err != nil {
		return nil, err
	}
	p.primary = space
	return p, nil
}

// newSegmentLocked constructs a segment without registering it by name
// (used for process-private segments). Global registration happens in
// SegAlloc.
func (sys *System) newSegmentLocked(name string, base arch.VirtAddr, size uint64, perm arch.Perm, owner Creds, lockable bool) *Segment {
	return sys.newSegment(name, base, size, perm, owner, segConfig{pageSize: arch.PageSize, lockable: lockable})
}

func (sys *System) newSegment(name string, base arch.VirtAddr, size uint64, perm arch.Perm, owner Creds, cfg segConfig) *Segment {
	sys.mu.Lock()
	id := sys.nextSeg
	sys.nextSeg++
	tier := sys.segTier
	sys.mu.Unlock()
	if cfg.tierSet {
		tier = cfg.tier
	}
	size = (size + cfg.pageSize - 1) &^ (cfg.pageSize - 1)
	return &Segment{
		ID: id, Name: name, Base: base, Size: size,
		Obj: vm.NewObjectPages(sys.M.PM, name, size, tier, cfg.pageSize), Owner: owner,
		perm: perm, lockable: cfg.lockable,
	}
}

// registerSeg enters a fully built global segment in the registries and tells
// the personality. The name check and the insert are one hold of sys.mu: the
// callers' own look at segByName comes before they drop the lock to build and
// populate, so it only spares a doomed build, and of two builders of one name
// both can pass it. The one that registers second gets ErrExists and its
// segment's storage is released.
func (sys *System) registerSeg(seg *Segment) error {
	sys.mu.Lock()
	err := sys.registerSegLocked(seg)
	sys.mu.Unlock()
	if err != nil {
		seg.Obj.Unref()
	}
	return err
}

// registerSegLocked is registerSeg for a caller holding sys.mu (Restore); a
// refused segment is the caller's to dispose of.
func (sys *System) registerSegLocked(seg *Segment) error {
	if _, dup := sys.segByName[seg.Name]; dup {
		return fmt.Errorf("%w: segment %q", ErrExists, seg.Name)
	}
	sys.P.SegCreated(seg.Owner, seg)
	sys.segs[seg.ID] = seg
	sys.segByName[seg.Name] = seg
	return nil
}

// buildSpace creates a vmspace holding the process's private segments plus,
// if vas is non-nil, the VAS's global segments.
func (sys *System) buildSpace(p *Process, a *Attachment) (*vm.Space, error) {
	space, err := vm.NewSpace(sys.M.PM)
	if err != nil {
		return nil, err
	}
	space.SetObserver(sys.M.Observer())
	if a != nil {
		vas := a.VAS
		sys.installShootdown(space, vas.Tag)
	} else {
		tag := p.primaryTag
		sys.installShootdown(space, func() arch.ASID { return tag })
	}
	for _, m := range p.priv {
		if _, err := space.Map(m.Seg.Base, m.Seg.Size, m.Perm, m.Seg.Obj, 0, vm.MapFixed); err != nil {
			space.Destroy()
			return nil, fmt.Errorf("mapping private segment %q: %w", m.Seg.Name, err)
		}
	}
	if a != nil {
		a.Space = space
		for _, m := range a.VAS.Mappings() {
			if err := a.installSeg(m.Seg, m.Perm); err != nil {
				space.Destroy()
				return nil, fmt.Errorf("mapping segment %q: %w", m.Seg.Name, err)
			}
		}
	}
	return space, nil
}

// --- The VAS API (Figure 3), charged to the calling thread's core. ---

// gate is the syscall-boundary check every API entry makes after paying the
// entry cost: a dead process cannot make syscalls, and an armed
// fault.CoreSyscallCrash point kills the process right here — after entry,
// before the operation — leaving locks held and attachments live for the
// reaper to clean up.
func (t *Thread) gate(sys *System) error {
	if t.Proc.Dead() {
		return fmt.Errorf("%w: pid %d", ErrProcessDead, t.Proc.PID)
	}
	if sys.M.Faults.Fire(fault.CoreSyscallCrash) {
		t.Proc.Crash()
		return fmt.Errorf("%w: pid %d crashed at syscall entry (injected)", ErrProcessDead, t.Proc.PID)
	}
	return nil
}

// enter charges the personality's control-path cost and runs the syscall
// gate. The returned done func records the syscall's simulated-cycle latency
// into the per-op histogram; callers defer it so the measurement covers the
// whole operation. When observability is off done is a shared no-op.
func (t *Thread) enter(op stats.Op) (*System, func(), error) {
	sys := t.Proc.sys
	done := noopDone
	if obs := sys.M.Observer(); obs != nil {
		core, start := t.Core, t.Core.Cycles()
		done = func() { obs.Syscall(op, core.Cycles()-start) }
	}
	t.Core.AddCyclesCat(stats.CatSyscall, sys.P.ControlCycles())
	return sys, done, t.gate(sys)
}

var noopDone = func() {}

// VASCreate creates a named first-class address space (vas_create).
func (t *Thread) VASCreate(name string, mode uint16) (VASID, error) {
	sys, done, err := t.enter(stats.OpVASCreate)
	if err != nil {
		return 0, err
	}
	defer done()
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if _, dup := sys.vasByName[name]; dup {
		return 0, fmt.Errorf("%w: vas %q", ErrExists, name)
	}
	v := &VAS{ID: sys.nextVAS, Name: name, Owner: t.Proc.Creds, Mode: mode, atts: map[*Attachment]struct{}{}}
	sys.nextVAS++
	sys.vases[v.ID] = v
	sys.vasByName[name] = v
	sys.P.VASCreated(t.Proc.Creds, v)
	return v.ID, nil
}

// VASFind looks up a VAS by name (vas_find).
func (t *Thread) VASFind(name string) (VASID, error) {
	sys, done, err := t.enter(stats.OpVASFind)
	if err != nil {
		return 0, err
	}
	defer done()
	sys.mu.Lock()
	defer sys.mu.Unlock()
	v, ok := sys.vasByName[name]
	if !ok {
		return 0, fmt.Errorf("%w: vas %q", ErrNotFound, name)
	}
	return v.ID, nil
}

func (sys *System) vas(id VASID) (*VAS, error) {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	v, ok := sys.vases[id]
	if !ok {
		return nil, fmt.Errorf("%w: vas %d", ErrNotFound, id)
	}
	return v, nil
}

func (sys *System) seg(id SegID) (*Segment, error) {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	s, ok := sys.segs[id]
	if !ok {
		return nil, fmt.Errorf("%w: segment %d", ErrNotFound, id)
	}
	return s, nil
}

// VASByID returns the VAS object for inspection (ACL edits, tag queries).
func (sys *System) VASByID(id VASID) (*VAS, error) { return sys.vas(id) }

// SegByID returns the segment object for inspection.
func (sys *System) SegByID(id SegID) (*Segment, error) { return sys.seg(id) }

// VASAttach attaches the calling process to a VAS, building the
// process-private vmspace instance (vas_attach).
func (t *Thread) VASAttach(vid VASID) (Handle, error) {
	sys, done, err := t.enter(stats.OpVASAttach)
	if err != nil {
		return 0, err
	}
	defer done()
	v, err := sys.vas(vid)
	if err != nil {
		return 0, err
	}
	if err := sys.P.CheckVAS(t.Proc.Creds, v, arch.PermRead); err != nil {
		return 0, err
	}
	// Registered only once built (SegAttachVAS and friends use the spaces of
	// registered attachments); until then vas_destroy respects the count.
	if !v.beginAttach() {
		return 0, fmt.Errorf("%w: vas %d", ErrNotFound, vid)
	}
	p := t.Proc
	a := &Attachment{VAS: v, proc: p}
	if _, err := sys.buildSpace(p, a); err != nil {
		v.endAttach(nil)
		return 0, err
	}
	p.mu.Lock()
	a.H = p.nextHandle
	p.nextHandle++
	p.atts[a.H] = a
	p.mu.Unlock()
	v.endAttach(a)
	return a.H, nil
}

// VASDetach drops an attachment (vas_detach). The VAS itself survives.
func (t *Thread) VASDetach(h Handle) error {
	_, done, err := t.enter(stats.OpVASDetach)
	if err != nil {
		return err
	}
	defer done()
	if h == PrimaryHandle {
		return fmt.Errorf("%w: cannot detach the primary address space", ErrDenied)
	}
	p := t.Proc
	p.mu.Lock()
	a, ok := p.atts[h]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: handle %d", ErrNotFound, h)
	}
	for _, th := range p.threads {
		if th.cur == a {
			p.mu.Unlock()
			return fmt.Errorf("%w: a thread is switched into handle %d", ErrBusy, h)
		}
	}
	delete(p.atts, h)
	p.mu.Unlock()
	a.destroy()
	return nil
}

// VASSwitch is the thread-level switch entry point (vas_switch). Like every
// syscall it passes the crash gate: an injected crash here dies while the
// thread still holds the locks of the space it is leaving.
func (t *Thread) VASSwitch(h Handle) error {
	sys := t.Proc.sys
	start := t.Core.Cycles()
	if err := t.gate(sys); err != nil {
		return err
	}
	sys.countSwitch(t, h)
	err := t.Switch(h)
	if obs := sys.M.Observer(); obs != nil {
		obs.Syscall(stats.OpVASSwitch, t.Core.Cycles()-start)
	}
	return err
}

// VASClone creates a new VAS sharing the original's segments — combined
// with VASCtl it implements permission-changed views and snapshots
// (vas_clone).
func (t *Thread) VASClone(vid VASID, newName string) (VASID, error) {
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
	sys.mu.Lock()
	if _, dup := sys.vasByName[newName]; dup {
		sys.mu.Unlock()
		return 0, fmt.Errorf("%w: vas %q", ErrExists, newName)
	}
	v := &VAS{ID: sys.nextVAS, Name: newName, Owner: t.Proc.Creds, Mode: src.Mode, atts: map[*Attachment]struct{}{}, segs: src.Mappings()}
	sys.nextVAS++
	sys.vases[v.ID] = v
	sys.vasByName[newName] = v
	sys.mu.Unlock()
	sys.P.VASCreated(t.Proc.Creds, v)
	return v.ID, nil
}

// VASCtl manipulates VAS metadata (vas_ctl). Commands are typed values
// built with SetTag, ClearTag, or SetMode, applied in order; an ill-typed
// argument is now a compile error rather than a runtime one.
func (t *Thread) VASCtl(vid VASID, cmds ...VASCmd) error {
	sys, done, err := t.enter(stats.OpVASCtl)
	if err != nil {
		return err
	}
	defer done()
	v, err := sys.vas(vid)
	if err != nil {
		return err
	}
	if err := sys.P.CheckVAS(t.Proc.Creds, v, arch.PermWrite); err != nil {
		return err
	}
	for _, cmd := range cmds {
		if cmd == nil {
			return fmt.Errorf("%w: vas_ctl: nil command", ErrInvalid)
		}
		if err := cmd.applyVAS(sys, v); err != nil {
			return err
		}
	}
	return nil
}

// VASDestroy removes an unattached VAS from the system. Its segments
// survive (they are independently named objects). This is the reclamation
// path the paper leaves to vas_ctl.
func (t *Thread) VASDestroy(vid VASID) error {
	sys, done, err := t.enter(stats.OpVASDestroy)
	if err != nil {
		return err
	}
	defer done()
	v, err := sys.vas(vid)
	if err != nil {
		return err
	}
	if err := sys.P.CheckVAS(t.Proc.Creds, v, arch.PermWrite); err != nil {
		return err
	}
	if !v.markDestroyed() {
		return fmt.Errorf("%w: vas %q has attachments", ErrBusy, v.Name)
	}
	sys.mu.Lock()
	delete(sys.vases, v.ID)
	delete(sys.vasByName, v.Name)
	sys.mu.Unlock()
	return nil
}

// --- The segment API (Figure 3). ---

// SegAlloc creates a named global segment at a fixed base address with
// physical memory reserved up front (seg_alloc). Global segments must live
// at or above GlobalBase, disjoint from every process's private range.
// Options select the backing page size (WithPageSize), memory tier
// (WithTier), and lockability (WithLockable); the defaults are 4 KiB pages,
// the system's segment tier, lockable.
func (t *Thread) SegAlloc(name string, base arch.VirtAddr, size uint64, perm arch.Perm, opts ...SegOption) (SegID, error) {
	sys, done, err := t.enter(stats.OpSegAlloc)
	if err != nil {
		return 0, err
	}
	defer done()
	cfg := segConfig{pageSize: arch.PageSize, lockable: true}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.pageSize != arch.PageSize && cfg.pageSize != arch.HugePageSize {
		return 0, fmt.Errorf("%w: segment %q: unsupported page size %d", ErrLayout, name, cfg.pageSize)
	}
	if base < GlobalBase || !(base + arch.VirtAddr(size)).Canonical() {
		return 0, fmt.Errorf("%w: global segment %q must lie in [%v, 2^48)", ErrLayout, name, GlobalBase)
	}
	if uint64(base)%cfg.pageSize != 0 || size == 0 {
		return 0, fmt.Errorf("%w: segment %q base/size not aligned to %d-byte pages", ErrLayout, name, cfg.pageSize)
	}
	sys.mu.Lock()
	if _, dup := sys.segByName[name]; dup {
		sys.mu.Unlock()
		return 0, fmt.Errorf("%w: segment %q", ErrExists, name)
	}
	sys.mu.Unlock()
	seg := sys.newSegment(name, base, size, perm, t.Proc.Creds, cfg)
	if err := seg.Obj.Populate(); err != nil {
		seg.Obj.Unref()
		return 0, err
	}
	if err := sys.registerSeg(seg); err != nil {
		return 0, err
	}
	return seg.ID, nil
}

// SegFind looks a segment up by name (seg_find).
func (t *Thread) SegFind(name string) (SegID, error) {
	sys, done, err := t.enter(stats.OpSegFind)
	if err != nil {
		return 0, err
	}
	defer done()
	sys.mu.Lock()
	defer sys.mu.Unlock()
	s, ok := sys.segByName[name]
	if !ok {
		return 0, fmt.Errorf("%w: segment %q", ErrNotFound, name)
	}
	return s.ID, nil
}

// SegAttachVAS maps a segment into a VAS for every attached process, with
// the given mapping permissions (seg_attach with a vid). The mapping
// permissions may not exceed the segment's own.
func (t *Thread) SegAttachVAS(vid VASID, sid SegID, mapPerm arch.Perm) error {
	sys, done, err := t.enter(stats.OpSegAttach)
	if err != nil {
		return err
	}
	defer done()
	v, err := sys.vas(vid)
	if err != nil {
		return err
	}
	seg, err := sys.seg(sid)
	if err != nil {
		return err
	}
	if err := sys.P.CheckVAS(t.Proc.Creds, v, arch.PermWrite); err != nil {
		return err
	}
	if err := sys.P.CheckSeg(t.Proc.Creds, seg, mapPerm); err != nil {
		return err
	}
	if !seg.Perm().Allows(mapPerm) {
		return fmt.Errorf("%w: mapping %v exceeds segment perm %v", ErrDenied, mapPerm, seg.Perm())
	}
	if !v.addSeg(SegMapping{Seg: seg, Perm: mapPerm}) {
		return fmt.Errorf("%w: segment %q overlaps a segment in vas %q", ErrLayout, seg.Name, v.Name)
	}
	// Propagate to existing attachments, rolling back on failure.
	installed := []*Attachment{}
	for _, a := range v.attachments() {
		if err := a.installSeg(seg, mapPerm); err != nil {
			for _, d := range installed {
				_ = d.removeSeg(seg)
			}
			v.removeSeg(sid)
			return err
		}
		installed = append(installed, a)
	}
	sys.M.Observer().SegAttach(t.Core.ID, t.Proc.PID, uint64(vid), uint64(sid))
	return nil
}

// SegAttachLocal maps a segment into only the calling process's attachment
// (seg_attach with a vh) — process-specific installation.
func (t *Thread) SegAttachLocal(h Handle, sid SegID, mapPerm arch.Perm) error {
	sys, done, err := t.enter(stats.OpSegAttach)
	if err != nil {
		return err
	}
	defer done()
	seg, err := sys.seg(sid)
	if err != nil {
		return err
	}
	if err := sys.P.CheckSeg(t.Proc.Creds, seg, mapPerm); err != nil {
		return err
	}
	if !seg.Perm().Allows(mapPerm) {
		return fmt.Errorf("%w: mapping %v exceeds segment perm %v", ErrDenied, mapPerm, seg.Perm())
	}
	a, err := t.Proc.attachment(h)
	if err != nil {
		return err
	}
	if a == nil {
		_, err := t.Proc.primary.Map(seg.Base, seg.Size, mapPerm, seg.Obj, 0, vm.MapFixed)
		return err
	}
	return a.installSeg(seg, mapPerm)
}

// SegDetachVAS removes a segment from a VAS and from every attachment
// (seg_detach with a vid).
func (t *Thread) SegDetachVAS(vid VASID, sid SegID) error {
	sys, done, err := t.enter(stats.OpSegDetach)
	if err != nil {
		return err
	}
	defer done()
	v, err := sys.vas(vid)
	if err != nil {
		return err
	}
	if err := sys.P.CheckVAS(t.Proc.Creds, v, arch.PermWrite); err != nil {
		return err
	}
	m, ok := v.removeSeg(sid)
	if !ok {
		return fmt.Errorf("%w: segment %d not in vas %q", ErrNotFound, sid, v.Name)
	}
	for _, a := range v.attachments() {
		if err := a.removeSeg(m.Seg); err != nil {
			return err
		}
	}
	return nil
}

// SegDetachLocal unmaps a segment from the calling process's attachment
// (seg_detach with a vh).
func (t *Thread) SegDetachLocal(h Handle, sid SegID) error {
	sys, done, err := t.enter(stats.OpSegDetach)
	if err != nil {
		return err
	}
	defer done()
	seg, err := sys.seg(sid)
	if err != nil {
		return err
	}
	a, err := t.Proc.attachment(h)
	if err != nil {
		return err
	}
	if a == nil {
		return t.Proc.primary.Unmap(seg.Base, seg.Size)
	}
	return a.removeSeg(seg)
}

// SegClone deep-copies a segment's content into a new segment with a new
// name at the same base address (seg_clone). Cloning plus SegCtl implements
// permission-changed copies (§3.2).
func (t *Thread) SegClone(sid SegID, newName string) (SegID, error) {
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
	sys.mu.Unlock()
	dst := sys.newSegment(newName, src.Base, src.Size, src.Perm(), t.Proc.Creds,
		segConfig{pageSize: src.Obj.PageSize, lockable: src.Lockable()})
	if err := dst.Obj.Populate(); err != nil {
		dst.Obj.Unref()
		return 0, err
	}
	// Copy content frame by frame through physical memory.
	buf := make([]byte, src.Obj.PageSize)
	for idx := uint64(0); idx < src.Obj.Pages(); idx++ {
		sf, err := src.Obj.Frame(idx)
		if err != nil {
			dst.Obj.Unref()
			return 0, err
		}
		df, err := dst.Obj.Frame(idx)
		if err != nil {
			dst.Obj.Unref()
			return 0, err
		}
		if err := sys.M.PM.ReadAt(sf, buf); err != nil {
			dst.Obj.Unref()
			return 0, err
		}
		if err := sys.M.PM.WriteAt(df, buf); err != nil {
			dst.Obj.Unref()
			return 0, err
		}
	}
	if err := sys.registerSeg(dst); err != nil {
		return 0, err
	}
	return dst.ID, nil
}

// SegCtl manipulates segment metadata (seg_ctl). Commands are typed values
// built with SetPerm, SetLockable, or CacheTranslations, applied in order.
func (t *Thread) SegCtl(sid SegID, cmds ...SegCmd) error {
	sys, done, err := t.enter(stats.OpSegCtl)
	if err != nil {
		return err
	}
	defer done()
	seg, err := sys.seg(sid)
	if err != nil {
		return err
	}
	if err := sys.P.CheckSeg(t.Proc.Creds, seg, arch.PermWrite); err != nil {
		return err
	}
	for _, cmd := range cmds {
		if cmd == nil {
			return fmt.Errorf("%w: seg_ctl: nil command", ErrInvalid)
		}
		if err := cmd.applySeg(sys, seg); err != nil {
			return err
		}
	}
	return nil
}

// SegFree removes an unmapped global segment and releases its memory.
func (t *Thread) SegFree(sid SegID) error {
	sys, done, err := t.enter(stats.OpSegFree)
	if err != nil {
		return err
	}
	defer done()
	seg, err := sys.seg(sid)
	if err != nil {
		return err
	}
	if err := sys.P.CheckSeg(t.Proc.Creds, seg, arch.PermWrite); err != nil {
		return err
	}
	sys.mu.Lock()
	for _, v := range sys.vases {
		v.mu.Lock()
		for _, m := range v.segs {
			if m.Seg == seg {
				v.mu.Unlock()
				sys.mu.Unlock()
				return fmt.Errorf("%w: segment %q mapped in vas %q", ErrBusy, seg.Name, v.Name)
			}
		}
		v.mu.Unlock()
	}
	delete(sys.segs, seg.ID)
	delete(sys.segByName, seg.Name)
	sys.mu.Unlock()
	seg.destroy()
	return nil
}
