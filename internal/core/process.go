package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spacejmp/internal/arch"
	"spacejmp/internal/hw"
	"spacejmp/internal/stats"
	"spacejmp/internal/vm"
)

// Process is a SpaceJMP-aware process: the traditional process state (text,
// globals, stack — its private segments) plus any number of VAS attachments
// it can switch its threads between (Figure 2).
type Process struct {
	PID   int
	Creds Creds

	sys *System

	mu         sync.Mutex
	priv       []SegMapping // text, globals, stack: the common region
	primary    *vm.Space
	atts       map[Handle]*Attachment
	nextHandle Handle
	threads    []*Thread
	// dead is set once, under mu; a switch reads it without the lock.
	dead atomic.Bool

	// primaryTag is the TLB tag of the primary address space (ASIDFlush
	// unless NewTaggedProcess made the process).
	primaryTag arch.ASID
}

// Attachment is one process's instantiation of a VAS: a private vmspace
// holding the process's common region plus the VAS's global segments
// (§4.1: "attaching creates a new process-private instance of a vmspace").
type Attachment struct {
	H     Handle
	VAS   *VAS
	Space *vm.Space
	proc  *Process

	// linked records segments installed by linking their cached
	// translation subtree rather than by per-page mappings.
	linked []*Segment
}

// Thread is an execution context bound to a simulated core. Every SpaceJMP
// API call is made by a thread, and the control-path cost is charged to its
// core's cycle counter.
type Thread struct {
	Proc *Process
	Core *hw.Core

	cur  *Attachment  // nil when running in the primary address space
	held []SegMapping // lockable segments currently locked by this thread

	// lockStart is the core's cycle count when the held lock set was
	// acquired, feeding the lock-hold histogram on release.
	lockStart uint64
}

// System returns the owning system.
func (p *Process) System() *System { return p.sys }

// attachment resolves a handle. PrimaryHandle yields (nil, nil).
func (p *Process) attachment(h Handle) (*Attachment, error) {
	if h == PrimaryHandle {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.atts[h]
	if !ok {
		return nil, fmt.Errorf("%w: handle %d", ErrNotFound, h)
	}
	return a, nil
}

// NewThread creates a thread bound to a free core, starting in the primary
// address space.
func (p *Process) NewThread() (*Thread, error) {
	if p.Dead() {
		return nil, fmt.Errorf("%w: pid %d", ErrProcessDead, p.PID)
	}
	core, err := p.sys.claimCore()
	if err != nil {
		return nil, err
	}
	t := &Thread{Proc: p, Core: core}
	core.LoadCR3(p.primary.Table(), p.primaryTag)
	core.OnFault = p.primary.Handler()
	p.mu.Lock()
	if p.dead.Load() {
		p.mu.Unlock()
		p.sys.releaseCore(core)
		return nil, fmt.Errorf("%w: pid %d", ErrProcessDead, p.PID)
	}
	p.threads = append(p.threads, t)
	p.mu.Unlock()
	return t, nil
}

// Dead reports whether the process has exited or crashed.
func (p *Process) Dead() bool { return p.dead.Load() }

// Exit tears the process down cleanly: threads leave their VASes (releasing
// segment locks through the ordinary switch path), then the kernel reaper
// reclaims cores, attachments, and private segments. VASes and global
// segments survive — they are first-class and independent of the process
// (§3.2). Exit on a dead process is a no-op.
func (p *Process) Exit() {
	p.mu.Lock()
	if p.dead.Load() {
		p.mu.Unlock()
		return
	}
	threads := append([]*Thread(nil), p.threads...)
	p.mu.Unlock()
	for _, t := range threads {
		if t.cur != nil {
			_ = t.Switch(PrimaryHandle)
		}
	}
	p.terminate()
}

// Crash models abrupt process death — a kill mid-syscall, a panic while
// switched into a VAS. No polite lock release happens: the process dies
// holding whatever segment locks its threads took, and the kernel reaper
// (System.reap) forcibly releases them, wakes blocked acquirers, and
// reclaims every frame the process owned. Crash on a dead process is a
// no-op.
func (p *Process) Crash() {
	p.terminate()
}

// terminate marks the process dead exactly once and hands its remains to
// the reaper.
func (p *Process) terminate() {
	p.mu.Lock()
	if p.dead.Load() {
		p.mu.Unlock()
		return
	}
	p.dead.Store(true)
	threads := p.threads
	p.threads = nil
	atts := make([]*Attachment, 0, len(p.atts))
	for _, a := range p.atts {
		atts = append(atts, a)
	}
	p.atts = map[Handle]*Attachment{}
	p.mu.Unlock()
	p.sys.reap(p, threads, atts)
}

// destroy unmaps and releases an attachment's vmspace.
func (a *Attachment) destroy() {
	a.VAS.dropAttachment(a)
	for _, seg := range a.linked {
		_ = a.Space.Table().UnlinkSubtree(seg.Base, 3)
	}
	a.Space.Destroy()
}

// installSeg maps a segment into the attachment's vmspace, preferring the
// segment's cached translation subtree when one exists at matching
// permissions and the slot is free.
func (a *Attachment) installSeg(seg *Segment, mapPerm arch.Perm) error {
	if sub, ok := seg.cacheSubtree(a.proc.sys.M.PM, mapPerm); ok {
		if err := a.Space.Table().LinkSubtree(arch.AlignDown(seg.Base, arch.LevelCoverage(3)), 3, sub); err == nil {
			a.linked = append(a.linked, seg)
			return nil
		}
		// Slot conflict: fall back to per-page mappings.
	}
	_, err := a.Space.Map(seg.Base, seg.Size, mapPerm, seg.Obj, 0, vm.MapFixed)
	return err
}

// removeSeg undoes installSeg.
func (a *Attachment) removeSeg(seg *Segment) error {
	for i, s := range a.linked {
		if s == seg {
			a.linked = append(a.linked[:i], a.linked[i+1:]...)
			if err := a.Space.Table().UnlinkSubtree(arch.AlignDown(seg.Base, arch.LevelCoverage(3)), 3); err != nil {
				return err
			}
			if a.Space.Shootdown != nil {
				a.Space.Shootdown(seg.Base, seg.Size)
			}
			return nil
		}
	}
	return a.Space.Unmap(seg.Base, seg.Size)
}

// Current returns the handle of the VAS the thread is switched into.
func (t *Thread) Current() Handle {
	if t.cur == nil {
		return PrimaryHandle
	}
	return t.cur.H
}

// Switch moves the thread into the address space identified by h — the
// paper's vas_switch. The sequence is: enter the OS, release the segment
// locks of the space being left, acquire the locks of the space being
// entered (shared for read-only mappings, exclusive for writable ones,
// blocking until granted), then overwrite CR3 (§3.1, §4.1).
func (t *Thread) Switch(h Handle) error {
	sys := t.Proc.sys
	obs := sys.M.Observer()
	t.Core.AddCyclesCat(stats.CatSwitch, sys.P.SwitchCycles())
	a, err := t.Proc.attachment(h)
	if err != nil {
		return err
	}
	if obs != nil && len(t.held) > 0 {
		obs.LockHold(t.Core.Cycles() - t.lockStart)
	}
	for i := len(t.held) - 1; i >= 0; i-- {
		t.held[i].Seg.release(t.held[i].Perm)
	}
	t.held = nil

	var space *vm.Space
	tag := t.Proc.primaryTag
	if a == nil {
		space = t.Proc.primary
	} else {
		var locks []SegMapping
		locks, tag = a.VAS.switchState()
		var wait time.Duration
		for _, m := range locks {
			wait += m.Seg.acquire(m.Perm)
		}
		if obs != nil && len(locks) > 0 {
			obs.LockWait(uint64(wait))
		}
		t.lockStart = t.Core.Cycles()
		t.held = locks
		space = a.Space
	}
	t.Core.AddCyclesCat(stats.CatSwitch, sys.P.SwitchBookkeeping(tag != arch.ASIDFlush))
	t.Core.LoadCR3(space.Table(), tag)
	t.Core.OnFault = space.Handler()
	t.cur = a
	return nil
}

// Space returns the vmspace the thread currently runs in.
func (t *Thread) Space() *vm.Space {
	if t.cur == nil {
		return t.Proc.primary
	}
	return t.cur.Space
}

// Load64 reads an aligned word in the thread's current address space.
func (t *Thread) Load64(va arch.VirtAddr) (uint64, error) { return t.Core.Load64(va) }

// Store64 writes an aligned word in the thread's current address space.
func (t *Thread) Store64(va arch.VirtAddr, v uint64) error { return t.Core.Store64(va, v) }

// LoadWords and StoreWords move a run of consecutive words (hw.Core.LoadWords).
func (t *Thread) LoadWords(va arch.VirtAddr, b []byte) (int, error)  { return t.Core.LoadWords(va, b) }
func (t *Thread) StoreWords(va arch.VirtAddr, b []byte) (int, error) { return t.Core.StoreWords(va, b) }

// Read copies memory out of the thread's current address space.
func (t *Thread) Read(va arch.VirtAddr, buf []byte) error { return t.Core.Read(va, buf) }

// Write copies memory into the thread's current address space.
func (t *Thread) Write(va arch.VirtAddr, buf []byte) error { return t.Core.Write(va, buf) }
