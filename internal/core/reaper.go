package core

// The kernel reaper: crash-path cleanup for a process that died without
// releasing what it held. SpaceJMP's central promise is that VASes and
// lockable segments outlive the processes using them (§3.2, §7) — which is
// only safe if a process death cannot strand a segment lock, leak the frames
// of its private segments and page tables, or leave dangling attachment
// state on a surviving VAS. The reaper runs synchronously from
// Process.Exit/Process.Crash (the simulator's equivalent of the kernel's
// do_exit) and restores every one of those invariants:
//
//   - segment locks held by the dead process's threads are forcibly
//     released in reverse acquisition order, waking any thread blocked in
//     Segment.acquire on another core;
//   - the threads' cores are returned to the scheduler pool, their TLBs
//     flushed: a VAS's tag is shared by every process attached to it, and
//     the next thread on the core must not hit this one's private pages;
//   - attachments are destroyed: the VAS drops the attachment record, linked
//     translation subtrees are unlinked, and the attachment's vmspace frees
//     its page-table frames and VM-object references;
//   - the primary vmspace and the private text/globals/stack segments are
//     freed, returning their frames to the allocator, and the primary's TLB
//     tag to the pool.
//
// PhysMem.CheckLeaks/VerifyInvariants is the test-side witness that the
// reaper returns the machine to its pre-process frame accounting.

// reap reclaims a dead process's resources. threads and atts are the
// snapshots terminate() took while marking the process dead; the process's
// own lists are already empty, so reap owns them exclusively.
func (sys *System) reap(p *Process, threads []*Thread, atts []*Attachment) {
	for _, t := range threads {
		// Forcibly release orphaned segment locks in reverse acquisition
		// order. A waiter blocked in acquire on another core resumes as
		// soon as the lock it wants drops.
		for i := len(t.held) - 1; i >= 0; i-- {
			t.held[i].Seg.release(t.held[i].Perm)
		}
		t.held = nil
		t.cur = nil
		t.Core.TLB.FlushAll()
		sys.releaseCore(t.Core)
	}
	for _, a := range atts {
		a.destroy()
	}
	p.primary.Destroy()
	for _, m := range p.priv {
		m.Seg.destroy()
	}
	sys.mu.Lock()
	sys.releaseTagLocked(p.primaryTag)
	sys.mu.Unlock()
}
