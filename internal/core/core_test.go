package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/hw"
	"spacejmp/internal/stats"
)

// testPersonality is a permissive OS personality with nominal costs.
type testPersonality struct {
	denyVAS bool
	denySeg bool
}

func (testPersonality) Name() string          { return "test" }
func (testPersonality) ControlCycles() uint64 { return 100 }
func (testPersonality) SwitchCycles() uint64  { return 100 }
func (testPersonality) SwitchBookkeeping(tagged bool) uint64 {
	if tagged {
		return 25
	}
	return 50
}
func (p testPersonality) CheckVAS(Creds, *VAS, arch.Perm) error {
	if p.denyVAS {
		return ErrDenied
	}
	return nil
}
func (p testPersonality) CheckSeg(Creds, *Segment, arch.Perm) error {
	if p.denySeg {
		return ErrDenied
	}
	return nil
}
func (testPersonality) VASCreated(Creds, *VAS)     {}
func (testPersonality) SegCreated(Creds, *Segment) {}

func testSystem(t testing.TB) *System {
	t.Helper()
	return NewSystem(hw.NewMachine(hw.SmallTest()), testPersonality{})
}

func spawn(t testing.TB, sys *System) (*Process, *Thread) {
	t.Helper()
	p, err := sys.NewProcess(Creds{UID: 1000, GID: 1000})
	if err != nil {
		t.Fatal(err)
	}
	th, err := p.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	return p, th
}

// counted returns the row of the thread's core in the sink, installing one on
// the first call: its misses and faults count from there, exact at any time.
func counted(th *Thread) stats.CoreSnap {
	th.Proc.sys.Sink()
	return th.Proc.sys.Stats().Cores[th.Core.ID]
}

// segBase returns a global-segment base in PML4 slot 256+i.
func segBase(i int) arch.VirtAddr {
	return GlobalBase + arch.VirtAddr(uint64(i)*arch.LevelCoverage(3))
}

func TestProcessHasCommonRegion(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	// Stack and globals are writable in the primary space.
	if err := th.Store64(GlobalsBase+16, 42); err != nil {
		t.Fatalf("store to globals: %v", err)
	}
	if err := th.Store64(StackBase+arch.VirtAddr(StackSize/2), 7); err != nil {
		t.Fatalf("store to stack: %v", err)
	}
	// Text is not writable.
	if err := th.Store64(TextBase, 1); err == nil {
		t.Error("store to text succeeded")
	}
}

func TestFigure4Workflow(t *testing.T) {
	// The canonical usage example from Figure 4: create a VAS, allocate a
	// 2^35-byte segment at a chosen address, attach it, then another
	// process finds the VAS, attaches, switches, and uses the memory.
	sys := testSystem(t)
	_, creator := spawn(t, sys)

	va := segBase(0)
	sz := uint64(1) << 24 // scaled from the paper's 1<<35 for test speed
	vid, err := creator.VASCreate("v0", 0o660)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := creator.SegAlloc("s0", va, sz, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := creator.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}

	_, user := spawn(t, sys)
	found, err := user.VASFind("v0")
	if err != nil {
		t.Fatal(err)
	}
	if found != vid {
		t.Fatalf("found vid %d, want %d", found, vid)
	}
	vh, err := user.VASAttach(found)
	if err != nil {
		t.Fatal(err)
	}
	if err := user.VASSwitch(vh); err != nil {
		t.Fatal(err)
	}
	if err := user.Store64(va+8, 42); err != nil {
		t.Fatalf("store in attached VAS: %v", err)
	}
	v, err := user.Load64(va + 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("loaded %d", v)
	}
	if err := user.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	// Back in the primary space the segment is not mapped.
	if _, err := user.Load64(va + 8); err == nil {
		t.Error("global segment visible in primary space")
	}
}

func TestDataSharedAcrossProcesses(t *testing.T) {
	sys := testSystem(t)
	_, a := spawn(t, sys)
	_, b := spawn(t, sys)

	vid, _ := a.VASCreate("shared", 0o666)
	sid, _ := a.SegAlloc("data", segBase(0), 1<<20, arch.PermRW)
	if err := a.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	ha, _ := a.VASAttach(vid)
	hb, _ := b.VASAttach(vid)

	if err := a.VASSwitch(ha); err != nil {
		t.Fatal(err)
	}
	if err := a.Store64(segBase(0), 1234); err != nil {
		t.Fatal(err)
	}
	if err := a.VASSwitch(PrimaryHandle); err != nil { // release the write lock
		t.Fatal(err)
	}
	if err := b.VASSwitch(hb); err != nil {
		t.Fatal(err)
	}
	v, err := b.Load64(segBase(0))
	if err != nil {
		t.Fatal(err)
	}
	if v != 1234 {
		t.Errorf("process B sees %d, want 1234", v)
	}
}

func TestCommonRegionVisibleInEveryVAS(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	vid, _ := th.VASCreate("v", 0o660)
	h, _ := th.VASAttach(vid)
	if err := th.Store64(GlobalsBase, 99); err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	v, err := th.Load64(GlobalsBase)
	if err != nil {
		t.Fatalf("globals unreachable after switch: %v", err)
	}
	if v != 99 {
		t.Errorf("globals hold %d after switch, want 99", v)
	}
	// Writes made inside the VAS to the common region persist outside.
	if err := th.Store64(GlobalsBase+8, 100); err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	if v, _ := th.Load64(GlobalsBase + 8); v != 100 {
		t.Errorf("common-region write lost across switch: %d", v)
	}
}

func TestWriterLockExclusive(t *testing.T) {
	sys := testSystem(t)
	_, a := spawn(t, sys)
	_, b := spawn(t, sys)
	vid, _ := a.VASCreate("v", 0o666)
	sid, _ := a.SegAlloc("s", segBase(0), 1<<20, arch.PermRW)
	if err := a.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	ha, _ := a.VASAttach(vid)
	hb, _ := b.VASAttach(vid)

	if err := a.VASSwitch(ha); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	go func() {
		_ = b.VASSwitch(hb) // must block until a leaves
		close(entered)
	}()
	select {
	case <-entered:
		t.Fatal("second writer entered while first held the segment")
	default:
	}
	if err := a.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	<-entered // must now complete
	if r, w := mustSeg(t, sys, sid).LockHolders(); r != 0 || w != 1 {
		t.Errorf("lock holders = %d readers %d writers", r, w)
	}
}

func mustSeg(t *testing.T, sys *System, sid SegID) *Segment {
	t.Helper()
	s, err := sys.seg(sid)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReaderLockShared(t *testing.T) {
	sys := testSystem(t)
	_, owner := spawn(t, sys)
	vid, _ := owner.VASCreate("v", 0o666)
	sid, _ := owner.SegAlloc("s", segBase(0), 1<<20, arch.PermRW)
	if err := owner.SegAttachVAS(vid, sid, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		_, th := spawn(t, sys)
		h, err := th.VASAttach(vid)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = th.VASSwitch(h)
		}()
	}
	wg.Wait() // both readers enter concurrently; no deadlock
	if r, w := mustSeg(t, sys, sid).LockHolders(); r != 2 || w != 0 {
		t.Errorf("lock holders = %d readers %d writers, want 2/0", r, w)
	}
}

func TestReadOnlyMappingRejectsWrites(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	vid, _ := th.VASCreate("v", 0o660)
	sid, _ := th.SegAlloc("s", segBase(0), 1<<20, arch.PermRW)
	if err := th.SegAttachVAS(vid, sid, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	h, _ := th.VASAttach(vid)
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(segBase(0), 1); err == nil {
		t.Error("write through read-only VAS mapping succeeded")
	}
	if _, err := th.Load64(segBase(0)); err != nil {
		t.Errorf("read failed: %v", err)
	}
}

func TestVASPersistsBeyondCreator(t *testing.T) {
	sys := testSystem(t)
	creatorProc, creator := spawn(t, sys)
	vid, _ := creator.VASCreate("durable", 0o666)
	sid, _ := creator.SegAlloc("d", segBase(0), 1<<20, arch.PermRW)
	if err := creator.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	h, _ := creator.VASAttach(vid)
	if err := creator.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	if err := creator.Store64(segBase(0)+128, 0xABCD); err != nil {
		t.Fatal(err)
	}
	if err := creator.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	creatorProc.Exit()

	// A later process finds the VAS and the data is still there —
	// pointer-rich structures outlive the process (§2.2, SAMTools §5.4).
	_, later := spawn(t, sys)
	found, err := later.VASFind("durable")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := later.VASAttach(found)
	if err != nil {
		t.Fatal(err)
	}
	if err := later.VASSwitch(h2); err != nil {
		t.Fatal(err)
	}
	v, err := later.Load64(segBase(0) + 128)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xABCD {
		t.Errorf("data after creator exit = %#x", v)
	}
}

func TestSegAttachPropagatesToAttachedProcesses(t *testing.T) {
	sys := testSystem(t)
	_, a := spawn(t, sys)
	_, b := spawn(t, sys)
	vid, _ := a.VASCreate("v", 0o666)
	hb, _ := b.VASAttach(vid)
	// Segment attached *after* b attached the VAS must appear in b's view.
	sid, _ := a.SegAlloc("late", segBase(1), 1<<20, arch.PermRW)
	if err := a.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := b.VASSwitch(hb); err != nil {
		t.Fatal(err)
	}
	if err := b.Store64(segBase(1), 5); err != nil {
		t.Errorf("late-attached segment not visible: %v", err)
	}
}

func TestSegDetachVAS(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	vid, _ := th.VASCreate("v", 0o660)
	sid, _ := th.SegAlloc("s", segBase(0), 1<<20, arch.PermRW)
	if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	h, _ := th.VASAttach(vid)
	if err := th.SegDetachVAS(vid, sid); err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Load64(segBase(0)); err == nil {
		t.Error("detached segment still mapped")
	}
}

func TestOverlappingSegmentsRejected(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	vid, _ := th.VASCreate("v", 0o660)
	s1, _ := th.SegAlloc("s1", segBase(0), 1<<21, arch.PermRW)
	s2, _ := th.SegAlloc("s2", segBase(0)+1<<20, 1<<21, arch.PermRW)
	if err := th.SegAttachVAS(vid, s1, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := th.SegAttachVAS(vid, s2, arch.PermRW); !errors.Is(err, ErrLayout) {
		t.Errorf("overlapping attach: %v", err)
	}
}

func TestSegmentLayoutRules(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	// Below GlobalBase: collides with private ranges.
	if _, err := th.SegAlloc("low", 0x10000, 1<<20, arch.PermRW); !errors.Is(err, ErrLayout) {
		t.Errorf("low segment: %v", err)
	}
	if _, err := th.SegAlloc("dup", segBase(0), 1<<20, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := th.SegAlloc("dup", segBase(1), 1<<20, arch.PermRW); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate name: %v", err)
	}
}

func TestVASCtlTagging(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	// Two VASes over distinct segments; the thread ping-pongs between them.
	var vids [2]VASID
	var hs [2]Handle
	for i := 0; i < 2; i++ {
		vid, err := th.VASCreate(fmt.Sprintf("v%d", i), 0o660)
		if err != nil {
			t.Fatal(err)
		}
		sid, err := th.SegAlloc(fmt.Sprintf("s%d", i), segBase(i), 1<<20, arch.PermRW)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
			t.Fatal(err)
		}
		vids[i] = vid
		if hs[i], err = th.VASAttach(vid); err != nil {
			t.Fatal(err)
		}
	}
	pingPongMisses := func() uint64 {
		// Warm both, then measure a round trip.
		for _, i := range []int{0, 1, 0, 1} {
			if err := th.VASSwitch(hs[i]); err != nil {
				t.Fatal(err)
			}
			if _, err := th.Load64(segBase(i)); err != nil {
				t.Fatal(err)
			}
		}
		before := counted(th).TLBMisses
		for _, i := range []int{0, 1} {
			if err := th.VASSwitch(hs[i]); err != nil {
				t.Fatal(err)
			}
			if _, err := th.Load64(segBase(i)); err != nil {
				t.Fatal(err)
			}
		}
		return counted(th).TLBMisses - before
	}

	if m := pingPongMisses(); m == 0 {
		t.Error("untagged ping-pong retained translations")
	}
	for _, vid := range vids {
		if err := th.VASCtl(vid, SetTag()); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := sys.vas(vids[0])
	if v.Tag() == arch.ASIDFlush {
		t.Fatal("tag not assigned")
	}
	if m := pingPongMisses(); m != 0 {
		t.Errorf("tagged ping-pong missed %d times", m)
	}
	// Tag is sticky; clearing reverts to the flush tag.
	tag := v.Tag()
	if err := th.VASCtl(vids[0], SetTag()); err != nil {
		t.Fatal(err)
	}
	if v.Tag() != tag {
		t.Error("second CtlSetTag reassigned the tag")
	}
	if err := th.VASCtl(vids[0], ClearTag()); err != nil {
		t.Fatal(err)
	}
	if v.Tag() != arch.ASIDFlush {
		t.Error("CtlClearTag did not clear")
	}
}

func TestTaggedPrimaries(t *testing.T) {
	sys := testSystem(t)
	th := taggedThread(t, sys)
	vid, _ := th.VASCreate("v", 0o660)
	sid, _ := th.SegAlloc("s", segBase(0), 1<<20, arch.PermRW)
	if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := th.VASCtl(vid, SetTag()); err != nil {
		t.Fatal(err)
	}
	h, _ := th.VASAttach(vid)
	// Warm both directions of the primary <-> VAS round trip.
	for i := 0; i < 2; i++ {
		if err := th.VASSwitch(h); err != nil {
			t.Fatal(err)
		}
		if _, err := th.Load64(segBase(0)); err != nil {
			t.Fatal(err)
		}
		if err := th.VASSwitch(PrimaryHandle); err != nil {
			t.Fatal(err)
		}
		if _, err := th.Load64(GlobalsBase); err != nil {
			t.Fatal(err)
		}
	}
	before := counted(th).TLBMisses
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Load64(segBase(0)); err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Load64(GlobalsBase); err != nil {
		t.Fatal(err)
	}
	if m := counted(th).TLBMisses - before; m != 0 {
		t.Errorf("tagged primary round trip missed %d times", m)
	}
}

func TestCachedTranslationsAttach(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	vid, _ := th.VASCreate("v", 0o660)
	sid, _ := th.SegAlloc("s", segBase(2), 1<<20, arch.PermRW)
	if err := th.SegCtl(sid, CacheTranslations()); err != nil {
		t.Fatal(err)
	}
	if !mustSeg(t, sys, sid).HasCache() {
		t.Fatal("cache not built")
	}
	if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	h, _ := th.VASAttach(vid)
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	// Access works through the linked subtree with no page faults at all,
	// and the space's own page table sets no entry for it.
	faults, set := counted(th).Faults, th.Space().Table().Stats().EntriesSet
	if err := th.Store64(segBase(2)+64, 9); err != nil {
		t.Fatal(err)
	}
	if f := counted(th).Faults - faults; f != 0 {
		t.Errorf("faults through cached translations = %d", f)
	}
	if n := th.Space().Table().Stats().EntriesSet - set; n != 0 {
		t.Errorf("cached attach still set %d PTEs", n)
	}
}

func TestDetachWhileSwitchedInRejected(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	vid, _ := th.VASCreate("v", 0o660)
	h, _ := th.VASAttach(vid)
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	if err := th.VASDetach(h); !errors.Is(err, ErrBusy) {
		t.Errorf("detach while switched in: %v", err)
	}
	if err := th.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	if err := th.VASDetach(h); err != nil {
		t.Errorf("detach after leaving: %v", err)
	}
}

func TestVASClone(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	vid, _ := th.VASCreate("orig", 0o660)
	sid, _ := th.SegAlloc("s", segBase(0), 1<<20, arch.PermRW)
	if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	cid, err := th.VASClone(vid, "clone")
	if err != nil {
		t.Fatal(err)
	}
	// The clone shares the same segment: a write through it is visible in
	// the original.
	hc, _ := th.VASAttach(cid)
	if err := th.VASSwitch(hc); err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(segBase(0), 31337); err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	ho, _ := th.VASAttach(vid)
	if err := th.VASSwitch(ho); err != nil {
		t.Fatal(err)
	}
	if v, _ := th.Load64(segBase(0)); v != 31337 {
		t.Errorf("original sees %d", v)
	}
}

func TestSegClone(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	sid, _ := th.SegAlloc("src", segBase(0), 1<<16, arch.PermRW)
	// Write through a local attachment to the primary space.
	if err := th.SegAttachLocal(PrimaryHandle, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(segBase(0)+40, 777); err != nil {
		t.Fatal(err)
	}
	cid, err := th.SegClone(sid, "copy")
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the original; the clone must keep the old value.
	if err := th.Store64(segBase(0)+40, 888); err != nil {
		t.Fatal(err)
	}
	if err := th.SegDetachLocal(PrimaryHandle, sid); err != nil {
		t.Fatal(err)
	}
	if err := th.SegAttachLocal(PrimaryHandle, cid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if v, _ := th.Load64(segBase(0) + 40); v != 777 {
		t.Errorf("clone holds %d, want snapshot 777", v)
	}
}

func TestPersonalityDenial(t *testing.T) {
	sys := NewSystem(hw.NewMachine(hw.SmallTest()), testPersonality{denyVAS: true})
	_, th := spawn(t, sys)
	vid, err := th.VASCreate("v", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := th.VASAttach(vid); !errors.Is(err, ErrDenied) {
		t.Errorf("attach with denying personality: %v", err)
	}
}

func TestSwitchCostAccounting(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	vid, _ := th.VASCreate("v", 0o660)
	h, _ := th.VASAttach(vid)
	before := th.Core.Cycles()
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	got := th.Core.Cycles() - before
	want := uint64(100) + 50 + hw.DefaultCost.CR3Load // switch syscall + bookkeeping + CR3
	if got != want {
		t.Errorf("untagged switch cost = %d, want %d", got, want)
	}
	if err := th.VASCtl(vid, SetTag()); err != nil {
		t.Fatal(err)
	}
	before = th.Core.Cycles()
	if err := th.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	// The tagged inbound switch costs syscall + tagged bookkeeping + tagged CR3.
	taggedCost := uint64(100) + 25 + hw.DefaultCost.CR3LoadTagged
	untaggedCost := uint64(100) + 50 + hw.DefaultCost.CR3Load
	if got := th.Core.Cycles() - before; got != taggedCost+untaggedCost {
		t.Errorf("round trip cost = %d, want %d", got, taggedCost+untaggedCost)
	}
}

func TestSegFreeGuards(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	vid, _ := th.VASCreate("v", 0o660)
	sid, _ := th.SegAlloc("s", segBase(0), 1<<20, arch.PermRW)
	if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := th.SegFree(sid); !errors.Is(err, ErrBusy) {
		t.Errorf("freeing mapped segment: %v", err)
	}
	if err := th.SegDetachVAS(vid, sid); err != nil {
		t.Fatal(err)
	}
	if err := th.SegFree(sid); err != nil {
		t.Errorf("freeing unmapped segment: %v", err)
	}
	if _, err := th.SegFind("s"); !errors.Is(err, ErrNotFound) {
		t.Error("freed segment still findable")
	}
}

func TestVASDestroyGuards(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	vid, _ := th.VASCreate("v", 0o660)
	h, _ := th.VASAttach(vid)
	if err := th.VASDestroy(vid); !errors.Is(err, ErrBusy) {
		t.Errorf("destroying attached VAS: %v", err)
	}
	if err := th.VASDetach(h); err != nil {
		t.Fatal(err)
	}
	if err := th.VASDestroy(vid); err != nil {
		t.Errorf("destroy: %v", err)
	}
	if _, err := th.VASFind("v"); !errors.Is(err, ErrNotFound) {
		t.Error("destroyed VAS still findable")
	}
}

func TestManyAddressSpacesOneThread(t *testing.T) {
	// The GUPS pattern (§5.2): one thread cycling through many VASes, each
	// holding a window segment at the same virtual address.
	sys := testSystem(t)
	_, th := spawn(t, sys)
	const n = 8
	handles := make([]Handle, n)
	for i := 0; i < n; i++ {
		vid, err := th.VASCreate(fmt.Sprintf("win%d", i), 0o660)
		if err != nil {
			t.Fatal(err)
		}
		sid, err := th.SegAlloc(fmt.Sprintf("wseg%d", i), segBase(0), 1<<16, arch.PermRW)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
			t.Fatal(err)
		}
		if handles[i], err = th.VASAttach(vid); err != nil {
			t.Fatal(err)
		}
	}
	// Same VA, different VAS, different data.
	for i, h := range handles {
		if err := th.VASSwitch(h); err != nil {
			t.Fatal(err)
		}
		if err := th.Store64(segBase(0), uint64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range handles {
		if err := th.VASSwitch(h); err != nil {
			t.Fatal(err)
		}
		v, err := th.Load64(segBase(0))
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(1000+i) {
			t.Errorf("window %d holds %d", i, v)
		}
	}
	if sys.Switches() != 2*n {
		t.Errorf("switch count = %d, want %d", sys.Switches(), 2*n)
	}
}
