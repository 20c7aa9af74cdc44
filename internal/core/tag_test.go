package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"spacejmp/internal/arch"
)

// taggedThread spawns a process with a tagged primary, so switching back to
// it flushes nothing and what a VAS left in the TLB stays there.
func taggedThread(t *testing.T, sys *System) *Thread {
	t.Helper()
	p, err := sys.NewTaggedProcess(Creds{UID: 1000, GID: 1000})
	if err != nil {
		t.Fatal(err)
	}
	th, err := p.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// markedSeg allocates a one-page segment at va whose first word is mark.
func markedSeg(t *testing.T, th *Thread, name string, va arch.VirtAddr, mark uint64) SegID {
	t.Helper()
	sid, err := th.SegAlloc(name, va, arch.PageSize, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := mustSeg(t, th.Proc.sys, sid).Obj.Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Proc.sys.M.PM.WriteAt(pa, binary.LittleEndian.AppendUint64(nil, mark)); err != nil {
		t.Fatal(err)
	}
	return sid
}

// readIn switches th into handle h, reads the word at va and switches back.
func readIn(t *testing.T, th *Thread, h Handle, va arch.VirtAddr) uint64 {
	t.Helper()
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	got, err := th.Load64(va)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	return got
}

// The pool hands out every tag from 1 to MaxASID, in counter order while
// none is released, refuses the next, and hands a released one out again.
func TestTagPoolHandsOutEveryTag(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	tag := func(vid VASID) error { return th.VASCtl(vid, SetTag()) }
	vids := make([]VASID, arch.MaxASID)
	for i := range vids {
		vid, err := th.VASCreate(fmt.Sprintf("v%d", i), 0o660)
		if err != nil {
			t.Fatal(err)
		}
		if err := tag(vid); err != nil {
			t.Fatalf("tag %d: %v", i+1, err)
		}
		if v, _ := sys.vas(vid); v.Tag() != arch.ASID(i+1) {
			t.Fatalf("VAS %d got tag %d, want %d", i, v.Tag(), i+1)
		}
		vids[i] = vid
	}
	if n := sys.TagsInUse(); n != int(arch.MaxASID) {
		t.Fatalf("%d tags in use, want %d", n, arch.MaxASID)
	}
	extra, err := th.VASCreate("extra", 0o660)
	if err != nil {
		t.Fatal(err)
	}
	if err := tag(extra); !errors.Is(err, ErrBusy) {
		t.Fatalf("tag %d of %d: %v, want ErrBusy", arch.MaxASID+1, arch.MaxASID, err)
	}
	for _, free := range []func() error{
		func() error { return th.VASDestroy(vids[99]) },
		func() error { return th.VASCtl(vids[arch.MaxASID-1], ClearTag()) },
	} {
		if err := free(); err != nil {
			t.Fatal(err)
		}
		if err := tag(extra); err != nil {
			t.Fatalf("after a release: %v", err)
		}
		if err := th.VASCtl(extra, ClearTag()); err != nil {
			t.Fatal(err)
		}
	}
	if n := sys.TagsInUse(); n != int(arch.MaxASID)-2 {
		t.Fatalf("%d tags in use after two releases, want %d", n, arch.MaxASID-2)
	}
	p, err := sys.NewTaggedProcess(Creds{UID: 1000, GID: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if p.primaryTag != 100 {
		t.Fatalf("primary took tag %d, want the lowest free, 100", p.primaryTag)
	}
	p.Exit()
	if n := sys.TagsInUse(); n != int(arch.MaxASID)-2 {
		t.Fatalf("%d tags in use after the process exited, want %d", n, arch.MaxASID-2)
	}
}

// Tags are reused over and over: 2 × MaxASID cycles of create, tag, attach,
// switch, read, detach and destroy, spread over four cores, each VAS mapping
// one of eight segments that put different frames at the same VA. Every read
// must see the segment of the VAS it is switched into. Odd cycles clear the
// tag while attached, so their detach leaves the VAS's translations in the
// TLB: the pool's flush before it hands the tag out again is all that keeps
// the next holder from them.
func TestReusedTagsIsolate(t *testing.T) {
	sys := testSystem(t)
	ths := make([]*Thread, len(sys.M.Cores))
	for i := range ths {
		ths[i] = taggedThread(t, sys)
	}
	const segs = 8
	va := segBase(0)
	sids := make([]SegID, segs)
	for i := range sids {
		sids[i] = markedSeg(t, ths[0], fmt.Sprintf("s%d", i), va, uint64(1000+i))
	}
	for i := 0; i < 2*int(arch.MaxASID); i++ {
		th, want := ths[i%len(ths)], i%segs
		vid, err := th.VASCreate(fmt.Sprintf("v%d", i), 0o660)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.SegAttachVAS(vid, sids[want], arch.PermRW); err != nil {
			t.Fatal(err)
		}
		if err := th.VASCtl(vid, SetTag()); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		h, err := th.VASAttach(vid)
		if err != nil {
			t.Fatal(err)
		}
		if got := readIn(t, th, h, va); got != uint64(1000+want) {
			v, _ := sys.vas(vid)
			t.Fatalf("cycle %d on core %d under tag %d read %d, want %d", i, th.Core.ID, v.Tag(), got, 1000+want)
		}
		if i%2 == 1 {
			if err := th.VASCtl(vid, ClearTag()); err != nil {
				t.Fatal(err)
			}
		}
		if err := th.VASDetach(h); err != nil {
			t.Fatal(err)
		}
		if err := th.VASDestroy(vid); err != nil {
			t.Fatal(err)
		}
	}
	if n := sys.TagsInUse(); n != len(ths) {
		t.Fatalf("%d tags in use after the cycles, want the %d primaries'", n, len(ths))
	}
}

// A VAS keeps its tag across attachments, but not what an earlier one
// cached: after a detach, a segment swapped in at the same VA while nothing
// was attached (so no shootdown ran) must be what the next attachment reads.
func TestReattachUnderTagSeesTheVASAsItIsNow(t *testing.T) {
	sys := testSystem(t)
	th := taggedThread(t, sys)
	va := segBase(0)
	a, b := markedSeg(t, th, "a", va, 1), markedSeg(t, th, "b", va, 2)
	vid, err := th.VASCreate("v", 0o660)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SegAttachVAS(vid, a, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := th.VASCtl(vid, SetTag()); err != nil {
		t.Fatal(err)
	}
	h, err := th.VASAttach(vid)
	if err != nil {
		t.Fatal(err)
	}
	if got := readIn(t, th, h, va); got != 1 {
		t.Fatalf("first attachment read %d, want 1", got)
	}
	if err := th.VASDetach(h); err != nil {
		t.Fatal(err)
	}
	if err := th.SegDetachVAS(vid, a); err != nil {
		t.Fatal(err)
	}
	if err := th.SegAttachVAS(vid, b, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if h, err = th.VASAttach(vid); err != nil {
		t.Fatal(err)
	}
	if got := readIn(t, th, h, va); got != 2 {
		t.Fatalf("second attachment read %d, want 2", got)
	}
}

// A VAS's tag is shared by every process attached to it, and a core outlives
// the process that ran on it: the next process on the core must not read
// the previous one's private mapping through the shared tag.
func TestNextProcessUnderTagSeesItsOwnPages(t *testing.T) {
	sys := testSystem(t)
	admin := taggedThread(t, sys)
	shared := markedSeg(t, admin, "shared", segBase(0), 7)
	vid, err := admin.VASCreate("v", 0o660)
	if err != nil {
		t.Fatal(err)
	}
	if err := admin.SegAttachVAS(vid, shared, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := admin.VASCtl(vid, SetTag()); err != nil {
		t.Fatal(err)
	}
	core := -1
	for i := uint64(1); i <= 2; i++ {
		th := taggedThread(t, sys)
		if core >= 0 && th.Core.ID != core {
			t.Fatalf("second process on core %d, want the first's, %d", th.Core.ID, core)
		}
		core = th.Core.ID
		own := markedSeg(t, th, fmt.Sprintf("own%d", i), segBase(1), i)
		h, err := th.VASAttach(vid)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.SegAttachLocal(h, own, arch.PermRW); err != nil {
			t.Fatal(err)
		}
		if got := readIn(t, th, h, segBase(1)); got != i {
			t.Fatalf("process %d read %d from its own segment, want %d", i, got, i)
		}
		th.Proc.Exit()
	}
}
