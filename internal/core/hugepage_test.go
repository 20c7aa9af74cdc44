package core

import (
	"errors"
	"testing"

	"spacejmp/internal/arch"
)

func TestHugePageSegment(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	vid, _ := th.VASCreate("huge.vas", 0o660)
	sid, err := th.SegAlloc("huge.seg", segBase(0), 8<<20, arch.PermRW, WithPageSize(arch.HugePageSize))
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	h, _ := th.VASAttach(vid)
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	// Store/load across the segment.
	for off := uint64(0); off < 8<<20; off += arch.HugePageSize {
		if err := th.Store64(segBase(0)+arch.VirtAddr(off)+8, off); err != nil {
			t.Fatalf("store at +%#x: %v", off, err)
		}
	}
	for off := uint64(0); off < 8<<20; off += arch.HugePageSize {
		if v, _ := th.Load64(segBase(0) + arch.VirtAddr(off) + 8); v != off {
			t.Errorf("+%#x = %d", off, v)
		}
	}
	// The mapping really is 2 MiB: the leaf walk resolves with 3 refs and
	// reports the huge page size.
	r, err := th.Space().Table().Walk(segBase(0))
	if err != nil {
		t.Fatal(err)
	}
	if r.PageSize != arch.HugePageSize || r.Refs != 3 {
		t.Errorf("walk = pagesize %d refs %d, want 2 MiB / 3 refs", r.PageSize, r.Refs)
	}
}

func TestHugeSegmentTLBReach(t *testing.T) {
	// 8 MiB with 2 MiB pages needs just 4 TLB entries: after the warm
	// pass, a sweep is all hits. With 4 KiB pages the same sweep would
	// need 2048 entries (beyond the test TLB's 64).
	sys := testSystem(t)
	_, th := spawn(t, sys)
	vid, _ := th.VASCreate("reach.vas", 0o660)
	sid, err := th.SegAlloc("reach.seg", segBase(0), 8<<20, arch.PermRW, WithPageSize(arch.HugePageSize))
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	h, _ := th.VASAttach(vid)
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		for off := uint64(0); off < 8<<20; off += arch.PageSize * 16 {
			if _, err := th.Load64(segBase(0) + arch.VirtAddr(off)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep()
	before := counted(th).TLBMisses
	sweep()
	if m := counted(th).TLBMisses - before; m != 0 {
		t.Errorf("huge-page sweep missed %d times after warmup", m)
	}
}

func TestHugeSegmentAlignmentRules(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	// Base not 2 MiB aligned.
	if _, err := th.SegAlloc("bad.base", segBase(0)+arch.PageSize, 4<<20, arch.PermRW, WithPageSize(arch.HugePageSize)); !errors.Is(err, ErrLayout) {
		t.Errorf("misaligned huge base: %v", err)
	}
	// Bogus page size.
	if _, err := th.SegAlloc("bad.ps", segBase(0), 4<<20, arch.PermRW, WithPageSize(8192)); !errors.Is(err, ErrLayout) {
		t.Errorf("bogus page size: %v", err)
	}
	// Size rounds up to whole huge pages.
	sid, err := th.SegAlloc("round", segBase(0), 3<<20, arch.PermRW, WithPageSize(arch.HugePageSize))
	if err != nil {
		t.Fatal(err)
	}
	seg := mustSeg(t, sys, sid)
	if seg.Size != 4<<20 {
		t.Errorf("size = %d, want rounded 4 MiB", seg.Size)
	}
}

func TestHugeSegmentCloneAndCache(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	sid, err := th.SegAlloc("hc.seg", segBase(0), 4<<20, arch.PermRW, WithPageSize(arch.HugePageSize))
	if err != nil {
		t.Fatal(err)
	}
	// Translation caching works at huge granularity.
	if err := th.SegCtl(sid, CacheTranslations()); err != nil {
		t.Fatal(err)
	}
	// Write through a local mapping, clone, verify the copy.
	if err := th.SegAttachLocal(PrimaryHandle, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(segBase(0)+arch.HugePageSize+128, 777); err != nil {
		t.Fatal(err)
	}
	cid, err := th.SegClone(sid, "hc.copy")
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SegDetachLocal(PrimaryHandle, sid); err != nil {
		t.Fatal(err)
	}
	if err := th.SegAttachLocal(PrimaryHandle, cid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if v, _ := th.Load64(segBase(0) + arch.HugePageSize + 128); v != 777 {
		t.Errorf("huge clone holds %d", v)
	}
}
