package vm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"spacejmp/internal/arch"
	"spacejmp/internal/hw"
	"spacejmp/internal/mem"
)

func testSpace(t *testing.T) (*Space, *mem.PhysMem) {
	t.Helper()
	pm := mem.New(mem.Config{DRAMSize: 256 << 20, NVMSize: 32 << 20})
	s, err := NewSpace(pm)
	if err != nil {
		t.Fatal(err)
	}
	return s, pm
}

func TestObjectLazyBacking(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	o := NewObject(pm, "o", 10*arch.PageSize, mem.TierDRAM)
	if o.Resident() != 0 {
		t.Error("fresh object has resident pages")
	}
	f1, err := o.Frame(3)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := o.Frame(3)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("Frame not stable across calls")
	}
	if o.Resident() != 1 {
		t.Errorf("resident = %d", o.Resident())
	}
	if _, err := o.Frame(10); err == nil {
		t.Error("out-of-range page accepted")
	}
}

func TestObjectRefCounting(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	o := NewObject(pm, "o", 4*arch.PageSize, mem.TierDRAM)
	if err := o.Populate(); err != nil {
		t.Fatal(err)
	}
	o.Ref()
	o.Unref()
	if pm.Stats().AllocatedBytes != 4*arch.PageSize {
		t.Error("frames freed while references remain")
	}
	o.Unref()
	if pm.Stats().AllocatedBytes != 0 {
		t.Error("frames leaked after last Unref")
	}
}

func TestObjectNVMTier(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20, NVMSize: 64 << 20})
	o := NewObject(pm, "persistent", arch.PageSize, mem.TierNVM)
	pa, err := o.Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	if pm.TierOf(pa) != mem.TierNVM {
		t.Error("NVM object backed by DRAM frame")
	}
	o.Unref()
}

func TestMapFixedAndPopulate(t *testing.T) {
	s, _ := testSpace(t)
	base, err := s.MapAnon(0x10000, 4*arch.PageSize, arch.PermRW, MapFixed|MapPopulate)
	if err != nil {
		t.Fatal(err)
	}
	if base != 0x10000 {
		t.Errorf("base = %v", base)
	}
	for off := uint64(0); off < 4*arch.PageSize; off += arch.PageSize {
		if _, err := s.Table().Walk(base + arch.VirtAddr(off)); err != nil {
			t.Errorf("page +%#x not populated: %v", off, err)
		}
	}
}

func TestMapFixedOverlapRejected(t *testing.T) {
	s, _ := testSpace(t)
	if _, err := s.MapAnon(0x10000, 4*arch.PageSize, arch.PermRW, MapFixed); err != nil {
		t.Fatal(err)
	}
	_, err := s.MapAnon(0x12000, 4*arch.PageSize, arch.PermRW, MapFixed)
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlapping fixed map: %v", err)
	}
}

func TestMapHintPlacement(t *testing.T) {
	s, _ := testSpace(t)
	a, err := s.MapAnon(0, 2*arch.PageSize, arch.PermRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.MapAnon(0, 2*arch.PageSize, arch.PermRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("hint mapping reused an occupied range")
	}
	if b < a+2*arch.PageSize && a < b+2*arch.PageSize {
		t.Errorf("regions overlap: %v %v", a, b)
	}
}

func TestSharedObjectTwoSpaces(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 256 << 20})
	obj := NewObject(pm, "shared", 2*arch.PageSize, mem.TierDRAM)
	defer obj.Unref()
	s1, err := NewSpace(pm)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSpace(pm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Map(0x10000, 2*arch.PageSize, arch.PermRW, obj, 0, MapFixed|MapPopulate); err != nil {
		t.Fatal(err)
	}
	// Map the same object at a different address in s2.
	if _, err := s2.Map(0x50000, 2*arch.PageSize, arch.PermRW, obj, 0, MapFixed|MapPopulate); err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Table().Walk(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Table().Walk(0x50000)
	if err != nil {
		t.Fatal(err)
	}
	if r1.PA != r2.PA {
		t.Error("shared object pages differ between spaces")
	}
}

func TestDemandPaging(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 256 << 20})
	m := hw.NewMachine(hw.SmallTest())
	_ = pm
	s, err := NewSpace(m.PM)
	if err != nil {
		t.Fatal(err)
	}
	sink := m.EnableStats(0)
	s.SetObserver(sink)
	base, err := s.MapAnon(0x10000, 16*arch.PageSize, arch.PermRW, MapFixed)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Cores[0]
	c.LoadCR3(s.Table(), arch.ASIDFlush)
	c.OnFault = s.Handler()
	if err := c.Store64(base+8, 77); err != nil {
		t.Fatalf("demand-paged store: %v", err)
	}
	v, err := c.Load64(base + 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 77 {
		t.Errorf("load = %d", v)
	}
	if n := sink.Snapshot().VM.Faults; n != 1 {
		t.Errorf("faults = %d, want 1", n)
	}
	// Only the touched page became resident.
	if got := s.Regions()[0].Obj.Resident(); got != 1 {
		t.Errorf("resident pages = %d, want 1", got)
	}
}

func TestFaultOutsideRegions(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	s, _ := NewSpace(m.PM)
	c := m.Cores[0]
	c.LoadCR3(s.Table(), arch.ASIDFlush)
	c.OnFault = s.Handler()
	if err := c.Store64(0xDEAD000, 1); err == nil || !strings.Contains(err.Error(), "segmentation") {
		t.Errorf("stray store: %v", err)
	}
}

func TestProtectionFaultNotRetriedForever(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	s, _ := NewSpace(m.PM)
	base, err := s.MapAnon(0x10000, arch.PageSize, arch.PermRead, MapFixed|MapPopulate)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Cores[0]
	c.LoadCR3(s.Table(), arch.ASIDFlush)
	c.OnFault = s.Handler()
	if err := c.Store64(base, 1); err == nil {
		t.Error("store to read-only region succeeded")
	}
}

func TestUnmapWhole(t *testing.T) {
	s, pm := testSpace(t)
	before := pm.Stats().AllocatedBytes
	base, err := s.MapAnon(0x10000, 4*arch.PageSize, arch.PermRW, MapFixed|MapPopulate)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Unmap(base, 4*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if len(s.Regions()) != 0 {
		t.Error("region survived unmap")
	}
	if _, err := s.Table().Walk(base); err == nil {
		t.Error("translation survived unmap")
	}
	// Anonymous object frames are released (page-table nodes may remain
	// until Destroy, so compare object memory via a fresh map/unmap).
	got := pm.Stats().AllocatedBytes - before
	if got > 16*arch.PageSize { // generous bound: only PT nodes remain
		t.Errorf("object frames leaked: %d bytes above baseline", got)
	}
}

func TestUnmapSplitsRegion(t *testing.T) {
	s, _ := testSpace(t)
	base, err := s.MapAnon(0x10000, 6*arch.PageSize, arch.PermRW, MapFixed|MapPopulate)
	if err != nil {
		t.Fatal(err)
	}
	// Punch a 2-page hole in the middle.
	if err := s.Unmap(base+2*arch.PageSize, 2*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	regs := s.Regions()
	if len(regs) != 2 {
		t.Fatalf("regions after split = %d, want 2", len(regs))
	}
	if regs[0].Start != base || regs[0].Size != 2*arch.PageSize {
		t.Errorf("head region = %+v", regs[0])
	}
	if regs[1].Start != base+4*arch.PageSize || regs[1].Size != 2*arch.PageSize {
		t.Errorf("tail region = %+v", regs[1])
	}
	// Tail still translates and refers to the right object page.
	r, err := s.Table().Walk(base + 4*arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := regs[1].Obj.Frame(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.PA != f4 {
		t.Error("tail region lost its object offset")
	}
	if _, err := s.Table().Walk(base + 2*arch.PageSize); err == nil {
		t.Error("hole still mapped")
	}
}

func TestProtectSplitsAndUpdates(t *testing.T) {
	s, _ := testSpace(t)
	base, err := s.MapAnon(0x10000, 3*arch.PageSize, arch.PermRW, MapFixed|MapPopulate)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Protect(base+arch.PageSize, arch.PageSize, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	regs := s.Regions()
	if len(regs) != 3 {
		t.Fatalf("regions = %d, want 3", len(regs))
	}
	if regs[1].Perm != arch.PermRead {
		t.Errorf("middle perm = %v", regs[1].Perm)
	}
	r, err := s.Table().Walk(base + arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if r.Perm != arch.PermRead {
		t.Errorf("translation perm = %v", r.Perm)
	}
	r, err = s.Table().Walk(base)
	if err != nil {
		t.Fatal(err)
	}
	if r.Perm != arch.PermRW {
		t.Errorf("head translation perm changed: %v", r.Perm)
	}
}

func TestDestroyReleasesEverything(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	before := pm.Stats().AllocatedBytes
	s, err := NewSpace(pm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MapAnon(0x10000, 8*arch.PageSize, arch.PermRW, MapFixed|MapPopulate); err != nil {
		t.Fatal(err)
	}
	s.Destroy()
	if after := pm.Stats().AllocatedBytes; after != before {
		t.Errorf("leak: %d bytes", after-before)
	}
}

// Property: random map/unmap sequences keep the region list sorted and
// non-overlapping, and every address inside a region translates after a
// fault while addresses outside all regions never do.
func TestPropertyRegionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pm := mem.New(mem.Config{DRAMSize: 128 << 20})
		s, err := NewSpace(pm)
		if err != nil {
			return false
		}
		for i := 0; i < 40; i++ {
			va := arch.VirtAddr(0x10000 + uint64(rng.Intn(64))*arch.PageSize)
			pages := uint64(rng.Intn(6) + 1)
			if rng.Intn(3) > 0 {
				_, _ = s.MapAnon(va, pages*arch.PageSize, arch.PermRW, MapFixed|MapPopulate)
			} else {
				_ = s.Unmap(va, pages*arch.PageSize)
			}
			regs := s.Regions()
			for j := 0; j < len(regs); j++ {
				if j > 0 && regs[j-1].End() > regs[j].Start {
					return false
				}
				if regs[j].Size == 0 {
					return false
				}
			}
		}
		// Every mapped page translates; a page just outside must not.
		for _, r := range s.Regions() {
			if _, err := s.Table().Walk(r.Start); err != nil {
				if s.HandleFault(r.Start, arch.AccessRead) != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
