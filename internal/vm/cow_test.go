package vm

import (
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/hw"
	"spacejmp/internal/mem"
)

func TestObjectCloneCOWSharesFrames(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	src := NewObject(pm, "src", 4*arch.PageSize, mem.TierDRAM)
	defer src.Unref()
	if err := src.Populate(); err != nil {
		t.Fatal(err)
	}
	f1, _ := src.Frame(1)
	if err := pm.WriteAt(f1, []byte("original")); err != nil {
		t.Fatal(err)
	}
	clone := src.CloneCOW("clone")
	defer clone.Unref()
	cf, err := clone.Frame(1)
	if err != nil {
		t.Fatal(err)
	}
	if cf != f1 {
		t.Error("COW clone does not share the parent's frame")
	}
	if !clone.IsCOW(1) || src.IsCOW(1) {
		t.Error("IsCOW wrong")
	}
	if clone.Resident() != 0 {
		t.Errorf("clone resident = %d", clone.Resident())
	}
}

func TestBreakCOWCopiesContent(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	src := NewObject(pm, "src", 2*arch.PageSize, mem.TierDRAM)
	defer src.Unref()
	f0, _ := src.Frame(0)
	if err := pm.WriteAt(f0, []byte("shared content")); err != nil {
		t.Fatal(err)
	}
	clone := src.CloneCOW("clone")
	defer clone.Unref()
	own, err := clone.BreakCOW(0)
	if err != nil {
		t.Fatal(err)
	}
	if own == f0 {
		t.Fatal("BreakCOW did not allocate a private frame")
	}
	buf := make([]byte, 14)
	if err := pm.ReadAt(own, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "shared content" {
		t.Errorf("private copy holds %q", buf)
	}
	// Idempotent.
	again, err := clone.BreakCOW(0)
	if err != nil || again != own {
		t.Errorf("second BreakCOW: %v %v", again, err)
	}
	// Divergence: writes to the parent no longer reach the broken page.
	if err := pm.WriteAt(f0, []byte("parent-changed")); err != nil {
		t.Fatal(err)
	}
	if err := pm.ReadAt(own, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "shared content" {
		t.Error("broken page follows the parent")
	}
}

func TestCOWWriteFaultThroughMMU(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	src := NewObject(m.PM, "src", 4*arch.PageSize, mem.TierDRAM)
	defer src.Unref()
	if err := src.Populate(); err != nil {
		t.Fatal(err)
	}
	// Fill page 2 via a scratch mapping.
	f2, _ := src.Frame(2)
	if err := m.PM.Store64(f2+8, 4242); err != nil {
		t.Fatal(err)
	}
	clone := src.CloneCOW("clone")
	defer clone.Unref()

	space, err := NewSpace(m.PM)
	if err != nil {
		t.Fatal(err)
	}
	defer space.Destroy()
	sink := m.EnableStats(0)
	space.SetObserver(sink)
	base, err := space.Map(0x10000, 4*arch.PageSize, arch.PermRW, clone, 0, MapFixed)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Cores[0]
	c.LoadCR3(space.Table(), arch.ASIDFlush)
	c.OnFault = space.Handler()

	// Read first: demand-maps the COW page read-only; value is shared.
	va := base + 2*arch.PageSize + 8
	if v, err := c.Load64(va); err != nil || v != 4242 {
		t.Fatalf("COW read = %d, %v", v, err)
	}
	// Write: permission fault -> breakCOW -> retried store succeeds.
	if err := c.Store64(va, 5555); err != nil {
		t.Fatalf("COW write fault not resolved: %v", err)
	}
	if v, _ := c.Load64(va); v != 5555 {
		t.Errorf("read back %d", v)
	}
	// The source is untouched.
	if v, _ := m.PM.Load64(f2 + 8); v != 4242 {
		t.Errorf("source page modified: %d", v)
	}
	if n := sink.Snapshot().VM.COWBreaks; n != 1 {
		t.Errorf("COW breaks = %d", n)
	}
	// Subsequent writes to the same page do not fault again.
	faults := sink.Snapshot().VM.Faults
	if err := c.Store64(va+16, 1); err != nil {
		t.Fatal(err)
	}
	if sink.Snapshot().VM.Faults != faults {
		t.Error("write to broken page faulted again")
	}
}

func TestCOWWriteBeforeReadFaults(t *testing.T) {
	// A store to a never-touched COW page goes through the not-mapped
	// fault path and must land on a private frame directly.
	m := hw.NewMachine(hw.SmallTest())
	src := NewObject(m.PM, "src", arch.PageSize, mem.TierDRAM)
	defer src.Unref()
	f0, _ := src.Frame(0)
	if err := m.PM.Store64(f0, 7); err != nil {
		t.Fatal(err)
	}
	clone := src.CloneCOW("clone")
	defer clone.Unref()
	space, _ := NewSpace(m.PM)
	defer space.Destroy()
	base, err := space.Map(0x10000, arch.PageSize, arch.PermRW, clone, 0, MapFixed)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Cores[0]
	c.LoadCR3(space.Table(), arch.ASIDFlush)
	c.OnFault = space.Handler()
	if err := c.Store64(base, 9); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Load64(base + 8); v != 0 {
		t.Errorf("rest of COW page = %d, want copied source content 0", v)
	}
	if v, _ := m.PM.Load64(f0); v != 7 {
		t.Errorf("source modified: %d", v)
	}
	if v, _ := c.Load64(base); v != 9 {
		t.Errorf("written value = %d", v)
	}
}

func TestPopulateBreaksAllCOW(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	src := NewObject(pm, "src", 4*arch.PageSize, mem.TierDRAM)
	defer src.Unref()
	if err := src.Populate(); err != nil {
		t.Fatal(err)
	}
	clone := src.CloneCOW("clone")
	defer clone.Unref()
	if err := clone.Populate(); err != nil {
		t.Fatal(err)
	}
	if clone.Resident() != 4 {
		t.Errorf("populated clone resident = %d", clone.Resident())
	}
	for i := uint64(0); i < 4; i++ {
		if clone.IsCOW(i) {
			t.Errorf("page %d still COW after Populate", i)
		}
	}
}

func TestCOWChainAndRefcounts(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	base := pm.Stats().AllocatedBytes
	src := NewObject(pm, "src", 2*arch.PageSize, mem.TierDRAM)
	if err := src.Populate(); err != nil {
		t.Fatal(err)
	}
	c1 := src.CloneCOW("c1")
	c2 := c1.CloneCOW("c2") // grandchild chains through c1 to src
	f, err := c2.Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	sf, _ := src.Frame(0)
	if f != sf {
		t.Error("grandchild does not share the root frame")
	}
	// Dropping the user's refs in root-first order must keep parents
	// alive (children hold references) and free everything at the end.
	src.Unref()
	c1.Unref()
	if _, err := c2.Frame(1); err != nil {
		t.Errorf("chain broken after parent Unref: %v", err)
	}
	c2.Unref()
	if got := pm.Stats().AllocatedBytes; got != base {
		t.Errorf("leak: %d bytes", got-base)
	}
}

// TestFaultAllocations pins what a fault costs the host: a not-present read
// resolved by the handler allocates nothing, and a COW break allocates only
// the host backing of its new frame in mem. The break takes the path a fork
// sets off: a store through a read-only translation, with a second space's
// translation of the page to revoke.
func TestFaultAllocations(t *testing.T) {
	const pages = 64
	m := hw.NewMachine(hw.SmallTest())
	src := NewObject(m.PM, "src", pages*arch.PageSize, mem.TierDRAM)
	defer src.Unref()
	if err := src.Populate(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < pages; i++ {
		pa, _ := src.Frame(i)
		if err := m.PM.Store64(pa, i+1); err != nil {
			t.Fatal(err)
		}
	}
	clone := src.CloneCOW("clone")
	defer clone.Unref()
	const base = arch.VirtAddr(0x10000)
	var spaces [2]*Space
	for i := range spaces {
		s, err := NewSpace(m.PM)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Destroy()
		if _, err := s.Map(base, clone.Size, arch.PermRW, clone, 0, MapFixed); err != nil {
			t.Fatal(err)
		}
		spaces[i] = s
	}
	c := m.Cores[0]
	c.OnFault = spaces[0].Handler()
	c.LoadCR3(spaces[0].Table(), arch.ASIDFlush)

	next := 0
	read := func() {
		va := base + arch.VirtAddr(next*arch.PageSize)
		if v, err := c.Load64(va); err != nil || v != uint64(next+1) {
			t.Fatalf("read fault at %v = %d, %v", va, v, err)
		}
		if err := spaces[1].HandleFault(va, arch.AccessRead); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if n := testing.AllocsPerRun(pages/2-1, read); n != 0 {
		t.Errorf("a not-present read fault allocates %.1f times, want 0", n)
	}
	for next < pages {
		read()
	}

	next = 0
	if n := testing.AllocsPerRun(pages/2-1, func() {
		va := base + arch.VirtAddr(next*arch.PageSize)
		if err := c.Store64(va, 7); err != nil {
			t.Fatalf("COW break at %v: %v", va, err)
		}
		next++
	}); n != 1 {
		t.Errorf("a COW break allocates %.1f times, want 1 (the new frame's host backing)", n)
	}
}
