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
