package hw

import (
	"errors"
	"runtime"
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/pt"
)

func testMachine(t *testing.T) *Machine {
	t.Helper()
	return NewMachine(SmallTest())
}

func mapped(t *testing.T, m *Machine, va arch.VirtAddr, perm arch.Perm) *pt.Table {
	t.Helper()
	tbl, err := pt.New(m.PM)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := m.PM.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.MapPage(va, frame, arch.PageSize, perm, false); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestMachineTopology(t *testing.T) {
	m := testMachine(t)
	if len(m.Cores) != 4 {
		t.Fatalf("cores = %d", len(m.Cores))
	}
	if !m.SameSocket(0, 1) || m.SameSocket(0, 2) {
		t.Error("socket layout wrong")
	}
}

func TestTable1Configs(t *testing.T) {
	for _, cfg := range []MachineConfig{M1(), M2(), M3()} {
		m := NewMachine(cfg)
		if len(m.Cores) != cfg.Sockets*cfg.CoresPerSocket {
			t.Errorf("%s: cores = %d", cfg.Name, len(m.Cores))
		}
		if m.PM.Size() != cfg.Mem.DRAMSize {
			t.Errorf("%s: memory = %d", cfg.Name, m.PM.Size())
		}
	}
	// Spot-check Table 1 figures.
	if M3().CoresPerSocket != 18 || M3().GHz != 2.30 || M3().Mem.DRAMSize != 512<<30 {
		t.Error("M3 does not match Table 1")
	}
}

// TestBootingM3StaysSparse: M3 has 128 Mi frames. Booting it must cost the
// host what the cores and TLBs cost, not a table with a slot per frame (a
// pointer per frame alone would be 1 GiB).
func TestBootingM3StaysSparse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMachine(M3())
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("NewMachine(M3) allocated %d bytes, want under 4 MiB", got)
	}
	// The far end of the address space works without having paid for the rest.
	top := arch.PhysAddr(m.PM.Size() - 8)
	if err := m.PM.Store64(top, 7); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.PM.Load64(top); v != 7 {
		t.Errorf("top of memory reads %d", v)
	}
}

func TestLoadStoreThroughMMU(t *testing.T) {
	m := testMachine(t)
	c := m.Cores[0]
	tbl := mapped(t, m, 0x4000, arch.PermRW)
	c.LoadCR3(tbl, arch.ASIDFlush)
	if err := c.Store64(0x4008, 0xFEEDFACE); err != nil {
		t.Fatal(err)
	}
	v, err := c.Load64(0x4008)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xFEEDFACE {
		t.Errorf("Load64 = %#x", v)
	}
}

func TestTLBFillOnMiss(t *testing.T) {
	m := testMachine(t)
	c := m.Cores[0]
	tbl := mapped(t, m, 0x4000, arch.PermRW)
	c.LoadCR3(tbl, arch.ASIDFlush)
	c.ResetStats()
	if _, err := c.Load64(0x4000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load64(0x4010); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.TLBMisses != 1 || s.TLBHits != 1 {
		t.Errorf("misses=%d hits=%d, want 1/1", s.TLBMisses, s.TLBHits)
	}
}

func TestCR3FlushSemantics(t *testing.T) {
	m := testMachine(t)
	c := m.Cores[0]
	tbl := mapped(t, m, 0x4000, arch.PermRW)
	c.LoadCR3(tbl, arch.ASIDFlush)
	if _, err := c.Load64(0x4000); err != nil {
		t.Fatal(err)
	}
	// Untagged reload flushes: next access misses again.
	c.LoadCR3(tbl, arch.ASIDFlush)
	c.ResetStats()
	if _, err := c.Load64(0x4000); err != nil {
		t.Fatal(err)
	}
	if c.Stats().TLBMisses != 1 {
		t.Error("untagged CR3 load did not flush the TLB")
	}
	// Tagged reload retains: access hits.
	c.LoadCR3(tbl, 5)
	if _, err := c.Load64(0x4000); err != nil {
		t.Fatal(err)
	}
	c.LoadCR3(tbl, 5)
	c.ResetStats()
	if _, err := c.Load64(0x4000); err != nil {
		t.Fatal(err)
	}
	if c.Stats().TLBMisses != 0 {
		t.Error("tagged CR3 load flushed the TLB")
	}
}

func TestCR3LoadCosts(t *testing.T) {
	m := testMachine(t)
	c := m.Cores[0]
	tbl := mapped(t, m, 0x4000, arch.PermRW)
	before := c.Cycles()
	c.LoadCR3(tbl, arch.ASIDFlush)
	if got := c.Cycles() - before; got != DefaultCost.CR3Load {
		t.Errorf("untagged CR3 load cost = %d, want %d", got, DefaultCost.CR3Load)
	}
	before = c.Cycles()
	c.LoadCR3(tbl, 1)
	if got := c.Cycles() - before; got != DefaultCost.CR3LoadTagged {
		t.Errorf("tagged CR3 load cost = %d, want %d", got, DefaultCost.CR3LoadTagged)
	}
}

func TestPermissionFault(t *testing.T) {
	m := testMachine(t)
	c := m.Cores[0]
	tbl := mapped(t, m, 0x4000, arch.PermRead)
	c.LoadCR3(tbl, arch.ASIDFlush)
	err := c.Store64(0x4000, 1)
	var f *PageFault
	if !errors.As(err, &f) {
		t.Fatalf("want PageFault, got %v", err)
	}
	if f.Access != arch.AccessWrite || f.VA != 0x4000 {
		t.Errorf("fault = %+v", f)
	}
	// TLB-resident translations must also enforce permissions.
	if _, err := c.Load64(0x4000); err != nil {
		t.Fatal(err)
	}
	if err := c.Store64(0x4000, 1); err == nil {
		t.Error("write through read-only TLB entry allowed")
	}
}

func TestFaultHandlerRetries(t *testing.T) {
	m := testMachine(t)
	c := m.Cores[0]
	tbl, err := pt.New(m.PM)
	if err != nil {
		t.Fatal(err)
	}
	c.LoadCR3(tbl, arch.ASIDFlush)
	calls := 0
	c.OnFault = func(core *Core, f *PageFault) error {
		calls++
		frame, err := m.PM.AllocPage()
		if err != nil {
			return err
		}
		return tbl.MapPage(arch.AlignDown(f.VA, arch.PageSize), frame, arch.PageSize, arch.PermRW, false)
	}
	if err := c.Store64(0x8000, 42); err != nil {
		t.Fatalf("demand paging failed: %v", err)
	}
	if calls != 1 {
		t.Errorf("fault handler calls = %d", calls)
	}
	if c.Stats().Faults != 1 {
		t.Errorf("fault count = %d", c.Stats().Faults)
	}
}

func TestFaultWithoutHandlerFails(t *testing.T) {
	m := testMachine(t)
	c := m.Cores[0]
	tbl, _ := pt.New(m.PM)
	c.LoadCR3(tbl, arch.ASIDFlush)
	var f *PageFault
	if err := c.Store64(0x8000, 42); !errors.As(err, &f) {
		t.Fatalf("want PageFault, got %v", err)
	}
}

func TestReadWriteSpansPages(t *testing.T) {
	m := testMachine(t)
	c := m.Cores[0]
	tbl, _ := pt.New(m.PM)
	f1, _ := m.PM.AllocPage()
	f2, _ := m.PM.AllocPage()
	if err := tbl.MapPage(0x1000, f1, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MapPage(0x2000, f2, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	c.LoadCR3(tbl, arch.ASIDFlush)
	msg := []byte("crossing the page boundary, virtually")
	if err := c.Write(0x1ff0, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := c.Read(0x1ff0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Errorf("read back %q", got)
	}
	// Verify the bytes really landed in the two distinct frames.
	var head [16]byte
	if err := m.PM.ReadAt(f1+0xff0, head[:]); err != nil {
		t.Fatal(err)
	}
	if string(head[:]) != string(msg[:16]) {
		t.Errorf("first frame holds %q", head)
	}
}

func TestSwitchingIsolatesAddressSpaces(t *testing.T) {
	// The essence of SpaceJMP: the same virtual address resolves to
	// different data after a CR3 switch.
	m := testMachine(t)
	c := m.Cores[0]
	va := arch.VirtAddr(0xC0DE000)
	t1 := mapped(t, m, va, arch.PermRW)
	t2 := mapped(t, m, va, arch.PermRW)

	c.LoadCR3(t1, arch.ASIDFlush)
	if err := c.Store64(va, 111); err != nil {
		t.Fatal(err)
	}
	c.LoadCR3(t2, arch.ASIDFlush)
	if err := c.Store64(va, 222); err != nil {
		t.Fatal(err)
	}
	c.LoadCR3(t1, arch.ASIDFlush)
	v, err := c.Load64(va)
	if err != nil {
		t.Fatal(err)
	}
	if v != 111 {
		t.Errorf("VAS 1 sees %d at %v, want 111", v, va)
	}
}

func TestTaggedSwitchingKeepsBothTranslations(t *testing.T) {
	m := testMachine(t)
	c := m.Cores[0]
	va := arch.VirtAddr(0xC0DE000)
	t1 := mapped(t, m, va, arch.PermRW)
	t2 := mapped(t, m, va, arch.PermRW)
	c.LoadCR3(t1, 1)
	if _, err := c.Load64(va); err != nil {
		t.Fatal(err)
	}
	c.LoadCR3(t2, 2)
	if _, err := c.Load64(va); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	c.LoadCR3(t1, 1)
	if _, err := c.Load64(va); err != nil {
		t.Fatal(err)
	}
	c.LoadCR3(t2, 2)
	if _, err := c.Load64(va); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.TLBMisses != 0 {
		t.Errorf("tagged ping-pong missed %d times", s.TLBMisses)
	}
}

func TestCyclesToNs(t *testing.T) {
	m := NewMachine(M2()) // 2.5 GHz
	if got := m.CyclesToNs(2500); got != 1000 {
		t.Errorf("2500 cycles at 2.5GHz = %v ns, want 1000", got)
	}
}

func TestGlobalEntriesSurviveUntaggedSwitch(t *testing.T) {
	m := testMachine(t)
	c := m.Cores[0]
	tbl, _ := pt.New(m.PM)
	frame, _ := m.PM.AllocPage()
	if err := tbl.MapPage(0x4000, frame, arch.PageSize, arch.PermRead, true); err != nil {
		t.Fatal(err)
	}
	c.LoadCR3(tbl, arch.ASIDFlush)
	if _, err := c.Load64(0x4000); err != nil {
		t.Fatal(err)
	}
	c.LoadCR3(tbl, arch.ASIDFlush) // flush
	c.ResetStats()
	if _, err := c.Load64(0x4000); err != nil {
		t.Fatal(err)
	}
	if c.Stats().TLBMisses != 0 {
		t.Error("global (kernel) translation did not survive the flush")
	}
}
