package hw

import (
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/pt"
)

func TestChargePTAccounting(t *testing.T) {
	m := testMachine(t)
	c := m.Cores[0]
	before := c.Cycles()
	c.ChargePT(pt.Stats{TablesAllocated: 2, TablesFreed: 1, EntriesSet: 10, EntriesCleared: 5})
	want := 2*DefaultCost.TableAlloc + 1*DefaultCost.TableFree +
		10*DefaultCost.PTESet + 5*DefaultCost.PTEClear
	if got := c.Cycles() - before; got != want {
		t.Errorf("ChargePT = %d cycles, want %d", got, want)
	}
}

func TestDeltaPT(t *testing.T) {
	a := pt.Stats{TablesAllocated: 5, TablesFreed: 1, EntriesSet: 100, EntriesCleared: 10}
	b := pt.Stats{TablesAllocated: 8, TablesFreed: 3, EntriesSet: 150, EntriesCleared: 30}
	d := DeltaPT(a, b)
	if d.TablesAllocated != 3 || d.TablesFreed != 2 || d.EntriesSet != 50 || d.EntriesCleared != 20 {
		t.Errorf("delta = %+v", d)
	}
}

func TestExecPermissionPath(t *testing.T) {
	m := testMachine(t)
	c := m.Cores[0]
	tbl, _ := pt.New(m.PM)
	frame, _ := m.PM.AllocPage()
	if err := tbl.MapPage(0x4000, frame, arch.PageSize, arch.PermRead|arch.PermExec, false); err != nil {
		t.Fatal(err)
	}
	c.LoadCR3(tbl, arch.ASIDFlush)
	if _, err := c.Translate(0x4000, arch.AccessExec); err != nil {
		t.Errorf("exec fetch from r-x page: %v", err)
	}
	if err := c.Store64(0x4000, 1); err == nil {
		t.Error("store to r-x page succeeded")
	}
	// NX page denies exec.
	f2, _ := m.PM.AllocPage()
	if err := tbl.MapPage(0x8000, f2, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Translate(0x8000, arch.AccessExec); err == nil {
		t.Error("exec fetch from NX page succeeded")
	}
}

func TestPermissionUpgradeSelfHeals(t *testing.T) {
	// After a PTE permission upgrade, the stale TLB entry must not keep
	// denying: the MMU drops it and re-walks (the x86 behaviour COW
	// upgrades rely on).
	m := testMachine(t)
	c := m.Cores[0]
	tbl, _ := pt.New(m.PM)
	frame, _ := m.PM.AllocPage()
	if err := tbl.MapPage(0x4000, frame, arch.PageSize, arch.PermRead, false); err != nil {
		t.Fatal(err)
	}
	c.LoadCR3(tbl, arch.ASIDFlush)
	if _, err := c.Load64(0x4000); err != nil { // caches r-- in the TLB
		t.Fatal(err)
	}
	if err := tbl.Protect(0x4000, arch.PageSize, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := c.Store64(0x4000, 1); err != nil {
		t.Errorf("store after PTE upgrade: %v", err)
	}
}
