package pt

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"spacejmp/internal/arch"
	"spacejmp/internal/mem"
)

func testTable(t *testing.T) (*Table, *mem.PhysMem) {
	t.Helper()
	pm := mem.New(mem.Config{DRAMSize: 256 << 20})
	tbl, err := New(pm)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, pm
}

func TestMapWalkRoundTrip(t *testing.T) {
	tbl, pm := testTable(t)
	frame, _ := pm.AllocPage()
	va := arch.VirtAddr(0xC0DE000)
	if err := tbl.MapPage(va, frame, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	r, err := tbl.Walk(va + 0x123)
	if err != nil {
		t.Fatal(err)
	}
	if r.PA != frame+0x123 {
		t.Errorf("walk pa = %v, want %v", r.PA, frame+0x123)
	}
	if r.Perm != arch.PermRW {
		t.Errorf("walk perm = %v", r.Perm)
	}
	if r.PageSize != arch.PageSize {
		t.Errorf("walk page size = %d", r.PageSize)
	}
	if r.Refs != 4 {
		t.Errorf("4 KiB walk refs = %d, want 4", r.Refs)
	}
}

func TestWalkUnmapped(t *testing.T) {
	tbl, _ := testTable(t)
	_, err := tbl.Walk(0xBAD000)
	var nm *NotMappedError
	if !errors.As(err, &nm) {
		t.Fatalf("want NotMappedError, got %v", err)
	}
	if nm.VA != 0xBAD000 {
		t.Errorf("fault va = %v", nm.VA)
	}
}

func TestHugePageMapping(t *testing.T) {
	tbl, pm := testTable(t)
	frames, err := pm.AllocFrames(9, mem.TierDRAM) // 2 MiB
	if err != nil {
		t.Fatal(err)
	}
	va := arch.VirtAddr(arch.HugePageSize * 5)
	if err := tbl.MapPage(va, frames, arch.HugePageSize, arch.PermRead, false); err != nil {
		t.Fatal(err)
	}
	r, err := tbl.Walk(va + 0x12345)
	if err != nil {
		t.Fatal(err)
	}
	if r.PageSize != arch.HugePageSize {
		t.Errorf("size = %d", r.PageSize)
	}
	if r.Refs != 3 {
		t.Errorf("2 MiB walk refs = %d, want 3", r.Refs)
	}
	if r.PA != frames+0x12345 {
		t.Errorf("pa = %v", r.PA)
	}
}

func TestMisalignedMapRejected(t *testing.T) {
	tbl, pm := testTable(t)
	frame, _ := pm.AllocPage()
	if err := tbl.MapPage(0x1001, frame, arch.PageSize, arch.PermRW, false); err == nil {
		t.Error("misaligned va accepted")
	}
	if err := tbl.MapPage(0x200000, frame, arch.HugePageSize, arch.PermRW, false); err == nil {
		t.Error("misaligned pa for huge page accepted")
	}
}

func TestDoubleMapRejected(t *testing.T) {
	tbl, pm := testTable(t)
	f1, _ := pm.AllocPage()
	f2, _ := pm.AllocPage()
	if err := tbl.MapPage(0x1000, f1, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MapPage(0x1000, f2, arch.PageSize, arch.PermRW, false); err == nil {
		t.Error("overlapping map accepted; the simulator must refuse, unlike legacy mmap")
	}
}

func TestNonCanonicalRejected(t *testing.T) {
	tbl, pm := testTable(t)
	frame, _ := pm.AllocPage()
	if err := tbl.MapPage(arch.VirtAddr(arch.VASize), frame, arch.PageSize, arch.PermRW, false); err == nil {
		t.Error("non-canonical va accepted")
	}
}

func TestTableAllocationCounts(t *testing.T) {
	tbl, pm := testTable(t)
	// Mapping one 4 KiB page from an empty root allocates PDPT, PD, PT.
	frame, _ := pm.AllocPage()
	if err := tbl.MapPage(0x1000, frame, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Stats().TablesAllocated; got != 4 { // root + 3
		t.Errorf("tables allocated = %d, want 4", got)
	}
	// A second page in the same PT allocates nothing.
	f2, _ := pm.AllocPage()
	if err := tbl.MapPage(0x2000, f2, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Stats().TablesAllocated; got != 4 {
		t.Errorf("tables allocated after 2nd page = %d, want 4", got)
	}
}

// The paper (§4.4) notes an 8 KiB segment straddling a PML4 boundary needs
// 7 page tables: one PML4, two each of PDPT, PD, PT.
func TestPML4BoundaryCost(t *testing.T) {
	boundary := arch.VirtAddr(arch.LevelCoverage(3)) // first byte of PML4 slot 1
	if got := TablesFor(boundary-arch.PageSize, 2*arch.PageSize); got != 7 {
		t.Errorf("TablesFor straddling PML4 boundary = %d, want 7", got)
	}
	if got := TablesFor(0x1000, 2*arch.PageSize); got != 4 {
		t.Errorf("TablesFor small aligned region = %d, want 4", got)
	}

	tbl, pm := testTable(t)
	f1, _ := pm.AllocPage()
	f2, _ := pm.AllocPage()
	if err := tbl.MapPage(boundary-arch.PageSize, f1, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MapPage(boundary, f2, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Stats().TablesAllocated; got != 7 {
		t.Errorf("straddling 8 KiB segment allocated %d tables, want 7", got)
	}
}

func TestUnmapFreesEmptyTables(t *testing.T) {
	tbl, pm := testTable(t)
	frame, _ := pm.AllocPage()
	if err := tbl.MapPage(0x1000, frame, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Unmap(0x1000, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Walk(0x1000); err == nil {
		t.Error("unmapped page still walks")
	}
	if got := tbl.Stats().TablesFreed; got != 3 {
		t.Errorf("tables freed = %d, want 3 (PDPT, PD, PT)", got)
	}
	if tbl.OwnedTables() != 1 {
		t.Errorf("owned tables = %d, want 1 (root)", tbl.OwnedTables())
	}
}

func TestUnmapKeepsNeighbours(t *testing.T) {
	tbl, pm := testTable(t)
	f1, _ := pm.AllocPage()
	f2, _ := pm.AllocPage()
	if err := tbl.MapPage(0x1000, f1, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MapPage(0x2000, f2, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Unmap(0x1000, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Walk(0x2000); err != nil {
		t.Errorf("neighbour unmapped too: %v", err)
	}
	if got := tbl.Stats().TablesFreed; got != 0 {
		t.Errorf("tables freed = %d, want 0 (PT still in use)", got)
	}
}

func TestPartialHugeUnmapRejected(t *testing.T) {
	tbl, pm := testTable(t)
	frames, _ := pm.AllocFrames(9, mem.TierDRAM)
	if err := tbl.MapPage(0, frames, arch.HugePageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Unmap(0, arch.PageSize); err == nil {
		t.Error("partial huge-page unmap accepted")
	}
}

func TestProtect(t *testing.T) {
	tbl, pm := testTable(t)
	frame, _ := pm.AllocPage()
	if err := tbl.MapPage(0x1000, frame, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Protect(0x1000, arch.PageSize, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	r, err := tbl.Walk(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Perm != arch.PermRead {
		t.Errorf("perm after protect = %v", r.Perm)
	}
	if err := tbl.Protect(0x5000, arch.PageSize, arch.PermRead); err == nil {
		t.Error("protect of unmapped range accepted")
	}
}

func TestGlobalFlagSurvives(t *testing.T) {
	tbl, pm := testTable(t)
	frame, _ := pm.AllocPage()
	if err := tbl.MapPage(0x1000, frame, arch.PageSize, arch.PermRead, true); err != nil {
		t.Fatal(err)
	}
	if _, _, e := tbl.leaf(0x1000); !e.Present() || !e.Global() {
		t.Error("global bit lost")
	}
}

func TestLinkSubtreeSharesTranslations(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 256 << 20})
	owner, err := New(pm)
	if err != nil {
		t.Fatal(err)
	}
	// Owner builds translations inside one PML4 slot.
	frame, _ := pm.AllocPage()
	va := arch.VirtAddr(arch.LevelCoverage(3)) // PML4 slot 1
	if err := owner.MapPage(va, frame, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	// Find the PDPT the owner allocated for slot 1 and link it into a
	// second table, as Barrelfish shares all tables below the root (§4.2).
	pdpt := owner.load(owner.Root(), va.Index(3)).Addr()

	other, err := New(pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LinkSubtree(va, 3, pdpt); err != nil {
		t.Fatal(err)
	}
	r, err := other.Walk(va)
	if err != nil {
		t.Fatalf("walk through linked subtree: %v", err)
	}
	if r.PA != frame {
		t.Errorf("linked walk pa = %v, want %v", r.PA, frame)
	}

	// Destroying the linking table must not free the owner's subtree.
	other.Destroy()
	if _, err := owner.Walk(va); err != nil {
		t.Errorf("owner translation destroyed by linker teardown: %v", err)
	}
}

func TestUnlinkSubtree(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 256 << 20})
	owner, _ := New(pm)
	frame, _ := pm.AllocPage()
	va := arch.VirtAddr(arch.LevelCoverage(3))
	if err := owner.MapPage(va, frame, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	pdpt := owner.load(owner.Root(), va.Index(3)).Addr()

	other, _ := New(pm)
	if err := other.LinkSubtree(va, 3, pdpt); err != nil {
		t.Fatal(err)
	}
	if err := other.UnlinkSubtree(va, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Walk(va); err == nil {
		t.Error("translation survived unlink")
	}
	if _, err := owner.Walk(va); err != nil {
		t.Errorf("owner broken by unlink: %v", err)
	}
	if err := other.UnlinkSubtree(va, 3); err == nil {
		t.Error("double unlink accepted")
	}
}

func TestDestroyReturnsFrames(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 16 << 20})
	before := pm.Stats().AllocatedBytes
	tbl, err := New(pm)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := pm.AllocPage()
	for i := 0; i < 16; i++ {
		va := arch.VirtAddr(uint64(i) * arch.LevelCoverage(1)) // spread over PDs
		if err := tbl.MapPage(va, frame, arch.PageSize, arch.PermRead, false); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Destroy()
	if err := pm.Free(frame, 0); err != nil {
		t.Fatal(err)
	}
	if after := pm.Stats().AllocatedBytes; after != before {
		t.Errorf("leak: %d bytes still allocated", after-before)
	}
}

// Property: mapping a random set of distinct pages then walking each returns
// exactly the frame it was mapped to, and unmapping everything frees all
// tables except the root.
func TestPropertyMapWalkUnmap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pm := mem.New(mem.Config{DRAMSize: 64 << 20})
		tbl, err := New(pm)
		if err != nil {
			return false
		}
		mappings := make(map[arch.VirtAddr]arch.PhysAddr)
		for i := 0; i < 64; i++ {
			va := arch.VirtAddr(uint64(rng.Intn(1<<20)) * arch.PageSize)
			if _, dup := mappings[va]; dup {
				continue
			}
			frame, err := pm.AllocPage()
			if err != nil {
				return false
			}
			if err := tbl.MapPage(va, frame, arch.PageSize, arch.PermRW, false); err != nil {
				return false
			}
			mappings[va] = frame
		}
		for va, want := range mappings {
			r, err := tbl.Walk(va)
			if err != nil || r.PA != want {
				return false
			}
		}
		for va := range mappings {
			if err := tbl.Unmap(va, arch.PageSize); err != nil {
				return false
			}
		}
		return tbl.OwnedTables() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestTablesForMatchesActual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pm := mem.New(mem.Config{DRAMSize: 512 << 20})
		tbl, err := New(pm)
		if err != nil {
			return false
		}
		va := arch.VirtAddr(uint64(rng.Intn(1<<24)) * arch.PageSize)
		pages := uint64(rng.Intn(2048) + 1)
		frame, err := pm.AllocFrames(11, mem.TierDRAM) // 2048 contiguous frames
		if err != nil {
			return false
		}
		if err := tbl.Map(va, frame, pages*arch.PageSize, arch.PageSize, arch.PermRW, false); err != nil {
			return false
		}
		return int(tbl.Stats().TablesAllocated) == TablesFor(va, pages*arch.PageSize)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestLookupIsWalk: Lookup answers as Walk does, reference for reference, and
// a miss's error names the level the descent stopped at. ClearWrite strips the
// write bit of a present writable leaf only.
func TestLookupIsWalk(t *testing.T) {
	tbl, pm := testTable(t)
	frame, _ := pm.AllocPage()
	if err := tbl.MapPage(0x1000, frame, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		va   arch.VirtAddr
		refs int
		ok   bool
	}{
		{0x1000, 4, true},
		{0x2000, 4, false},
		{arch.VirtAddr(arch.LevelCoverage(1)), 3, false},
		{arch.VirtAddr(arch.LevelCoverage(3)), 1, false},
	} {
		r, ok := tbl.Lookup(c.va)
		w, err := tbl.Walk(c.va)
		if ok != c.ok || r != w || r.Refs != c.refs || (err == nil) != ok {
			t.Errorf("%v: Lookup %+v %v, Walk %+v %v; want %d refs, ok %v", c.va, r, ok, w, err, c.refs, c.ok)
		}
		var nm *NotMappedError
		if !ok && (!errors.As(err, &nm) || nm.Level != arch.PTLevels-c.refs) {
			t.Errorf("%v: Walk's error %v, want a miss at level %d", c.va, err, arch.PTLevels-c.refs)
		}
	}
	if !tbl.ClearWrite(0x1000) || tbl.ClearWrite(0x1000) || tbl.ClearWrite(0x2000) {
		t.Error("ClearWrite must report exactly the one leaf that had the write bit")
	}
	if r, _ := tbl.Lookup(0x1000); r.Perm != arch.PermRead || r.PA != frame {
		t.Errorf("after ClearWrite: %+v, want %v read-only", r, frame)
	}
}
