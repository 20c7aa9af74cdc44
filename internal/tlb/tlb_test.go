package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spacejmp/internal/arch"
)

func small() *TLB { return New(Config{Sets: 4, Ways: 2}) }

func TestHitAfterInsert(t *testing.T) {
	tl := small()
	tl.Insert(1, 0x1000, 0x9000, arch.PageSize, arch.PermRW, false)
	e, ok := tl.Lookup(1, 0x1234)
	if !ok {
		t.Fatal("miss after insert")
	}
	if e.Frame != 0x9000 {
		t.Errorf("frame = %v", e.Frame)
	}
	if e.Perm != arch.PermRW {
		t.Errorf("perm = %v", e.Perm)
	}
}

func TestMissDifferentASID(t *testing.T) {
	tl := small()
	tl.Insert(1, 0x1000, 0x9000, arch.PageSize, arch.PermRW, false)
	if _, ok := tl.Lookup(2, 0x1000); ok {
		t.Error("hit under wrong ASID; tags must isolate address spaces")
	}
}

func TestGlobalMatchesAnyASID(t *testing.T) {
	tl := small()
	tl.Insert(1, 0x1000, 0x9000, arch.PageSize, arch.PermRead, true)
	if _, ok := tl.Lookup(7, 0x1000); !ok {
		t.Error("global entry missed under other ASID")
	}
}

func TestHugePageLookup(t *testing.T) {
	tl := small()
	tl.Insert(1, arch.HugePageSize, 0x200000, arch.HugePageSize, arch.PermRW, false)
	e, ok := tl.Lookup(1, arch.HugePageSize+0x12345)
	if !ok {
		t.Fatal("huge page lookup missed")
	}
	if e.PageSize != arch.HugePageSize {
		t.Errorf("page size = %d", e.PageSize)
	}
}

func TestFlushAllKeepsGlobal(t *testing.T) {
	tl := small()
	tl.Insert(1, 0x1000, 0x9000, arch.PageSize, arch.PermRW, false)
	tl.Insert(1, 0x2000, 0xA000, arch.PageSize, arch.PermRW, true)
	if n := tl.FlushAll(); n != 1 {
		t.Errorf("FlushAll invalidated %d entries, want 1", n)
	}
	if _, ok := tl.Lookup(1, 0x1000); ok {
		t.Error("non-global entry survived flush")
	}
	if _, ok := tl.Lookup(1, 0x2000); !ok {
		t.Error("global entry flushed")
	}
}

func TestFlushASID(t *testing.T) {
	tl := small()
	tl.Insert(1, 0x1000, 0x9000, arch.PageSize, arch.PermRW, false)
	tl.Insert(2, 0x1000, 0xB000, arch.PageSize, arch.PermRW, false)
	if n := tl.FlushASID(1); n != 1 {
		t.Errorf("FlushASID invalidated %d entries, want 1", n)
	}
	if _, ok := tl.Lookup(1, 0x1000); ok {
		t.Error("ASID 1 entry survived its flush")
	}
	if _, ok := tl.Lookup(2, 0x1000); !ok {
		t.Error("ASID 2 entry flushed by ASID 1 invalidation")
	}
}

func TestFlushPage(t *testing.T) {
	tl := small()
	tl.Insert(3, 0x1000, 0x9000, arch.PageSize, arch.PermRW, false)
	tl.Insert(3, 0x2000, 0xA000, arch.PageSize, arch.PermRW, false)
	if n := tl.FlushPage(3, 0x1abc); n != 1 {
		t.Errorf("FlushPage invalidated %d entries, want 1", n)
	}
	if _, ok := tl.Lookup(3, 0x1000); ok {
		t.Error("flushed page still hits")
	}
	if _, ok := tl.Lookup(3, 0x2000); !ok {
		t.Error("unrelated page flushed")
	}
}

func TestSameASIDDistinctEntries(t *testing.T) {
	// Two address spaces can map the same VPN to different frames under
	// different tags and both must be retrievable.
	tl := New(Config{Sets: 8, Ways: 4})
	tl.Insert(1, 0x1000, 0x111000, arch.PageSize, arch.PermRW, false)
	tl.Insert(2, 0x1000, 0x222000, arch.PageSize, arch.PermRW, false)
	e1, ok1 := tl.Lookup(1, 0x1000)
	e2, ok2 := tl.Lookup(2, 0x1000)
	if !ok1 || !ok2 {
		t.Fatal("tagged aliases evicted each other in a non-full set")
	}
	if e1.Frame != 0x111000 || e2.Frame != 0x222000 {
		t.Errorf("frames = %v, %v", e1.Frame, e2.Frame)
	}
}

func TestReinsertRefreshesInPlace(t *testing.T) {
	tl := small()
	tl.Insert(1, 0x1000, 0x9000, arch.PageSize, arch.PermRead, false)
	if _, was, evicted := tl.Insert(1, 0x1000, 0x9000, arch.PageSize, arch.PermRW, false); evicted || was.Perm != arch.PermRead {
		t.Errorf("reinsert displaced %+v, evicted %v; want the old entry, refreshed in place", was, evicted)
	}
	if tl.Live() != 1 {
		t.Errorf("reinsert duplicated the entry: %d live", tl.Live())
	}
	e, _ := tl.Lookup(1, 0x1000)
	if e.Perm != arch.PermRW {
		t.Errorf("reinsert did not update perms: %v", e.Perm)
	}
}

func TestLRUEviction(t *testing.T) {
	tl := New(Config{Sets: 1, Ways: 2})
	tl.Insert(1, 0x1000, 0x1000, arch.PageSize, arch.PermRW, false)
	tl.Insert(1, 0x2000, 0x2000, arch.PageSize, arch.PermRW, false)
	tl.Lookup(1, 0x1000) // make 0x2000 the LRU
	if _, was, evicted := tl.Insert(1, 0x3000, 0x3000, arch.PageSize, arch.PermRW, false); !evicted || was.VPN != 2 {
		t.Errorf("insert into a full set displaced %+v, evicted %v; want the LRU entry evicted", was, evicted)
	}
	if _, ok := tl.Lookup(1, 0x1000); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := tl.Lookup(1, 0x2000); ok {
		t.Error("LRU entry survived")
	}
}

func TestCapacityBehaviour(t *testing.T) {
	// Touching a working set within capacity gives 100% hits on re-touch;
	// a working set 2x capacity under an adversarial-free access pattern
	// cannot (this is the Figure 6 "tail off" mechanism).
	tl := New(Config{Sets: 16, Ways: 4})
	n := tl.Capacity()
	for i := 0; i < n; i++ {
		tl.Insert(1, arch.VirtAddr(i*arch.PageSize), arch.PhysAddr(i*arch.PageSize), arch.PageSize, arch.PermRW, false)
	}
	for i := 0; i < n; i++ {
		if _, ok := tl.Lookup(1, arch.VirtAddr(i*arch.PageSize)); !ok {
			t.Fatalf("entry %d missing with working set == capacity", i)
		}
	}
}

func TestPropertyLiveNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := New(Config{Sets: 8, Ways: 2})
		for i := 0; i < 500; i++ {
			va := arch.VirtAddr(uint64(rng.Intn(256)) * arch.PageSize)
			tl.Insert(arch.ASID(rng.Intn(4)), va, arch.PhysAddr(va), arch.PageSize, arch.PermRW, rng.Intn(8) == 0)
			if tl.Live() > tl.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLookupAfterInsertAlwaysHits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := New(DefaultConfig)
		va := arch.VirtAddr(uint64(rng.Intn(1<<20)) * arch.PageSize)
		asid := arch.ASID(rng.Intn(100))
		tl.Insert(asid, va, arch.PhysAddr(va)+0x1000, arch.PageSize, arch.PermRead, false)
		e, ok := tl.Lookup(asid, va+arch.VirtAddr(rng.Intn(arch.PageSize)))
		return ok && e.Frame == arch.PhysAddr(va)+0x1000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{{Sets: 0, Ways: 1}, {Sets: 3, Ways: 1}, {Sets: 4, Ways: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}
