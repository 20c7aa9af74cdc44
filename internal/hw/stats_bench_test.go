package hw

import (
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/pt"
)

// benchCore maps a window of pages and returns the core to drive. The
// window exceeds the SmallTest TLB so the loop exercises both the hit and
// the miss/walk paths — the two hot paths the observability hooks sit on.
func benchCore(b *testing.B, m *Machine, pages int) *Core {
	b.Helper()
	tbl, err := pt.New(m.PM)
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		frame, err := m.PM.AllocPage()
		if err != nil {
			b.Fatal(err)
		}
		va := arch.VirtAddr(0x4000 + uint64(p)*arch.PageSize)
		if err := tbl.MapPage(va, frame, arch.PageSize, arch.PermRW, false); err != nil {
			b.Fatal(err)
		}
	}
	c := m.Cores[0]
	c.LoadCR3(tbl, arch.ASIDFlush)
	return c
}

func runAccessLoop(b *testing.B, c *Core, pages int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		va := arch.VirtAddr(0x4000 + uint64(i%pages)*arch.PageSize)
		if err := c.Store64(va, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Load64(va); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessStatsOff measures the MMU access path with observability
// disabled. Every iteration is a store that misses and a load the L0 serves.
// The contract is on the second: a hit records nothing as it happens, so with
// the counters on it costs what it costs with them off (BenchmarkLoad64Hit: On
// within 10 % of Off). What On adds to this loop is the miss's own reports and
// the fold of the hit it settles.
func BenchmarkAccessStatsOff(b *testing.B) {
	const pages = 512
	m := NewMachine(SmallTest())
	c := benchCore(b, m, pages)
	b.ResetTimer()
	runAccessLoop(b, c, pages)
}

// BenchmarkAccessStatsOn measures the same loop with counters enabled
// (atomic adds on the miss, its walk and data charge, and at the settle).
func BenchmarkAccessStatsOn(b *testing.B) {
	const pages = 512
	m := NewMachine(SmallTest())
	m.EnableStats(0)
	c := benchCore(b, m, pages)
	b.ResetTimer()
	runAccessLoop(b, c, pages)
}

// BenchmarkAccessStatsTraced adds a trace ring on top of the counters; the
// access path itself records no events, so this isolates the tracer's
// atomic-pointer load.
func BenchmarkAccessStatsTraced(b *testing.B) {
	const pages = 512
	m := NewMachine(SmallTest())
	m.EnableStats(4096)
	c := benchCore(b, m, pages)
	b.ResetTimer()
	runAccessLoop(b, c, pages)
}

// TestStatsToggle: enabling attaches a sink, disabling detaches it, and the
// hardware keeps running through both transitions.
func TestStatsToggle(t *testing.T) {
	m := NewMachine(SmallTest())
	if m.Observer() != nil || m.StatsSnapshot() != nil {
		t.Fatal("observer present before EnableStats")
	}
	s := m.EnableStats(0)
	if s == nil || m.Observer() != s {
		t.Fatal("EnableStats did not install the sink")
	}
	tbl, err := pt.New(m.PM)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := m.PM.AllocPage()
	if err := tbl.MapPage(0x4000, frame, arch.PageSize, arch.PermRW, false); err != nil {
		t.Fatal(err)
	}
	c := m.Cores[0]
	c.LoadCR3(tbl, arch.ASIDFlush)
	if err := c.Store64(0x4000, 1); err != nil {
		t.Fatal(err)
	}
	snap := m.StatsSnapshot()
	if snap.TLB.Misses == 0 {
		t.Error("no miss recorded on first touch")
	}
	if snap.Cores[0].Cycles == 0 || len(snap.Cores[0].ByCat) == 0 {
		t.Errorf("core cycles not attributed: %+v", snap.Cores[0])
	}
	m.DisableStats()
	if m.Observer() != nil || m.StatsSnapshot() != nil {
		t.Error("observer survived DisableStats")
	}
	if _, err := c.Load64(0x4000); err != nil {
		t.Fatal(err)
	}
}

// benchHits loads from a working set that stays resident in the TLB, so every
// access after the first sweep hits; with flushEvery > 0 an untagged LoadCR3
// empties the TLB every that many accesses, the shape of store-direct, where a
// command is two flushing switches around some thirty accesses.
func benchHits(b *testing.B, withStats bool, flushEvery int) {
	const pages = 8
	m := NewMachine(SmallTest())
	if withStats {
		m.EnableStats(0)
	}
	c := benchCore(b, m, pages)
	tbl := c.Table()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if flushEvery > 0 && i%flushEvery == 0 {
			c.LoadCR3(tbl, arch.ASIDFlush)
		}
		if _, err := c.Load64(arch.VirtAddr(0x4000 + uint64(i%pages)*arch.PageSize + uint64(i%64)*8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad64Hit is the bottom rung of the access ladder: a load the L0
// serves. The contract is that it takes no lock and performs no atomic
// read-modify-write, so stats on stays within 10 % of stats off, with 0 allocs.
func BenchmarkLoad64Hit(b *testing.B) {
	b.Run("stats-off", func(b *testing.B) { benchHits(b, false, 0) })
	b.Run("stats-on", func(b *testing.B) { benchHits(b, true, 0) })
}

// BenchmarkLoad64HitAfterFlush adds one flushing CR3 write per 32 accesses: an
// invalidation that cost O(L0 slots) instead of one epoch bump would show here.
func BenchmarkLoad64HitAfterFlush(b *testing.B) {
	b.Run("stats-off", func(b *testing.B) { benchHits(b, false, 32) })
	b.Run("stats-on", func(b *testing.B) { benchHits(b, true, 32) })
}
