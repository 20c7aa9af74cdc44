package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/stats"
)

func TestStatsDisabledByDefault(t *testing.T) {
	sys := testSystem(t)
	_, th := spawn(t, sys)
	if sys.Stats() != nil || sys.Tracer() != nil {
		t.Fatal("stats enabled without EnableStats")
	}
	// The whole syscall surface runs on the nil fast path.
	vid, err := th.VASCreate("off", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := th.SegAlloc("off.seg", segBase(0), 1<<20, arch.PermRW)
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
	if err := th.Store64(segBase(0), 7); err != nil {
		t.Fatal(err)
	}
	if sys.Stats() != nil {
		t.Error("stats appeared mid-run")
	}
}

// TestSwitchesMatchTraceCount is the regression the trace ring is specified
// against: the syscall layer's switch counter and the tracer's per-kind
// count are incremented together, so they must agree exactly — including
// under concurrency and after the ring has overflowed.
func TestSwitchesMatchTraceCount(t *testing.T) {
	sys := testSystem(t)
	sys.EnableStats(8) // tiny ring: most events are overwritten
	const threads = 4
	const switchesPerThread = 25
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, th := spawn(t, sys)
			vid, err := th.VASCreate(fmt.Sprintf("sw%d", i), 0o600)
			if err != nil {
				t.Error(err)
				return
			}
			h, err := th.VASAttach(vid)
			if err != nil {
				t.Error(err)
				return
			}
			for s := 0; s < switchesPerThread; s++ {
				if err := th.VASSwitch(h); err != nil {
					t.Error(err)
					return
				}
				if err := th.VASSwitch(PrimaryHandle); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	want := uint64(threads * switchesPerThread * 2)
	if got := sys.Switches(); got != want {
		t.Errorf("Switches() = %d, want %d", got, want)
	}
	if got := sys.Tracer().Count(stats.EvVASSwitch); got != sys.Switches() {
		t.Errorf("traced switches %d != Switches() %d", got, sys.Switches())
	}
	snap := sys.Stats()
	if snap.Switches != want {
		t.Errorf("snapshot switches = %d, want %d", snap.Switches, want)
	}
	if snap.TraceDropped == 0 {
		t.Error("ring of 8 did not overflow under 200 switches")
	}
	if h := snap.Syscalls[stats.OpVASSwitch.String()]; h.Count != want {
		t.Errorf("vas_switch latency count = %d, want %d", h.Count, want)
	}
}

// TestStatsEndToEnd drives a small workload with observability on and
// checks every counter family saw the activity it should have.
func TestStatsEndToEnd(t *testing.T) {
	sys := testSystem(t)
	sys.EnableStats(64) // before any process exists, so all PTs are observed
	_, th := spawn(t, sys)

	vid, err := th.VASCreate("e2e", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := th.SegAlloc("e2e.seg", segBase(0), 1<<20, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	h, err := th.VASAttach(vid)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 1<<20; off += arch.PageSize {
		if err := th.Store64(segBase(0)+arch.VirtAddr(off), off); err != nil {
			t.Fatal(err)
		}
	}
	snap := sys.Stats()

	if snap.TLB.Hits+snap.TLB.Misses == 0 {
		t.Error("no TLB probes recorded")
	}
	if snap.PT.NodesAllocated == 0 || snap.PT.NodesTouched == 0 || snap.PT.EntriesSet == 0 {
		t.Errorf("page-table counters empty: %+v", snap.PT)
	}
	if snap.VM.Maps == 0 {
		t.Error("no VM maps recorded")
	}
	for _, op := range []stats.Op{stats.OpVASCreate, stats.OpSegAlloc, stats.OpSegAttach, stats.OpVASAttach, stats.OpVASSwitch} {
		if snap.Syscalls[op.String()].Count == 0 {
			t.Errorf("no latency recorded for %s", op)
		}
	}
	if len(snap.Cycles) == 0 {
		t.Fatal("no cycles attributed")
	}
	var byCat uint64
	for _, v := range snap.Cycles {
		byCat += v
	}
	// Every charged cycle is attributed to a category: the per-core totals
	// (owned by hw) and the category decomposition must agree, since stats
	// were on from boot.
	var total uint64
	for _, c := range snap.Cores {
		total += c.Cycles
	}
	if byCat != total {
		t.Errorf("cycles by category %d != core totals %d", byCat, total)
	}

	// The attaches were traced.
	if got := sys.Tracer().Count(stats.EvSegAttach); got != 1 {
		t.Errorf("seg-attach trace count = %d, want 1", got)
	}

	// The text exporter mentions the headline counters.
	var sb strings.Builder
	if err := snap.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"cycles by category", "tlb", "hit-rate", "nodes-touched", "vas_switch"} {
		if !strings.Contains(out, want) {
			t.Errorf("text export missing %q:\n%s", want, out)
		}
	}
	if _, err := snap.JSON(); err != nil {
		t.Fatal(err)
	}

	// The snapshot is a copy: more activity must not move it.
	hits := snap.TLB.Hits
	if _, err := th.Load64(segBase(0)); err != nil {
		t.Fatal(err)
	}
	if snap.TLB.Hits != hits {
		t.Error("snapshot mutated by later activity")
	}
	if sys.Stats().TLB.Hits+sys.Stats().TLB.Misses <= hits {
		t.Error("live counters did not advance")
	}
}

// TestStatsLockHistograms: contended switches must record lock wait and
// hold observations.
func TestStatsLockHistograms(t *testing.T) {
	sys := testSystem(t)
	sys.EnableStats(0)
	_, a := spawn(t, sys)
	_, b := spawn(t, sys)
	vid, _ := a.VASCreate("locks", 0o666)
	sid, _ := a.SegAlloc("locks.seg", segBase(0), 1<<20, arch.PermRW)
	if err := a.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	ha, _ := a.VASAttach(vid)
	hb, _ := b.VASAttach(vid)
	if err := a.VASSwitch(ha); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.VASSwitch(hb) }() // blocks until a leaves
	if err := a.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	snap := sys.Stats()
	if snap.LockWaitNs.Count == 0 {
		t.Error("no lock-wait observations")
	}
	if snap.LockHoldCycles.Count == 0 {
		t.Error("no lock-hold observations")
	}
}

// TestLockWaitOnlyWhenBlocked: the lock-wait clock runs only behind a failed
// try. A switch that takes its locks at once records one observation of 0 ns;
// one that blocks behind another thread's exclusive hold records more than 0
// and raises the segment's contention count by exactly one.
func TestLockWaitOnlyWhenBlocked(t *testing.T) {
	sys := testSystem(t)
	sys.EnableStats(0)
	_, a := spawn(t, sys)
	_, b := spawn(t, sys)
	vid, _ := a.VASCreate("wait", 0o666)
	sid, _ := a.SegAlloc("wait.seg", segBase(0), 1<<20, arch.PermRW)
	if err := a.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	seg := mustSeg(t, sys, sid)
	ha, _ := a.VASAttach(vid)
	hb, _ := b.VASAttach(vid)

	before := sys.Stats().LockWaitNs
	if err := a.VASSwitch(ha); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().LockWaitNs; got.Count != before.Count+1 || got.Sum != before.Sum {
		t.Fatalf("uncontended switch: lock wait %+v after %+v, want one more observation of 0 ns", got, before)
	}
	if n := seg.LockContentions(); n != 0 {
		t.Fatalf("uncontended switch counted %d contentions", n)
	}

	before = sys.Stats().LockWaitNs
	done := make(chan error, 1)
	go func() { done <- b.VASSwitch(hb) }()
	waitContention(t, seg, 1)
	if err := a.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().LockWaitNs; got.Count != before.Count+1 || got.Sum == before.Sum {
		t.Errorf("blocked switch: lock wait %+v after %+v, want one more observation above 0 ns", got, before)
	}
	if n := seg.LockContentions(); n != 1 {
		t.Errorf("blocked switch counted %d contentions, want 1", n)
	}
	if err := b.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
}
