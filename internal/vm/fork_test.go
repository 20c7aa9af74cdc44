package vm

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/hw"
	"spacejmp/internal/mem"
)

// TestForkRevokesStaleTranslations is the cross-space coherence contract of
// a frozen fork: after a write breaks COW in one space, every other space
// with an installed translation of that page must stop serving the frozen
// frame. Two spaces map the object — a writable one (the store's write VAS)
// and a read-only one (the read VAS) — both with translations installed
// before the fork.
func TestForkRevokesStaleTranslations(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	obj := NewObject(pm, "store", 4*arch.PageSize, mem.TierDRAM)
	ws, err := NewSpace(pm)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewSpace(pm)
	if err != nil {
		t.Fatal(err)
	}
	const base = arch.VirtAddr(0x10000)
	if _, err := ws.Map(base, obj.Size, arch.PermRW, obj, 0, MapFixed|MapPopulate); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Map(base, obj.Size, arch.PermRead, obj, 0, MapFixed|MapPopulate); err != nil {
		t.Fatal(err)
	}
	va := base + 2*arch.PageSize
	w, err := ws.Table().Walk(va)
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.WriteAt(w.PA, []byte("pre-fork")); err != nil {
		t.Fatal(err)
	}

	frozen := obj.ForkFrozen("store@frozen")
	defer frozen.Unref()
	ws.DowngradeWrites(base, obj.Size, frozen.Dirty())

	// The store retries after the permission fault: breakCOW in the write
	// space, then the stale read-space translation must be gone.
	h := ws.Handler()
	if err := h(nil, &hw.PageFault{VA: va, Access: arch.AccessWrite}); err != nil {
		t.Fatal(err)
	}
	w, err = ws.Table().Walk(va)
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.WriteAt(w.PA, []byte("postfork")); err != nil {
		t.Fatal(err)
	}

	if _, err := rs.Table().Walk(va); err == nil {
		t.Fatal("read space still holds a translation of the broken page")
	}
	if err := rs.HandleFault(va, arch.AccessRead); err != nil {
		t.Fatal(err)
	}
	r, err := rs.Table().Walk(va)
	if err != nil {
		t.Fatal(err)
	}
	if r.PA != w.PA {
		t.Fatalf("read space resolves %#x, writer's private frame is %#x", r.PA, w.PA)
	}
	buf := make([]byte, 8)
	if err := pm.ReadAt(r.PA, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "postfork" {
		t.Fatalf("read space sees %q after the break, want %q", buf, "postfork")
	}

	// The frozen view still serves the pre-fork content.
	fpa, ok := frozen.ResolveFrame(2)
	if !ok {
		t.Fatal("frozen view lost page 2")
	}
	if err := pm.ReadAt(fpa, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pre-fork" {
		t.Fatalf("frozen view sees %q, want %q", buf, "pre-fork")
	}

	ws.Destroy()
	rs.Destroy()
}

// TestForkFrozenConcurrentWriters races writers against frozen-view readers
// across repeated fork/release rounds (run under -race): the view captured
// at each fork must never change while writers keep mutating the live
// object, and every private frame must be reclaimed once the views die.
func TestForkFrozenConcurrentWriters(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	const pages = 8
	live := NewObject(pm, "live", pages*arch.PageSize, mem.TierDRAM)
	stamp := func(idx uint64, gen int) []byte {
		return []byte(fmt.Sprintf("p%02d-g%06d", idx, gen))
	}
	for idx := uint64(0); idx < pages; idx++ {
		pa, err := live.Frame(idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := pm.WriteAt(pa, stamp(idx, 0)); err != nil {
			t.Fatal(err)
		}
	}
	baseline := pm.AllocatedBytes()

	// quiesce plays the cluster's node mutex: writers hold it per write,
	// the forker holds it for the instant of the frame swap.
	var quiesce sync.Mutex
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			gen := 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				idx := uint64((gen*2 + w) % pages)
				quiesce.Lock()
				pa, err := live.BreakCOW(idx)
				if err == nil {
					err = pm.WriteAt(pa, stamp(idx, gen))
				}
				quiesce.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				gen++
			}
		}(w)
	}

	read := func(o *Object, idx uint64) string {
		pa, ok := o.ResolveFrame(idx)
		if !ok {
			return ""
		}
		buf := make([]byte, 11)
		if err := pm.ReadAt(pa, buf); err != nil {
			t.Error(err)
			return ""
		}
		return string(buf)
	}

	const rounds = 20
	for round := 0; round < rounds; round++ {
		quiesce.Lock()
		frozen := live.ForkFrozen(fmt.Sprintf("live@%d", round))
		snapshot := make([]string, pages)
		for idx := uint64(0); idx < pages; idx++ {
			snapshot[idx] = read(frozen, idx)
		}
		quiesce.Unlock()

		// Writers are live again; the frozen view must not move.
		for pass := 0; pass < 50; pass++ {
			for idx := uint64(0); idx < pages; idx++ {
				if got := read(frozen, idx); got != snapshot[idx] {
					t.Fatalf("round %d: frozen page %d changed from %q to %q under concurrent writes",
						round, idx, snapshot[idx], got)
				}
			}
		}
		frozen.Unref()
		quiesce.Lock()
		live.CollapseCOW()
		quiesce.Unlock()
	}
	close(stop)
	writerWG.Wait()

	live.CollapseCOW()
	if got := pm.AllocatedBytes(); got != baseline {
		t.Fatalf("allocated bytes %d after releasing every view, want baseline %d", got, baseline)
	}
	live.Unref()
	if err := pm.CheckLeaks(0); err != nil {
		t.Fatal(err)
	}
}

// TestForkCollapseReclaimsFrames holds the release path to the leak-check
// contract page by page: each fork/write/release round must return to the
// same footprint, and the final teardown to zero.
func TestForkCollapseReclaimsFrames(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	const pages = 4
	live := NewObject(pm, "live", pages*arch.PageSize, mem.TierDRAM)
	if err := live.Populate(); err != nil {
		t.Fatal(err)
	}
	steady := pm.AllocatedBytes()
	for round := 0; round < 5; round++ {
		frozen := live.ForkFrozen(fmt.Sprintf("live@%d", round))
		for idx := uint64(0); idx < pages; idx++ {
			if _, err := live.BreakCOW(idx); err != nil {
				t.Fatal(err)
			}
		}
		// Private copies double the footprint while the view lives.
		if got := pm.AllocatedBytes(); got != 2*steady {
			t.Fatalf("round %d: allocated %d with view live, want %d", round, got, 2*steady)
		}
		frozen.Unref()
		live.CollapseCOW()
		if got := pm.AllocatedBytes(); got != steady {
			t.Fatalf("round %d: allocated %d after release, want %d", round, got, steady)
		}
	}
	live.Unref()
	if err := pm.CheckLeaks(0); err != nil {
		t.Fatal(err)
	}
}

// chainDepth counts the frozen objects under o.
func chainDepth(o *Object) int {
	n := 0
	for o = o.parent; o != nil; o = o.parent {
		n++
	}
	return n
}

// TestForkChainFoldsInEngineOrder releases views the way fork.Engine does:
// view k+1 is forked, and written against, *before* view k is released, so
// the live object's immediate parent is always a view somebody holds. Every
// released generation must fold away all the same: a constant footprint after
// the first rounds, a chain no deeper than the views still held, the current
// view's content intact every round, and nothing leaked at the end.
func TestForkChainFoldsInEngineOrder(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	const pages = 32
	live := NewObject(pm, "live", pages*arch.PageSize, mem.TierDRAM)
	if err := live.Populate(); err != nil {
		t.Fatal(err)
	}
	shadow := make([][]byte, pages) // what the live object holds
	for idx := range shadow {
		shadow[idx] = make([]byte, arch.PageSize)
	}
	write := func(idx uint64, round int) {
		t.Helper()
		pa, err := live.BreakCOW(idx)
		if err != nil {
			t.Fatal(err)
		}
		copy(shadow[idx], fmt.Sprintf("page %d round %d", idx, round))
		if err := pm.WriteAt(pa, shadow[idx]); err != nil {
			t.Fatal(err)
		}
	}
	for idx := uint64(0); idx < pages; idx++ {
		write(idx, -1)
	}

	var cur *Object      // the current view
	var curWant [][]byte // its content: the shadow at its fork
	var steady uint64
	page := make([]byte, arch.PageSize)
	for round := 0; round < 50; round++ {
		next := live.ForkFrozen(fmt.Sprintf("live@%d", round))
		nextWant := make([][]byte, pages)
		for idx := range shadow {
			nextWant[idx] = append([]byte(nil), shadow[idx]...)
		}
		// A rotating subset of the pages, so that most rounds supersede
		// frames of several older generations at once.
		for i := 0; i < 5; i++ {
			write(uint64((round*3+i*7)%pages), round)
		}
		if cur != nil {
			cur.Unref()
			live.CollapseCOW()
		}
		cur, curWant = next, nextWant

		for idx := uint64(0); idx < pages; idx++ {
			pa, ok := cur.ResolveFrame(idx)
			if !ok {
				t.Fatalf("round %d: current view lost page %d", round, idx)
			}
			if err := pm.ReadAt(pa, page); err != nil {
				t.Fatal(err)
			}
			if string(page) != string(curWant[idx]) {
				t.Fatalf("round %d: current view's page %d reads %.24q, want %.24q", round, idx, page, curWant[idx])
			}
		}
		if d := chainDepth(live); d > 2 {
			t.Fatalf("round %d: chain depth %d with one view held", round, d)
		}
		switch got := pm.AllocatedBytes(); {
		case round == 2:
			steady = got
		case round > 2 && got != steady:
			t.Fatalf("round %d: %d bytes allocated, %d after round 2: released generations are not folding", round, got, steady)
		}
	}
	cur.Unref()
	live.CollapseCOW()
	if d := chainDepth(live); d != 0 {
		t.Errorf("chain depth %d with no view held", d)
	}
	if got := pm.AllocatedBytes(); got != pages*arch.PageSize {
		t.Errorf("%d bytes allocated with no view held, want the object's own %d", got, pages*arch.PageSize)
	}
	live.Unref()
	if err := pm.CheckLeaks(0); err != nil {
		t.Fatal(err)
	}
}

// TestResolveDuringFold (run under -race) resolves every page of the current
// view from one goroutine while another forks, writes and folds in the
// engine's order. A fold moves frames from a released parent into the view
// being read; a page must never fall between the two maps and read as absent.
func TestResolveDuringFold(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	const pages = 16
	live := NewObject(pm, "live", pages*arch.PageSize, mem.TierDRAM)
	if err := live.Populate(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex // guards cur: the reader takes a reference of its own
	cur := live.ForkFrozen("live@0")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			v := cur
			v.Ref()
			mu.Unlock()
			for idx := uint64(0); idx < pages; idx++ {
				if _, ok := v.ResolveFrame(idx); !ok {
					t.Errorf("view %s: page %d resolved as absent", v.Name, idx)
				}
			}
			v.Unref()
			live.CollapseCOW() // the reader's reference may have been the last
		}
	}()
	for round := 1; round <= 300; round++ {
		next := live.ForkFrozen(fmt.Sprintf("live@%d", round))
		for i := 0; i < 4; i++ {
			if _, err := live.BreakCOW(uint64((round + i*5) % pages)); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		prev := cur
		cur = next
		mu.Unlock()
		prev.Unref()
		live.CollapseCOW()
	}
	close(done)
	wg.Wait()
	cur.Unref()
	live.CollapseCOW()
	live.Unref()
	if err := pm.CheckLeaks(0); err != nil {
		t.Fatal(err)
	}
}

// resolvedFrameMap is ResolvedFrames as a map, page → frame.
func resolvedFrameMap(o *Object) map[uint64]arch.PhysAddr {
	pages, frames := o.ResolvedFrames()
	if !slices.IsSorted(pages) {
		panic("ResolvedFrames: pages not ascending")
	}
	out := make(map[uint64]arch.PhysAddr)
	for i, idx := range pages {
		out[idx] = arch.PhysAddr(frames[i])
	}
	return out
}

// refResolvedFrameMap is ResolvedFrames as it was first: one ResolveFrame per
// page, each taking and dropping every lock on its way down the chain.
func refResolvedFrameMap(o *Object) map[uint64]arch.PhysAddr {
	out := make(map[uint64]arch.PhysAddr)
	for idx := uint64(0); idx < o.Pages(); idx++ {
		if pa, ok := o.ResolveFrame(idx); ok {
			out[idx] = pa
		}
	}
	return out
}

// TestResolvedFrameMapMatchesPerPage holds the single descent of the chain to
// the per-page loop it replaced, on every object of a three-generation chain
// (live → view 2 → view 1 → view 0, overlapping writes between the forks, a
// page nobody ever materialized), before and after the middle view is
// released and folds into the one above it.
func TestResolvedFrameMapMatchesPerPage(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	const pages = 24
	live := NewObject(pm, "live", pages*arch.PageSize, mem.TierDRAM)
	for idx := uint64(0); idx < pages-1; idx++ { // the last page stays absent
		if _, err := live.Frame(idx); err != nil {
			t.Fatal(err)
		}
	}
	var views []*Object
	for gen := 0; gen < 3; gen++ {
		views = append(views, live.ForkFrozen(fmt.Sprintf("live@%d", gen)))
		for i := 0; i < 6; i++ {
			if _, err := live.BreakCOW(uint64((gen*4 + i*3) % (pages - 1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string) {
		t.Helper()
		for _, o := range append([]*Object{live}, views...) {
			got, want := resolvedFrameMap(o), refResolvedFrameMap(o)
			if len(want) != pages-1 {
				t.Fatalf("%s: %s resolves %d pages per page, want %d", when, o.Name, len(want), pages-1)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s: one descent resolves\n%v\nthe per-page loop\n%v", when, o.Name, got, want)
			}
		}
	}
	check("three views held")
	if own, up := resolvedFrameMap(live), resolvedFrameMap(views[2]); reflect.DeepEqual(own, up) {
		t.Fatal("the live object resolves as the view under it: the child's frame does not win")
	}
	views[1].Unref()
	live.CollapseCOW()
	views = append(views[:1], views[2])
	if d := chainDepth(live); d != 2 {
		t.Fatalf("chain depth %d after the middle view folded, want 2", d)
	}
	check("middle view folded")
	for _, v := range views {
		v.Unref()
	}
	live.CollapseCOW()
	live.Unref()
	if err := pm.CheckLeaks(0); err != nil {
		t.Fatal(err)
	}
}

// TestForkFrozenRecordsDirty pins what a view's Dirty set is: exactly the
// pages written since the fork before it; everything materialized at
// the first fork; empty, not nil, when nothing was written; unchanged by the
// folds that later pour older generations' frames into the view; and, after a
// view is dropped unreleased to anyone (a failed fork: Unref, CollapseCOW),
// the next view's set covers the dropped one's too.
func TestForkFrozenRecordsDirty(t *testing.T) {
	pm := mem.New(mem.Config{DRAMSize: 64 << 20})
	const pages = 16
	live := NewObject(pm, "live", pages*arch.PageSize, mem.TierDRAM)
	if err := live.Populate(); err != nil {
		t.Fatal(err)
	}
	if live.Dirty() != nil {
		t.Fatal("an object that is no view has a dirty set")
	}
	write := func(idxs ...uint64) {
		t.Helper()
		for _, idx := range idxs {
			if _, err := live.BreakCOW(idx); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := func(v *Object, idxs ...uint64) {
		t.Helper()
		got := v.Dirty()
		if sorted := slices.Sorted(slices.Values(got)); got == nil || !slices.Equal(sorted, idxs) {
			t.Fatalf("%s: dirty %v, want %v", v.Name, got, idxs)
		}
	}
	all := make([]uint64, pages)
	for i := range all {
		all[i] = uint64(i)
	}
	v0 := live.ForkFrozen("live@0")
	want(v0, all...)
	write(9, 2, 11, 2)
	v1 := live.ForkFrozen("live@1")
	want(v1, 2, 9, 11)
	v2 := live.ForkFrozen("live@2")
	want(v2)
	// v0 and v1 released: both fold into v2, whose frame map now holds every
	// page. Its dirty set is still what it was.
	v0.Unref()
	v1.Unref()
	live.CollapseCOW()
	if got := v2.Resident(); got != pages {
		t.Fatalf("v2 holds %d frames after the folds, want %d", got, pages)
	}
	want(v2)
	write(5, 3)
	failed := live.ForkFrozen("live@3") // a fork whose VAS could not be built
	want(failed, 3, 5)
	failed.Unref()
	live.CollapseCOW()
	write(7, 3)
	v4 := live.ForkFrozen("live@4")
	want(v4, 3, 5, 7)
	v2.Unref()
	v4.Unref()
	live.CollapseCOW()
	live.Unref()
	if err := pm.CheckLeaks(0); err != nil {
		t.Fatal(err)
	}
}
