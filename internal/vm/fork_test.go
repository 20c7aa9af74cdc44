package vm

import (
	"fmt"
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
	if err := ws.DowngradeWrites(base, obj.Size); err != nil {
		t.Fatal(err)
	}

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
