package fork

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/vm"
)

// TestForkLeavesNoWritableSharedPage is the invariant a fork's downgrade
// rests on, checked from the page tables and not from how the downgrade is
// done: after any fork, no installed translation of the live segment allows
// a write to a page the live object still shares with a frozen view. A write
// through one would land in the frozen frames. Random reads and writes go
// through two attachments of the live segment, one of them read-only, with
// forks, releases of earlier views (their generations fold) and one fork
// that fails after freezing (its frames fold back) mixed in; every read must
// see the last value written.
func TestForkLeavesNoWritableSharedPage(t *testing.T) {
	r := newRig(t)
	e := New(r.sys, nil)
	sid, err := r.th.SegFind(liveSeg)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := r.sys.SegByID(sid)
	if err != nil {
		t.Fatal(err)
	}
	rovid, err := r.th.VASCreate("fork.live.ro.vas", 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.th.SegAttachVAS(rovid, sid, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	roh, err := r.th.VASAttach(rovid)
	if err != nil {
		t.Fatal(err)
	}
	spaces := map[string]*vm.Space{}
	for name, h := range map[string]core.Handle{"rw": r.h, "ro": roh} {
		if err := r.th.VASSwitch(h); err != nil {
			t.Fatal(err)
		}
		spaces[name] = r.th.Space()
	}

	const pages = liveSize / arch.PageSize
	check := func(when string) {
		t.Helper()
		for name, s := range spaces {
			for p := uint64(0); p < pages; p++ {
				w, ok := s.Table().Lookup(liveBase + arch.VirtAddr(p*arch.PageSize))
				if ok && w.Perm.CanWrite() && seg.Obj.IsCOW(p) {
					t.Fatalf("%s: the %s space can write page %d, which the live object shares with a frozen view", when, name, p)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	model := map[arch.VirtAddr]uint64{}
	failed := false
	for step := 0; step < 600; step++ {
		va := liveBase + arch.VirtAddr(rng.Intn(pages)*arch.PageSize+8*rng.Intn(4))
		switch op := rng.Intn(20); {
		case op < 9:
			v := uint64(step + 1)
			if err := r.th.VASSwitch(r.h); err != nil {
				t.Fatal(err)
			}
			if err := r.th.Store64(va, v); err != nil {
				t.Fatalf("step %d: store at %v: %v", step, va, err)
			}
			model[va] = v
		case op < 17:
			h := r.h
			if op%2 == 0 {
				h = roh
			}
			if err := r.th.VASSwitch(h); err != nil {
				t.Fatal(err)
			}
			if got, err := r.th.Load64(va); err != nil || got != model[va] {
				t.Fatalf("step %d: load at %v = %d, %v; want %d", step, va, got, err, model[va])
			}
		case !failed && step > 300:
			// A fork whose VAS name is taken fails after the frames froze.
			failed = true
			if err := r.th.VASSwitch(core.PrimaryHandle); err != nil {
				t.Fatal(err)
			}
			taken, err := r.th.VASCreate(fmt.Sprintf("%s@fork%d.vas", liveSeg, e.gen+1), 0o666)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := e.Fork(r.th, 0, liveSeg); err == nil {
				t.Fatalf("step %d: fork into a taken VAS name made generation %d", step, v.Gen())
			}
			check(fmt.Sprintf("step %d, after the failed fork", step))
			if err := r.th.VASDestroy(taken); err != nil {
				t.Fatal(err)
			}
		default:
			if err := r.th.VASSwitch(core.PrimaryHandle); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Fork(r.th, 0, liveSeg); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			check(fmt.Sprintf("step %d, after fork %d", step, e.gen))
		}
	}
	if !failed {
		t.Fatal("the sequence never tried the failing fork")
	}

	if err := r.th.VASSwitch(core.PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	if err := r.th.VASDetach(roh); err != nil {
		t.Fatal(err)
	}
	if err := r.th.SegDetachVAS(rovid, sid); err != nil {
		t.Fatal(err)
	}
	if err := r.th.VASDestroy(rovid); err != nil {
		t.Fatal(err)
	}
	r.teardown(e)
}

// TestForkAllocations pins that a steady-state fork's host cost follows the
// pages written since the last one, not the pages mapped: the same writes
// between forks cost a 16 MiB store's fork exactly the allocations they cost
// a 4 MiB one's. Each side is its cheapest of ten forks: the registries'
// maps, churned by every fork, now and then rehash at a point their random
// seed picks.
func TestForkAllocations(t *testing.T) {
	const warm, rounds, writes = 5, 10, 16
	forkAllocs := func(size uint64) uint64 {
		r := newRigSized(t, size)
		e := New(r.sys, nil)
		var ms runtime.MemStats
		least := uint64(math.MaxUint64)
		for round := 0; round < warm+rounds; round++ {
			for w := 0; w < writes; w++ {
				r.store((round*37+w*31)%1024*arch.PageSize, uint64(round))
			}
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			if _, err := e.Fork(r.th, 0, liveSeg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			if round >= warm {
				least = min(least, ms.Mallocs-before)
			}
		}
		r.teardown(e)
		return least
	}
	if small, big := forkAllocs(4<<20), forkAllocs(16<<20); small != big {
		t.Errorf("a fork allocates %d times over a 4 MiB store and %d times over a 16 MiB one; want the same", small, big)
	}
}
