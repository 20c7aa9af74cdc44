package spacejmp

// End-to-end scenarios through the public API, crossing every layer:
// personalities, VAS/segment lifecycle, switching, locking, snapshots, and
// persistence. Run with -race: the concurrent scenarios exercise the
// locking and shootdown paths under the race detector.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/mspace"
)

func segAt(i int) VirtAddr {
	return GlobalBase + VirtAddr(uint64(i)*arch.LevelCoverage(3))
}

func newThread(t *testing.T, sys *System, uid uint32) *Thread {
	t.Helper()
	proc, err := sys.NewProcess(Creds{UID: uid, GID: 100})
	if err != nil {
		t.Fatal(err)
	}
	th, err := proc.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func TestBothPersonalitiesRunTheSameWorkload(t *testing.T) {
	run := func(t *testing.T, sys *System) {
		th := newThread(t, sys, 1)
		vid, err := th.VASCreate("wl", 0o660)
		if err != nil {
			t.Fatal(err)
		}
		sid, err := th.SegAlloc("wl.seg", segAt(0), 1<<20, PermRW)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.SegAttachVAS(vid, sid, PermRW); err != nil {
			t.Fatal(err)
		}
		h, err := th.VASAttach(vid)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 10; round++ {
			if err := th.VASSwitch(h); err != nil {
				t.Fatal(err)
			}
			if err := th.Store64(segAt(0)+VirtAddr(round*8), uint64(round)); err != nil {
				t.Fatal(err)
			}
			if err := th.VASSwitch(PrimaryHandle); err != nil {
				t.Fatal(err)
			}
		}
		if err := th.VASSwitch(h); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 10; round++ {
			if v, _ := th.Load64(segAt(0) + VirtAddr(round*8)); v != uint64(round) {
				t.Errorf("word %d = %d", round, v)
			}
		}
	}
	t.Run("dragonfly", func(t *testing.T) { run(t, NewDragonFly(DefaultMachine())) })
	t.Run("barrelfish", func(t *testing.T) {
		sys, _ := NewBarrelfish(DefaultMachine())
		run(t, sys)
	})
}

func TestConcurrentReadersOneWriter(t *testing.T) {
	sys := NewDragonFly(DefaultMachine())
	boot := newThread(t, sys, 1)
	sid, err := boot.SegAlloc("c.seg", segAt(0), 1<<20, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	rv, _ := boot.VASCreate("c.read", 0o666)
	if err := boot.SegAttachVAS(rv, sid, PermRead); err != nil {
		t.Fatal(err)
	}
	wv, _ := boot.VASCreate("c.write", 0o666)
	if err := boot.SegAttachVAS(wv, sid, PermRW); err != nil {
		t.Fatal(err)
	}

	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	// Writer increments a counter under the exclusive lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := newThread(t, sys, 2)
		h, err := th.VASAttach(wv)
		if err != nil {
			errs <- err
			return
		}
		for i := 0; i < perWorker; i++ {
			if err := th.VASSwitch(h); err != nil {
				errs <- err
				return
			}
			v, _ := th.Load64(segAt(0))
			if err := th.Store64(segAt(0), v+1); err != nil {
				errs <- err
				return
			}
			if err := th.VASSwitch(PrimaryHandle); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Readers watch the counter; it must never decrease and each read
	// happens under the shared lock.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(uid uint32) {
			defer wg.Done()
			th := newThread(t, sys, uid)
			h, err := th.VASAttach(rv)
			if err != nil {
				errs <- err
				return
			}
			var last uint64
			for i := 0; i < perWorker; i++ {
				if err := th.VASSwitch(h); err != nil {
					errs <- err
					return
				}
				v, err := th.Load64(segAt(0))
				if err != nil {
					errs <- err
					return
				}
				if v < last {
					errs <- fmt.Errorf("counter went backwards: %d -> %d", last, v)
					return
				}
				last = v
				if err := th.VASSwitch(PrimaryHandle); err != nil {
					errs <- err
					return
				}
			}
		}(uint32(10 + r))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Final value is exactly the writer's increments (lock correctness).
	th := newThread(t, sys, 99)
	h, err := th.VASAttach(wv)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	if v, _ := th.Load64(segAt(0)); v != perWorker {
		t.Errorf("final counter = %d, want %d", v, perWorker)
	}
}

func TestConcurrentDisjointVASes(t *testing.T) {
	// Many threads, each with a private VAS over a private segment at the
	// SAME virtual address, hammering concurrently: exercises per-core
	// TLBs, page tables, and the shared registries under -race.
	sys := NewDragonFly(DefaultMachine())
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := newThread(t, sys, uint32(w+1))
			vid, err := th.VASCreate(fmt.Sprintf("dj.%d", w), 0o600)
			if err != nil {
				errs <- err
				return
			}
			sid, err := th.SegAlloc(fmt.Sprintf("dj.seg%d", w), segAt(w), 1<<20, PermRW)
			if err != nil {
				errs <- err
				return
			}
			if err := th.SegAttachVAS(vid, sid, PermRW); err != nil {
				errs <- err
				return
			}
			h, err := th.VASAttach(vid)
			if err != nil {
				errs <- err
				return
			}
			if err := th.VASSwitch(h); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 200; i++ {
				va := segAt(w) + VirtAddr((i%64)*8)
				if err := th.Store64(va, uint64(w*1000+i)); err != nil {
					errs <- err
					return
				}
				if v, _ := th.Load64(va); v != uint64(w*1000+i) {
					errs <- fmt.Errorf("worker %d read %d", w, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSnapshotWorkflowPublicAPI(t *testing.T) {
	sys := NewDragonFly(DefaultMachine())
	th := newThread(t, sys, 1)
	vid, _ := th.VASCreate("base", 0o660)
	sid, _ := th.SegAlloc("base.seg", segAt(0), 1<<20, PermRW)
	if err := th.SegAttachVAS(vid, sid, PermRW); err != nil {
		t.Fatal(err)
	}
	h, _ := th.VASAttach(vid)
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(segAt(0), 1); err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	// Take two successive snapshots with diverging writes.
	s1, err := th.VASSnapshot(vid, "v1")
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := th.VASAttach(s1)
	if err := th.VASSwitch(h1); err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(segAt(0), 11); err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	s2, err := th.VASSnapshot(vid, "v2")
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := th.VASAttach(s2)
	if err := th.VASSwitch(h2); err != nil {
		t.Fatal(err)
	}
	if v, _ := th.Load64(segAt(0)); v != 1 {
		t.Errorf("v2 sees %d, want base value 1", v)
	}
	if err := th.Store64(segAt(0), 22); err != nil {
		t.Fatal(err)
	}
	// Three diverged views of the same address.
	expect := map[Handle]uint64{h: 1, h1: 11, h2: 22}
	for hh, want := range expect {
		if err := th.VASSwitch(hh); err != nil {
			t.Fatal(err)
		}
		if v, _ := th.Load64(segAt(0)); v != want {
			t.Errorf("handle %d sees %d, want %d", hh, v, want)
		}
	}
}

func TestHeapAcrossPersonalities(t *testing.T) {
	// The runtime allocator works identically under both personalities.
	for _, boot := range []func() *System{
		func() *System { return NewDragonFly(DefaultMachine()) },
		func() *System { s, _ := NewBarrelfish(DefaultMachine()); return s },
	} {
		sys := boot()
		th := newThread(t, sys, 1)
		vid, _ := th.VASCreate("heap", 0o660)
		sid, _ := th.SegAlloc("heap.seg", segAt(0), 1<<20, PermRW)
		if err := th.SegAttachVAS(vid, sid, PermRW); err != nil {
			t.Fatal(err)
		}
		h, _ := th.VASAttach(vid)
		if err := th.VASSwitch(h); err != nil {
			t.Fatal(err)
		}
		alloc := mspace.NewVASAllocator(th)
		if _, err := alloc.InitHeap(h, segAt(0), 1<<20); err != nil {
			t.Fatal(err)
		}
		var ptrs []VirtAddr
		for i := 0; i < 20; i++ {
			p, err := alloc.Malloc(uint64(16 + i*8))
			if err != nil {
				t.Fatal(err)
			}
			if err := th.Store64(p, uint64(i)); err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, p)
		}
		for i, p := range ptrs {
			if v, _ := th.Load64(p); v != uint64(i) {
				t.Errorf("%s: alloc %d holds %d", sys.P.Name(), i, v)
			}
		}
	}
}

func TestErrorTaxonomy(t *testing.T) {
	sys := NewDragonFly(DefaultMachine())
	th := newThread(t, sys, 1)
	if _, err := th.VASFind("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("find missing: %v", err)
	}
	if _, err := th.SegAlloc("low", 0x1000, 1<<20, PermRW); !errors.Is(err, ErrLayout) {
		t.Errorf("layout: %v", err)
	}
	vid, _ := th.VASCreate("dup", 0o600)
	if _, err := th.VASCreate("dup", 0o600); !errors.Is(err, ErrExists) {
		t.Errorf("dup: %v", err)
	}
	stranger := newThread(t, sys, 999)
	if _, err := stranger.VASAttach(vid); !errors.Is(err, ErrDenied) {
		t.Errorf("denied: %v", err)
	}
}

// TestSetModeChangesWhoMayAttach: each personality checks a VAS under the
// mode vas_ctl SetMode last gave it, not the one it was created with — the
// DragonFly ACL, and the Barrelfish service's grants to those who hold no
// capability.
func TestSetModeChangesWhoMayAttach(t *testing.T) {
	barrelfish, _ := NewBarrelfish(DefaultMachine())
	for _, sys := range []*System{NewDragonFly(DefaultMachine()), barrelfish} {
		name := sys.P.Name()
		owner, member := newThread(t, sys, 1), newThread(t, sys, 2) // one group
		vid, err := owner.VASCreate("moded", 0o666)
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.VASCtl(vid, SetMode(0o600)); err != nil {
			t.Fatal(err)
		}
		if _, err := member.VASAttach(vid); !errors.Is(err, ErrDenied) {
			t.Fatalf("%s: attach by a group member after SetMode(0o600): %v, want ErrDenied", name, err)
		}
		if err := owner.VASCtl(vid, SetMode(0o660)); err != nil {
			t.Fatal(err)
		}
		if _, err := member.VASAttach(vid); err != nil {
			t.Fatalf("%s: attach by a group member after SetMode(0o660): %v", name, err)
		}
	}
}

func TestRebootWorkflowPublicAPI(t *testing.T) {
	cfg := DefaultMachine()
	cfg.Mem.NVMSuperblock = 1 << 20
	machine := NewMachine(cfg)
	sys := NewDragonFlyOn(machine)
	sys.SetSegmentTier(TierNVM)
	th := newThread(t, sys, 1)
	vid, _ := th.VASCreate("boot.vas", 0o666)
	sid, _ := th.SegAlloc("boot.seg", segAt(0), 1<<20, PermRW)
	if err := th.SegAttachVAS(vid, sid, PermRW); err != nil {
		t.Fatal(err)
	}
	h, _ := th.VASAttach(vid)
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(segAt(0), 31415); err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	machine.PM.PowerCycle()
	sys2 := NewDragonFlyOn(machine)
	if err := sys2.Restore(); err != nil {
		t.Fatal(err)
	}
	th2 := newThread(t, sys2, 1)
	found, err := th2.VASFind("boot.vas")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := th2.VASAttach(found)
	if err != nil {
		t.Fatal(err)
	}
	if err := th2.VASSwitch(h2); err != nil {
		t.Fatal(err)
	}
	if v, _ := th2.Load64(segAt(0)); v != 31415 {
		t.Errorf("after reboot: %d", v)
	}
}
