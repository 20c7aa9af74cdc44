package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"spacejmp/internal/arch"
)

// A switch pair allocates nothing: the lock set is cached on the VAS and the
// fault handler is a method value made with the space. With observability on
// the counters are atomics the sink already owns.
func TestSwitchDoesNotAllocate(t *testing.T) {
	for _, withStats := range []bool{false, true} {
		sys := testSystem(t)
		if withStats {
			sys.EnableStats(0)
		}
		_, th := spawn(t, sys)
		vid, _ := th.VASCreate("v", 0o666)
		for i := 0; i < 3; i++ {
			sid, err := th.SegAlloc("s"+string(rune('a'+i)), segBase(i), 1<<16, arch.PermRW)
			if err != nil {
				t.Fatal(err)
			}
			if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
				t.Fatal(err)
			}
		}
		h, err := th.VASAttach(vid)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := th.VASSwitch(h); err != nil {
				t.Fatal(err)
			}
			if len(th.held) != 3 {
				t.Fatalf("switched in holding %d locks, want 3", len(th.held))
			}
			if err := th.VASSwitch(PrimaryHandle); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("stats %v: a VASSwitch pair allocates %.1f times, want 0", withStats, allocs)
		}
	}
}

// TestLockSetUnderChange switches threads in and out of a VAS while its
// segment list and a segment's lockable bit change under them (run under
// -race). A switcher sees the lock set as it was before or after a change,
// never a mixture: always in SegID order (the deadlock-freedom argument),
// always holding the segment nothing touches, and every lock it took it
// releases — at the end nobody holds anything.
func TestLockSetUnderChange(t *testing.T) {
	sys := testSystem(t)
	_, admin := spawn(t, sys)
	vid, _ := admin.VASCreate("v", 0o666)
	var sids [3]SegID
	for i := range sids {
		var err error
		if sids[i], err = admin.SegAlloc("s"+string(rune('a'+i)), segBase(i), 1<<16, arch.PermRW); err != nil {
			t.Fatal(err)
		}
	}
	// Attached out of SegID order: the set is sorted, not the list.
	for _, i := range []int{2, 0, 1} {
		if err := admin.SegAttachVAS(vid, sids[i], arch.PermRead); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		_, th := spawn(t, sys)
		h, err := th.VASAttach(vid)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := th.VASSwitch(h); err != nil {
					t.Error(err)
					return
				}
				stable := false
				for i, m := range th.held {
					if i > 0 && th.held[i-1].Seg.ID >= m.Seg.ID {
						t.Errorf("lock set out of SegID order: %d before %d", th.held[i-1].Seg.ID, m.Seg.ID)
					}
					stable = stable || m.Seg.ID == sids[0]
				}
				if !stable || len(th.held) > 3 {
					t.Errorf("lock set of %d misses the segment nothing changes", len(th.held))
				}
				if err := th.VASSwitch(PrimaryHandle); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		if err := admin.SegDetachVAS(vid, sids[1]); err != nil {
			t.Fatal(err)
		}
		if err := admin.SegCtl(sids[2], SetLockable(i%2 == 1)); err != nil {
			t.Fatal(err)
		}
		if err := admin.SegAttachVAS(vid, sids[1], arch.PermRead); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	for _, sid := range sids {
		if r, w := mustSeg(t, sys, sid).LockHolders(); r != 0 || w != 0 {
			t.Errorf("segment %d still held by %d readers, %d writers", sid, r, w)
		}
	}
	v, _ := sys.VASByID(vid)
	if got := v.lockSet(); len(got) != 3 || got[0].Seg.ID != sids[0] || got[1].Seg.ID != sids[1] || got[2].Seg.ID != sids[2] {
		t.Errorf("final lock set %v, want all three segments in SegID order", got)
	}
}

// TestDestroyRacesAttach loops attach → detach on several threads against one
// thread looping create → destroy → seg_free of the VAS and segment they
// attach (run under -race). vas_attach looks the VAS up, builds the space —
// taking a reference on every segment object it maps — and only then
// registers the attachment; vas_destroy must count an attach in that window
// as an attachment, or the segment is freed under it (vm: Ref on destroyed
// object). Every attach either fails with ErrNotFound or yields a space over
// a live object, and nothing leaks.
func TestDestroyRacesAttach(t *testing.T) {
	sys := testSystem(t)
	_, admin := spawn(t, sys)
	var attachers []*Thread
	for w := 0; w < 3; w++ {
		_, th := spawn(t, sys)
		attachers = append(attachers, th)
	}
	baseline := sys.M.PM.AllocatedBytes()

	var current atomic.Uint64 // the VAS to attach; 0 between generations
	var stop atomic.Bool
	var attached, refused atomic.Int64
	var wg sync.WaitGroup
	for _, th := range attachers {
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			for !stop.Load() {
				vid := VASID(current.Load())
				if vid == 0 {
					runtime.Gosched()
					continue
				}
				h, err := th.VASAttach(vid)
				if err != nil {
					if !errors.Is(err, ErrNotFound) {
						t.Errorf("attach: %v, want success or ErrNotFound", err)
						return
					}
					refused.Add(1)
					continue
				}
				attached.Add(1)
				// The space maps the segment: its object must be alive.
				if err := th.VASSwitch(h); err != nil {
					t.Errorf("switch into a fresh attachment: %v", err)
				} else {
					if _, err := th.Load64(segBase(0)); err != nil {
						t.Errorf("load through a fresh attachment: %v", err)
					}
					if err := th.VASSwitch(PrimaryHandle); err != nil {
						t.Error(err)
					}
				}
				if err := th.VASDetach(h); err != nil {
					t.Errorf("detach: %v", err)
					return
				}
			}
		}(th)
	}
	for gen := 0; gen < 300; gen++ {
		sid, err := admin.SegAlloc("race.seg", segBase(0), 4*arch.PageSize, arch.PermRW)
		if err != nil {
			t.Fatal(err)
		}
		vid, err := admin.VASCreate("race.vas", 0o666)
		if err != nil {
			t.Fatal(err)
		}
		if err := admin.SegAttachVAS(vid, sid, arch.PermRead); err != nil {
			t.Fatal(err)
		}
		current.Store(uint64(vid))
		// Let an attach get under way, so that most destroys find one in
		// flight or complete (the spin is bounded: nothing hangs on it).
		for seen, spin := attached.Load(), 0; attached.Load() == seen && spin < 2000; spin++ {
			runtime.Gosched()
		}
		// Destroy as fork.Engine releases a view: the VAS (refused while
		// anything is attached or attaching), then the segment. Attaches that
		// already read the id are under way or about to start.
		current.Store(0)
		for {
			err := admin.VASDestroy(vid)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrBusy) {
				t.Fatal(err)
			}
			runtime.Gosched()
		}
		if err := admin.SegFree(sid); err != nil {
			t.Fatalf("gen %d: seg_free after vas_destroy: %v", gen, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if attached.Load() == 0 {
		t.Errorf("no attach ever succeeded (%d refused)", refused.Load())
	}
	if err := sys.M.PM.CheckLeaks(baseline); err != nil {
		t.Fatal(err)
	}
}

// TestOneNameOneSegment races the four ways a named global segment comes to
// exist — each checks the name, drops sys.mu to build, and registers — with
// several builders of one name (run under -race). Exactly one registers; the
// rest get ErrExists and give their storage back, so freeing the winner
// returns the machine to where it started. Before registerSeg the insert did
// not look again: every racer that passed the first check "won", all but the
// last were unreachable by name, and their frames leaked.
func TestOneNameOneSegment(t *testing.T) {
	sys := testSystem(t)
	var racers []*Thread
	var srcs []SegID // one source per racer: SegForkFrozen wants its source quiesced
	for i := 0; i < 3; i++ {
		_, th := spawn(t, sys)
		sid, err := th.SegAlloc("src"+string(rune('0'+i)), segBase(1+i), 8*arch.PageSize, arch.PermRW)
		if err != nil {
			t.Fatal(err)
		}
		racers, srcs = append(racers, th), append(srcs, sid)
	}
	base := sys.M.PM.AllocatedBytes()
	for _, mk := range []struct {
		name string
		make func(i int) (SegID, error)
	}{
		{"SegAlloc", func(i int) (SegID, error) {
			return racers[i].SegAlloc("same", segBase(0), 64*arch.PageSize, arch.PermRW)
		}},
		{"SegClone", func(i int) (SegID, error) { return racers[i].SegClone(srcs[0], "same") }},
		{"SegCloneCOW", func(i int) (SegID, error) { return racers[i].SegCloneCOW(srcs[0], "same") }},
		{"SegForkFrozen", func(i int) (SegID, error) { return racers[i].SegForkFrozen(srcs[i], "same") }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			for round := 0; round < 200; round++ {
				sids, errs := make([]SegID, len(racers)), make([]error, len(racers))
				start := make(chan struct{})
				var wg sync.WaitGroup
				for i := range racers {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						<-start
						sids[i], errs[i] = mk.make(i)
					}(i)
				}
				close(start)
				wg.Wait()
				winner := -1
				for i, err := range errs {
					switch {
					case err == nil && winner < 0:
						winner = i
					case err == nil:
						t.Fatalf("round %d: racers %d and %d both registered %q", round, winner, i, "same")
					case !errors.Is(err, ErrExists):
						t.Fatalf("round %d: racer %d: %v, want ErrExists", round, i, err)
					}
				}
				if winner < 0 {
					t.Fatalf("round %d: nobody registered: %v", round, errs)
				}
				if found, err := racers[0].SegFind("same"); err != nil || found != sids[winner] {
					t.Fatalf("round %d: SegFind = %d, %v; the winner is %d", round, found, err, sids[winner])
				}
				if err := racers[0].SegFree(sids[winner]); err != nil {
					t.Fatal(err)
				}
				if mk.name == "SegForkFrozen" {
					// The view is gone; its frames fold back into the source.
					seg, _ := sys.seg(srcs[winner])
					seg.Obj.CollapseCOW()
				}
				if err := sys.M.PM.CheckLeaks(base); err != nil {
					t.Fatalf("round %d: after freeing the one segment named %q: %v", round, "same", err)
				}
			}
		})
	}
}
