package fork

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
)

const (
	liveSeg  = "fork.live"
	liveBase = core.GlobalBase
	liveSize = 64 << 10
)

// rig is one process with a live read-write segment attached through its
// own VAS — what a shard node's store is to the fork engine — plus the
// bytes the machine had allocated before any of it existed.
type rig struct {
	t    testing.TB
	sys  *core.System
	proc *core.Process
	th   *core.Thread
	vid  core.VASID
	h    core.Handle
	base uint64
}

func newRig(t testing.TB) *rig { return newRigSized(t, liveSize) }

func newRigSized(t testing.TB, size uint64) *rig {
	t.Helper()
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	r := &rig{t: t, sys: sys, base: sys.M.PM.AllocatedBytes()}
	var err error
	if r.proc, err = sys.NewProcess(core.Creds{UID: 1, GID: 1}); err != nil {
		t.Fatal(err)
	}
	if r.th, err = r.proc.NewThread(); err != nil {
		t.Fatal(err)
	}
	sid, err := r.th.SegAlloc(liveSeg, liveBase, size, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if r.vid, err = r.th.VASCreate("fork.live.vas", 0o666); err != nil {
		t.Fatal(err)
	}
	if err := r.th.SegAttachVAS(r.vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if r.h, err = r.th.VASAttach(r.vid); err != nil {
		t.Fatal(err)
	}
	return r
}

// store writes one word of the live segment through the live VAS.
func (r *rig) store(off int, v uint64) {
	r.t.Helper()
	if err := r.th.VASSwitch(r.h); err != nil {
		r.t.Fatal(err)
	}
	err := r.th.Store64(liveBase+arch.VirtAddr(off), v)
	if serr := r.th.VASSwitch(core.PrimaryHandle); err == nil {
		err = serr
	}
	if err != nil {
		r.t.Fatalf("store at +%d: %v", off, err)
	}
}

// teardown closes the engine, destroys the live store and checks that the
// machine is back to what it had allocated before the rig.
func (r *rig) teardown(e *Engine) {
	r.t.Helper()
	if err := e.Close(r.th); err != nil {
		r.t.Fatalf("Close: %v", err)
	}
	if err := r.th.VASDetach(r.h); err != nil {
		r.t.Fatal(err)
	}
	sid, err := r.th.SegFind(liveSeg)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.th.SegDetachVAS(r.vid, sid); err != nil {
		r.t.Fatal(err)
	}
	if err := r.th.VASDestroy(r.vid); err != nil {
		r.t.Fatal(err)
	}
	if err := r.th.SegFree(sid); err != nil {
		r.t.Fatal(err)
	}
	r.proc.Exit()
	if err := r.sys.M.PM.CheckLeaks(r.base); err != nil {
		r.t.Fatalf("after Close and teardown: %v", err)
	}
}

// wordAt reads one word out of a segment image; an absent page reads zero.
func wordAt(img *core.SegmentImage, off uint64) uint64 {
	i, ok := slices.BinarySearch(img.Index, off/img.PageSize)
	if !ok {
		return 0
	}
	return binary.LittleEndian.Uint64(img.Page(i)[off%img.PageSize:])
}

// A view is the store at the instant of the fork: writes that go through
// the live VAS afterwards break COW into private frames and never reach it,
// on a page the view holds and on a page nobody had touched.
func TestViewIsPointInTime(t *testing.T) {
	r := newRig(t)
	e := New(r.sys, nil)
	const touched, fresh = 8, 3 * 4096
	r.store(touched, 111)

	v, err := e.Fork(r.th, 0, liveSeg)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if v.Node() != 0 || e.Current(0) != v {
		t.Fatalf("Fork published node %d, Current = %p, want the view %p of node 0", v.Node(), e.Current(0), v)
	}
	r.store(touched, 222)
	r.store(fresh, 333)

	img, err := e.Image(v, 0)
	if err != nil {
		t.Fatalf("Image: %v", err)
	}
	if img.Seq != v.Gen() || img.Size != liveSize {
		t.Errorf("image seq %d size %d, want gen %d size %d", img.Seq, img.Size, v.Gen(), liveSize)
	}
	if got := wordAt(img, touched); got != 111 {
		t.Errorf("view reads %d at +%d, want the pre-fork 111", got, touched)
	}
	if got := wordAt(img, fresh); got != 0 {
		t.Errorf("view reads %d at +%d, want 0: the page was written after the fork", got, fresh)
	}

	// The next view sees what the live store holds now.
	v2, err := e.Fork(r.th, 0, liveSeg)
	if err != nil {
		t.Fatalf("second Fork: %v", err)
	}
	img2, err := e.Image(v2, 0)
	if err != nil {
		t.Fatalf("Image of the second view: %v", err)
	}
	if a, b := wordAt(img2, touched), wordAt(img2, fresh); a != 222 || b != 333 {
		t.Errorf("second view reads %d and %d, want 222 and 333", a, b)
	}
	r.teardown(e)
}

// Generations are one strictly increasing sequence across nodes: a view's
// generation fences it against every older one, whoever forked it.
func TestGenerationsStrictlyIncrease(t *testing.T) {
	r := newRig(t)
	e := New(r.sys, nil)
	var last uint64
	for i := 0; i < 6; i++ {
		v, err := e.Fork(r.th, i%2, liveSeg)
		if err != nil {
			t.Fatalf("Fork %d: %v", i, err)
		}
		if v.Gen() <= last {
			t.Fatalf("fork %d has generation %d after %d", i, v.Gen(), last)
		}
		last = v.Gen()
	}
	r.teardown(e)
}

// InvalidateNode fences a node's views at once — Current forgets them and
// their images are refused — and leaves other nodes' views alone.
func TestInvalidateNodeFencesViews(t *testing.T) {
	r := newRig(t)
	e := New(r.sys, nil)
	v0, err := e.Fork(r.th, 0, liveSeg)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := e.Fork(r.th, 1, liveSeg)
	if err != nil {
		t.Fatal(err)
	}
	e.InvalidateNode(0, "test")
	if !v0.Invalid() || e.Current(0) != nil {
		t.Errorf("after InvalidateNode(0): Invalid = %v, Current(0) = %p, want true and nil", v0.Invalid(), e.Current(0))
	}
	if _, err := e.Image(v0, 0); !errors.Is(err, core.ErrInvalid) {
		t.Errorf("Image of an invalidated view: %v, want ErrInvalid", err)
	}
	if v1.Invalid() || e.Current(1) != v1 {
		t.Errorf("InvalidateNode(0) touched node 1: Invalid = %v, Current(1) = %p", v1.Invalid(), e.Current(1))
	}
	e.InvalidateNode(0, "again") // nothing left to fence
	var nilEngine *Engine
	nilEngine.InvalidateNode(0, "replication off")
	if nilEngine.Current(0) != nil {
		t.Error("a nil engine has a current view")
	}
	r.teardown(e)
}

// A superseded view that a reader is attached to survives the sweep a fork
// runs, and is reclaimed by the first sweep after the reader detached.
func TestAttachedViewSurvivesSweep(t *testing.T) {
	r := newRig(t)
	e := New(r.sys, nil)
	v1, err := e.Fork(r.th, 0, liveSeg)
	if err != nil {
		t.Fatal(err)
	}
	readerProc, err := r.sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		t.Fatal(err)
	}
	reader, err := readerProc.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	h, err := reader.VASAttach(v1.VID())
	if err != nil {
		t.Fatalf("reader attach: %v", err)
	}
	exists := func(v *View) bool {
		_, err := r.th.SegFind(v.SegName())
		return err == nil
	}

	v2, err := e.Fork(r.th, 0, liveSeg) // retires v1 and sweeps: v1 is attached
	if err != nil {
		t.Fatal(err)
	}
	if !exists(v1) {
		t.Fatal("a view with a reader attached was reclaimed by the sweep")
	}
	if v1.Invalid() {
		t.Error("a superseded view was invalidated: it is only older, not wrong")
	}
	if err := reader.VASSwitch(h); err != nil {
		t.Fatalf("reader switch into the retired view: %v", err)
	}
	if err := reader.VASSwitch(core.PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	if err := reader.VASDetach(h); err != nil {
		t.Fatal(err)
	}
	readerProc.Exit()

	if _, err := e.Fork(r.th, 0, liveSeg); err != nil { // retires v2, sweeps both
		t.Fatal(err)
	}
	if exists(v1) || exists(v2) {
		t.Errorf("after the reader detached, the next sweep left v1 (%v) or v2 (%v) behind", exists(v1), exists(v2))
	}
	r.teardown(e)
}

// The owner forks and writes while other goroutines look views up and fence
// them: what the cluster's workers and its monitor do to a node's engine.
// No observer ever sees the current view get older, and every frame comes
// back at Close.
func TestConcurrentLookupAndInvalidate(t *testing.T) {
	r := newRig(t)
	e := New(r.sys, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// (A view may be fenced the moment after Current returned it:
				// that is what readers re-check Invalid for.)
				if v := e.Current(0); v != nil {
					if v.Gen() < last {
						t.Errorf("Current went back from generation %d to %d", last, v.Gen())
						return
					}
					last = v.Gen()
				}
				if g == 0 && i%64 == 0 {
					e.InvalidateNode(0, "test")
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		r.store((i%8)*4096, uint64(i))
		if _, err := e.Fork(r.th, 0, liveSeg); err != nil {
			t.Errorf("Fork %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	r.teardown(e)
}

// Every fork publishes view k+1 before the sweep releases view k, so the live
// segment's immediate COW parent is always a view somebody holds. Released
// generations must fold away all the same: with a rotating subset of pages
// written between forks the machine's allocation is flat from the third round
// on, every image is the store at its fork, and a view a reader stays
// attached to survives — intact — while the generations forked and released
// around it still give their superseded frames back.
func TestReleasedGenerationsFold(t *testing.T) {
	r := newRig(t)
	e := New(r.sys, nil)
	pm := r.sys.M.PM
	shadow := map[uint64]uint64{} // offset -> word, what the live store holds
	write := func(round int) {
		for i := 0; i < 4; i++ {
			off := uint64((round*3+i*5)%16*4096 + 8*i)
			shadow[off] = uint64(round)<<8 | uint64(i)
			r.store(int(off), shadow[off])
		}
	}
	snapshot := func() map[uint64]uint64 {
		out := make(map[uint64]uint64, len(shadow))
		for off, w := range shadow {
			out[off] = w
		}
		return out
	}
	check := func(v *View, want map[uint64]uint64, when string) {
		t.Helper()
		img, err := e.Image(v, 0)
		if err != nil {
			t.Fatalf("%s: Image of gen %d: %v", when, v.Gen(), err)
		}
		for off, w := range want {
			if got := wordAt(img, off); got != w {
				t.Fatalf("%s: gen %d reads %#x at +%d, want %#x", when, v.Gen(), got, off, w)
			}
		}
	}
	// flat forks and writes for rounds rounds; the allocation must not move
	// after round from.
	flat := func(rounds, from int, what string) uint64 {
		t.Helper()
		var steady uint64
		for round := 1; round <= rounds; round++ {
			v, err := e.Fork(r.th, 0, liveSeg)
			if err != nil {
				t.Fatalf("%s round %d: Fork: %v", what, round, err)
			}
			want := snapshot()
			write(round)
			check(v, want, what)
			switch got := pm.AllocatedBytes(); {
			case round == from:
				steady = got
			case round > from && got != steady:
				t.Fatalf("%s round %d: %d bytes allocated, %d after round %d: released generations are not folding",
					what, round, got, steady, from)
			}
		}
		return steady
	}
	write(0)
	steady := flat(40, 3, "no reader")

	held, err := e.Fork(r.th, 0, liveSeg)
	if err != nil {
		t.Fatal(err)
	}
	heldWant := snapshot()
	readerProc, err := r.sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		t.Fatal(err)
	}
	reader, err := readerProc.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	h, err := reader.VASAttach(held.VID())
	if err != nil {
		t.Fatal(err)
	}
	// Above the held view the superseded frames of released generations still
	// go: what stays is one frame per page written since it was forked, all
	// sixteen of them within a few rounds.
	flat(20, 8, "reader attached to an older view")
	if _, err := r.th.SegFind(held.SegName()); err != nil {
		t.Fatalf("the view a reader is attached to was reclaimed: %v", err)
	}
	check(held, heldWant, "twenty forks later")

	if err := reader.VASDetach(h); err != nil {
		t.Fatal(err)
	}
	readerProc.Exit()
	if got := flat(6, 3, "reader gone"); got != steady {
		t.Errorf("%d bytes allocated after the reader detached, %d before it attached", got, steady)
	}
	r.teardown(e)
}

// pageWords reads word 0 of every page an image holds, by page index.
func pageWords(img *core.SegmentImage) map[uint64]uint64 {
	out := map[uint64]uint64{}
	for i, idx := range img.Index {
		out[idx] = binary.LittleEndian.Uint64(img.Page(i))
	}
	return out
}

// An image is a delta exactly when the receiver holds the generation the view
// was forked over: then it is the pages written since, in page order, and
// nothing else; for any other receiver it is every page. A fork that failed
// half way (its VAS name is taken) or whose view was fenced before anyone
// extracted it still counts: the next view's delta is over it only for a
// receiver that holds it, and nobody does.
func TestImageIsDeltaOverBaseOnly(t *testing.T) {
	r := newRig(t)
	e := New(r.sys, nil)
	const pages = liveSize / arch.PageSize
	page := func(p int) int { return p * arch.PageSize }
	r.store(page(1), 11)
	v1, err := e.Fork(r.th, 0, liveSeg)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Base() != 0 {
		t.Fatalf("a node's first view is a delta over generation %d", v1.Base())
	}
	full, err := e.Image(v1, 0)
	if err != nil || full.Base != 0 || len(full.Index) != pages || len(full.Data) != liveSize {
		t.Fatalf("first image: %v, base %d, %d pages, %d bytes; want every page", err, full.Base, len(full.Index), len(full.Data))
	}

	r.store(page(5), 55)
	r.store(page(2), 22)
	r.store(page(5)+8, 56)
	v2, err := e.Fork(r.th, 0, liveSeg)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Base() != v1.Gen() {
		t.Fatalf("second view is over generation %d, want %d", v2.Base(), v1.Gen())
	}
	delta, err := e.Image(v2, v1.Gen())
	if err != nil || delta.Base != v1.Gen() || delta.Seq != v2.Gen() {
		t.Fatalf("delta image: %v, base %d, seq %d", err, delta.Base, delta.Seq)
	}
	if got, want := pageWords(delta), map[uint64]uint64{2: 22, 5: 55}; !reflect.DeepEqual(got, want) || !slices.IsSorted(delta.Index) {
		t.Fatalf("delta holds pages %v (index %v), want %v in page order", got, delta.Index, want)
	}
	if wordAt(delta, uint64(page(5)+8)) != 56 {
		t.Error("delta's page 5 lost its second word")
	}
	for _, have := range []uint64{0, v2.Gen(), v1.Gen() + 100} {
		img, err := e.Image(v2, have)
		if err != nil || img.Base != 0 || len(img.Index) != pages {
			t.Fatalf("image for a receiver holding %d: %v, base %d, %d pages; want a full one", have, err, img.Base, len(img.Index))
		}
		if got := pageWords(img); got[1] != 11 || got[2] != 22 || got[5] != 55 {
			t.Fatalf("full image for a receiver holding %d reads %v", have, got)
		}
	}

	// Nothing written: the delta is empty, not "every page".
	v3, err := e.Fork(r.th, 0, liveSeg)
	if err != nil {
		t.Fatal(err)
	}
	if img, err := e.Image(v3, v2.Gen()); err != nil || img.Base != v2.Gen() || len(img.Index) != 0 {
		t.Fatalf("image of an unwritten generation: %v, base %d, %d pages; want an empty delta", err, img.Base, len(img.Index))
	}

	// A fork that fails after the frames were frozen folds them back: the
	// next view's set covers both intervals, over the last view that was made.
	r.store(page(7), 77)
	taken, err := r.th.VASCreate(fmt.Sprintf("%s@fork%d.vas", liveSeg, v3.Gen()+1), 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := e.Fork(r.th, 0, liveSeg); err == nil {
		t.Fatalf("fork into a taken VAS name made generation %d", v.Gen())
	}
	if err := r.th.VASDestroy(taken); err != nil {
		t.Fatal(err)
	}
	r.store(page(9), 99)
	v5, err := e.Fork(r.th, 0, liveSeg)
	if err != nil {
		t.Fatal(err)
	}
	if v5.Base() != v3.Gen() {
		t.Fatalf("the view after a failed fork is over generation %d, want %d", v5.Base(), v3.Gen())
	}
	img, err := e.Image(v5, v3.Gen())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pageWords(img), map[uint64]uint64{7: 77, 9: 99}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delta after a failed fork holds %v, want %v: the failed fork's pages must be in it", got, want)
	}

	// A view fenced before extraction is refused, and still the base of the
	// next one: a receiver left at v5 gets a full image.
	r.store(page(3), 33)
	v6, err := e.Fork(r.th, 0, liveSeg)
	if err != nil {
		t.Fatal(err)
	}
	e.InvalidateNode(0, "test")
	if _, err := e.Image(v6, v5.Gen()); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("image of a fenced view: %v", err)
	}
	r.store(page(4), 44)
	v7, err := e.Fork(r.th, 0, liveSeg)
	if err != nil {
		t.Fatal(err)
	}
	if v7.Base() != v6.Gen() {
		t.Fatalf("the view after a fenced one is over generation %d, want %d", v7.Base(), v6.Gen())
	}
	if img, err := e.Image(v7, v5.Gen()); err != nil || img.Base != 0 || len(img.Index) != pages {
		t.Fatalf("image for a receiver two generations behind: %v, base %d, %d pages; want a full one", err, img.Base, len(img.Index))
	}
	r.teardown(e)
}
