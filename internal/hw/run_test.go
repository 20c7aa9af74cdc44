package hw

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/mem"
	"spacejmp/internal/pt"
	"spacejmp/internal/stats"
)

// The run-length accesses are defined as these loops, which is what every
// caller wrote out before Core.LoadWords/StoreWords existed.
func loadLoop(load func(arch.VirtAddr) (uint64, error), va arch.VirtAddr, buf []byte) (int, error) {
	for i := 0; i < len(buf)/8; i++ {
		w, err := load(va + arch.VirtAddr(i*8))
		if err != nil {
			return i, err
		}
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	return len(buf) / 8, nil
}

func storeLoop(store func(arch.VirtAddr, uint64) error, va arch.VirtAddr, buf []byte) (int, error) {
	for i := 0; i < len(buf)/8; i++ {
		if err := store(va+arch.VirtAddr(i*8), binary.LittleEndian.Uint64(buf[i*8:])); err != nil {
			return i, err
		}
	}
	return len(buf) / 8, nil
}

// refLoadWords and refStoreWords are the loops over today's Load64 and
// Store64: the word-loop rows of BenchmarkLoadWords/StoreWords.
func refLoadWords(c *Core, va arch.VirtAddr, buf []byte) (int, error) {
	return loadLoop(c.Load64, va, buf)
}

func refStoreWords(c *Core, va arch.VirtAddr, buf []byte) (int, error) {
	return storeLoop(c.Store64, va, buf)
}

// The four accesses as a test issues them: on the machine under test through
// the core (L0, run lengths), on the reference machine one word at a time down
// the path the L0 replaced (model_translate_test.go).
func (os *runOS) load(va arch.VirtAddr) (uint64, error) {
	if os.parent {
		return refLoad64(os.c, va)
	}
	return os.c.Load64(va)
}

func (os *runOS) store(va arch.VirtAddr, v uint64) error {
	if os.parent {
		return refStore64(os.c, va, v)
	}
	return os.c.Store64(va, v)
}

func (os *runOS) loadWords(va arch.VirtAddr, buf []byte) (int, error) {
	if os.parent {
		return loadLoop(os.load, va, buf)
	}
	return os.c.LoadWords(va, buf)
}

func (os *runOS) storeWords(va arch.VirtAddr, buf []byte) (int, error) {
	if os.parent {
		return storeLoop(os.store, va, buf)
	}
	return os.c.StoreWords(va, buf)
}

// twins boots the machine under test and the reference machine.
func twins(t *testing.T, withStats bool) [2]*runOS {
	t.Helper()
	pair := [2]*runOS{newRunOS(t, withStats), newRunOS(t, withStats)}
	pair[1].parent = true
	return pair
}

// runOS is the least operating system the differential test needs under a
// core: two address spaces over one layout, a fault handler that maps lazy
// pages and breaks copy-on-write pages, and a record of which frame backs
// which page so that memory can be compared without going through the MMU.
//
// The layout, from runBase, is smallPages 4 KiB pages — by index mod 16:
// 3 copy-on-write (mapped read-only until a store faults), 7 read-only (until
// protect flips it), 11 a hole, 13 lazy (mapped by the first touch), the rest
// read-write, with pages 32-47 in the NVM tier — from hugeBase two 2 MiB
// pages, and at giantBase one global, read-only 1 GiB page over physical
// memory from address 0. With a 16x4 TLB, six small pages compete for every
// set, and three for every L0 slot.
type runOS struct {
	m      *Machine
	c      *Core
	spaces [2]*runSpace
	cur    int
	parent bool   // accesses take the reference path
	joined uint64 // the core's cycles when the sink it reports to was installed
}

type runSpace struct {
	table  *pt.Table
	asid   arch.ASID
	frames map[arch.VirtAddr]arch.PhysAddr // page base -> frame, 4 KiB and 2 MiB alike
	broken map[arch.VirtAddr]bool          // copy-on-write pages that have their own frame
	opened map[arch.VirtAddr]bool          // read-only pages protect has made writable
}

const (
	runBase    arch.VirtAddr = 0x1000_0000
	hugeBase   arch.VirtAddr = 0x4000_0000
	giantBase  arch.VirtAddr = 0x8000_0000
	giantReach               = 256 << 20 // how far into the 1 GiB page the tests read
	smallPages               = 96
	hugePages                = 2
)

func pageKind(idx int) string {
	switch idx % 16 {
	case 3:
		return "cow"
	case 7:
		return "ro"
	case 11:
		return "hole"
	case 13:
		return "lazy"
	}
	return "rw"
}

func newRunOS(t *testing.T, withStats bool) *runOS {
	t.Helper()
	m := NewMachine(SmallTest())
	if withStats {
		m.EnableStats(0)
	}
	os := &runOS{m: m, c: m.Cores[0]}
	for i, asid := range []arch.ASID{arch.ASIDFlush, 5} {
		tbl, err := pt.New(m.PM)
		if err != nil {
			t.Fatal(err)
		}
		tbl.SetObserver(m.Observer().PTObs())
		sp := &runSpace{table: tbl, asid: asid, frames: map[arch.VirtAddr]arch.PhysAddr{},
			broken: map[arch.VirtAddr]bool{}, opened: map[arch.VirtAddr]bool{}}
		os.spaces[i] = sp
		for idx := 0; idx < smallPages; idx++ {
			va := runBase + arch.VirtAddr(idx*arch.PageSize)
			switch pageKind(idx) {
			case "hole", "lazy":
				continue
			case "cow", "ro":
				os.mapNew(t, sp, va, idx, arch.PermRead)
			default:
				os.mapNew(t, sp, va, idx, arch.PermRW)
			}
		}
		for h := 0; h < hugePages; h++ {
			pa, err := m.PM.AllocFrames(9, mem.TierDRAM)
			if err != nil {
				t.Fatal(err)
			}
			va := hugeBase + arch.VirtAddr(h*arch.HugePageSize)
			if err := tbl.MapPage(va, pa, arch.HugePageSize, arch.PermRW, false); err != nil {
				t.Fatal(err)
			}
			sp.frames[va] = pa
		}
		if err := tbl.MapPage(giantBase, 0, arch.GiantPageSize, arch.PermRead, true); err != nil {
			t.Fatal(err)
		}
	}
	os.c.OnFault = os.fault
	os.c.LoadCR3(os.spaces[0].table, os.spaces[0].asid)
	return os
}

// mapNew backs the page at va with a fresh frame holding a pattern of its
// own, so that read-only and not-yet-written pages have content to compare.
func (os *runOS) mapNew(t *testing.T, sp *runSpace, va arch.VirtAddr, idx int, perm arch.Perm) {
	t.Helper()
	if err := os.mapPage(sp, va, idx, perm); err != nil {
		t.Fatal(err)
	}
}

func (os *runOS) mapPage(sp *runSpace, va arch.VirtAddr, idx int, perm arch.Perm) error {
	tier := mem.TierDRAM
	if idx >= 32 && idx < 48 {
		tier = mem.TierNVM
	}
	pa, err := os.m.PM.AllocFrames(0, tier)
	if err != nil {
		return err
	}
	for w := 0; w < arch.PageSize/8; w += 5 {
		if err := os.m.PM.Store64(pa+arch.PhysAddr(w*8), uint64(va)+uint64(w)); err != nil {
			return err
		}
	}
	sp.frames[va] = pa
	return sp.table.MapPage(va, pa, arch.PageSize, perm, false)
}

// fault is the OS's page-fault handler: a first touch of a lazy page maps it,
// a store to a copy-on-write page gives it a frame of its own, and anything
// else — a hole, a store to a read-only page — is the program's error.
func (os *runOS) fault(c *Core, f *PageFault) error {
	sp := os.spaces[os.cur]
	base := arch.AlignDown(f.VA, arch.PageSize)
	if base < runBase || base >= runBase+smallPages*arch.PageSize {
		return fmt.Errorf("segmentation fault: %v %v", f.Access, f.VA)
	}
	idx := int(base-runBase) / arch.PageSize
	_, isMapped := sp.frames[base]
	switch kind := pageKind(idx); {
	case kind == "lazy" && !isMapped:
		return os.mapPage(sp, base, idx, arch.PermRW)
	case kind == "cow" && f.Access == arch.AccessWrite && !sp.broken[base]:
		old := sp.frames[base]
		page := make([]byte, arch.PageSize)
		if err := os.m.PM.ReadAt(old, page); err != nil {
			return err
		}
		if err := sp.table.Unmap(base, arch.PageSize); err != nil {
			return err
		}
		c.TLB.FlushPage(sp.asid, base)
		if err := os.mapPage(sp, base, idx, arch.PermRW); err != nil {
			return err
		}
		sp.broken[base] = true
		return os.m.PM.WriteAt(sp.frames[base], page)
	}
	return fmt.Errorf("protection fault: %v %v", f.Access, f.VA)
}

// protect flips a read-only page of the current space between read-only and
// read-write. An upgrade tells the TLB nothing — the stale entry denies the
// next store, and the MMU drops it and walks again — a downgrade shoots the
// entry down, as it must.
func (os *runOS) protect(va arch.VirtAddr) error {
	sp := os.spaces[os.cur]
	if sp.opened[va] = !sp.opened[va]; sp.opened[va] {
		return sp.table.Protect(va, arch.PageSize, arch.PermRW)
	}
	os.c.TLB.FlushPage(sp.asid, va)
	return sp.table.Protect(va, arch.PageSize, arch.PermRead)
}

// content returns the bytes behind [va, va+n) of the current space read
// straight from physical memory; unmapped pages read as 0xEE.
func (os *runOS) content(va arch.VirtAddr, n int) []byte {
	sp := os.spaces[os.cur]
	out := make([]byte, n)
	for off := 0; off < n; {
		a := va + arch.VirtAddr(off)
		ps := uint64(arch.PageSize)
		if a >= hugeBase {
			ps = arch.HugePageSize
		}
		base := arch.AlignDown(a, ps)
		chunk := min(n-off, int(ps-uint64(a-base)))
		if pa, ok := sp.frames[base]; ok {
			if err := os.m.PM.ReadAt(pa+arch.PhysAddr(a-base), out[off:off+chunk]); err != nil {
				panic(err)
			}
		} else {
			for i := off; i < off+chunk; i++ {
				out[i] = 0xEE
			}
		}
		off += chunk
	}
	return out
}

// observed is everything the model defines about a machine after an access.
type observed struct {
	Cycles uint64
	MMU    any // mmuCounts, with stats on
	Snap   any // the whole stats snapshot, settled: every Cat, per-ASID counters, nvm.*
	Mem    mem.Stats
}

// mmuCounts is what the sink holds of the MMU's events: the core's row without
// its cycles, the per-tag counters and the TLB totals.
type mmuCounts struct {
	Core  stats.CoreSnap
	ASIDs map[arch.ASID]stats.ASIDSnap
	TLB   stats.TLBSnap
}

// mmu reads the MMU's counts from the sink (nil with stats off), with the hits
// the core still owes it added where its next settle will put them: every
// other count is published as it happens, so these are exact at any time.
func (os *runOS) mmu() any {
	snap := os.m.StatsSnapshot()
	if snap == nil {
		return nil
	}
	m := mmuCounts{Core: snap.Cores[0], ASIDs: snap.ASIDs, TLB: snap.TLB}
	m.Core.Cycles, m.Core.ByCat = 0, nil
	if owed := os.c.deferred; owed > 0 {
		a := m.ASIDs[os.c.asid]
		a.Hits += owed
		m.ASIDs[os.c.asid] = a
		m.Core.TLBHits += owed
		m.TLB.Hits += owed
	}
	return m
}

// observe reads the machine: the core's cycles and the MMU's counts after every
// access, and, if asked to settle, the whole snapshot, which is comparable only
// settled. A test asks at every CR3 write, which settles anyway, and otherwise
// seldom enough that faults and shootdowns also land on a core that owes.
func (os *runOS) observe(settle bool) observed {
	o := observed{Cycles: os.c.Cycles(), MMU: os.mmu(), Mem: os.m.PM.Stats()}
	if !settle {
		return o
	}
	os.c.settle() // nothing to do on the reference machine
	if m := os.mmu(); !reflect.DeepEqual(m, o.MMU) {
		panic(fmt.Sprintf("settling moved the MMU's counts from %+v (owed hits included) to %+v", o.MMU, m))
	}
	if snap := os.m.StatsSnapshot(); snap != nil {
		o.Snap = *snap
	}
	return o
}

// runLengths are the shapes the issue names: inside a page, across one to
// three boundaries, and long enough that with six pages per TLB set the run
// evicts the entry of its own first page before it ends.
func runLength(rng *rand.Rand) int {
	switch r := rng.Intn(100); {
	case r < 40:
		return 1 + rng.Intn(24)
	case r < 75:
		return 1 + rng.Intn(3*arch.PageSize/8+40)
	case r < 97:
		return arch.PageSize/8 + rng.Intn(2*arch.PageSize/8)
	}
	return 66*arch.PageSize/8 + rng.Intn(100)
}

// TestRunLengthIsTheSameMachine feeds one seeded stream of accesses to two
// machines. One issues them through the core as it is — single words the L0
// may serve, multi-word accesses through LoadWords/StoreWords — the other one
// word at a time down the path kept in model_translate_test.go. After every
// operation, once the first has settled, the two must agree on the outcome
// (words done, error, bytes loaded), on every modelled counter — cycles, MMU
// events, every category and per-tag counter of the sink — and on memory.
func TestRunLengthIsTheSameMachine(t *testing.T) {
	for _, tc := range []struct {
		name      string
		withStats bool
		seeds     int
	}{{"stats", true, 3}, {"nostats", false, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(tc.seeds); seed++ {
				runDifferential(t, seed, tc.withStats, 1500)
			}
		})
	}
}

// agree fails unless the twins have counted the same and, settled with stats
// on, the machine under test has published exactly the cycles its core holds.
func agree(t *testing.T, pair [2]*runOS, settle bool, when string) {
	t.Helper()
	g, w := pair[0].observe(settle), pair[1].observe(settle)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: machines diverge\nunder test: %+v\nreference:  %+v", when, g, w)
	}
	if snap := pair[0].m.StatsSnapshot(); settle && snap != nil {
		if c := snap.Cores[0]; c.Cycles != g.Cycles-pair[0].joined {
			t.Fatalf("%s: published %+v, the core holds %d cycles, %d of them since the sink", when, c, g.Cycles, g.Cycles-pair[0].joined)
		}
	}
}

func runDifferential(t *testing.T, seed int64, withStats bool, ops int) {
	t.Helper()
	pair := twins(t, withStats)
	fast, ref := pair[0], pair[1]
	rng := rand.New(rand.NewSource(seed))
	var runs, faulted, short int
	for op := 0; op < ops; op++ {
		desc, switched := "", false
		switch r := rng.Intn(100); {
		case r < 6:
			// Switch address space: untagged flushes, tagged keeps entries.
			for _, os := range pair {
				os.cur = 1 - os.cur
				os.c.LoadCR3(os.spaces[os.cur].table, os.spaces[os.cur].asid)
			}
			desc, switched = fmt.Sprintf("switch to space %d", fast.cur), true
		case r < 9:
			// A read-only page changes permission under a cached entry.
			va := runBase + arch.VirtAddr((7+16*rng.Intn(smallPages/16))*arch.PageSize)
			for _, os := range pair {
				if err := os.protect(va); err != nil {
					t.Fatal(err)
				}
			}
			desc = fmt.Sprintf("protect %v (writable %v)", va, fast.spaces[fast.cur].opened[va])
		case r < 32:
			// Single words: they hit in the L0, or observe the replacement
			// state the hits and runs before them left behind.
			va := runBase + arch.VirtAddr(rng.Intn(smallPages)*arch.PageSize+rng.Intn(arch.PageSize/8)*8)
			if rng.Intn(6) == 0 {
				va = giantBase + arch.VirtAddr(rng.Intn(giantReach/8)*8)
			}
			store, v := rng.Intn(3) == 0, rng.Uint64()
			var errs [2]error
			var got [2]uint64
			for i, os := range pair {
				if store {
					errs[i] = os.store(va, v)
				} else {
					got[i], errs[i] = os.load(va)
				}
			}
			desc = fmt.Sprintf("word at %v (store %v)", va, store)
			if got[0] != got[1] || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
				t.Fatalf("seed %d op %d %s: (%#x, %v) vs (%#x, %v)", seed, op, desc, got[0], errs[0], got[1], errs[1])
			}
		default:
			n := runLength(rng)
			var va arch.VirtAddr
			switch rng.Intn(8) {
			case 0:
				// 2 MiB pages, sometimes across their boundary.
				va = hugeBase + arch.VirtAddr(rng.Intn(2*arch.HugePageSize/8-n)*8)
				if rng.Intn(3) == 0 {
					va = hugeBase + arch.HugePageSize - arch.VirtAddr(8*(1+rng.Intn(n)))
				}
			case 1:
				va = giantBase + arch.VirtAddr(rng.Intn(giantReach/8)*8)
			default:
				va = runBase + arch.VirtAddr(rng.Intn(smallPages)*arch.PageSize+rng.Intn(arch.PageSize/8)*8)
			}
			store := rng.Intn(2) == 0
			data := make([]byte, n*8)
			rng.Read(data)
			// Zero words too: applyImage never stores them, the store does.
			if rng.Intn(4) == 0 {
				clear(data[:len(data)/2])
			}
			bufs := [2][]byte{bytes.Clone(data), bytes.Clone(data)}
			var done [2]int
			var errs [2]error
			for i, os := range pair {
				if store {
					done[i], errs[i] = os.storeWords(va, bufs[i])
				} else {
					done[i], errs[i] = os.loadWords(va, bufs[i])
				}
			}
			desc = fmt.Sprintf("run of %d words at %v (store %v)", n, va, store)
			if done[0] != done[1] || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
				t.Fatalf("seed %d op %d %s: done %d err %v, word loop done %d err %v",
					seed, op, desc, done[0], errs[0], done[1], errs[1])
			}
			if !bytes.Equal(bufs[0], bufs[1]) {
				t.Fatalf("seed %d op %d %s: loaded bytes differ from the word loop's", seed, op, desc)
			}
			if va < giantBase && !bytes.Equal(fast.content(va, n*8), ref.content(va, n*8)) {
				t.Fatalf("seed %d op %d %s: memory differs from the word loop's", seed, op, desc)
			}
			runs++
			if errs[0] != nil {
				faulted++
			}
			if n < 8 {
				short++
			}
		}
		agree(t, pair, rng.Intn(5) == 0 || switched || op == ops-1, fmt.Sprintf("seed %d op %d %s", seed, op, desc))
	}
	// Everything, once more, through physical memory.
	for cur := 0; cur < 2; cur++ {
		fast.cur, ref.cur = cur, cur
		if !bytes.Equal(fast.content(runBase, smallPages*arch.PageSize), ref.content(runBase, smallPages*arch.PageSize)) ||
			!bytes.Equal(fast.content(hugeBase, hugePages*arch.HugePageSize), ref.content(hugeBase, hugePages*arch.HugePageSize)) {
			t.Fatalf("seed %d: final memory of space %d differs", seed, cur)
		}
	}
	if runs < ops/2 || faulted == 0 || faulted == runs || short == 0 {
		t.Errorf("seed %d exercised too little: %d runs, %d faulted, %d short", seed, runs, faulted, short)
	}
	if snap := fast.m.StatsSnapshot(); withStats && (snap.TLB.Evictions == 0 || snap.TLB.Misses == 0 || snap.NVM.Writes == 0) {
		t.Errorf("seed %d exercised too little: tlb %+v, nvm %+v", seed, snap.TLB, snap.NVM)
	}
}

// TestRunLengthNamedCases pins the cases the differential stream reaches
// only by chance, each against the reference machine.
func TestRunLengthNamedCases(t *testing.T) {
	page := func(i int) arch.VirtAddr { return runBase + arch.VirtAddr(i*arch.PageSize) }
	for _, tc := range []struct {
		name  string
		va    arch.VirtAddr
		words int
		store bool
		done  int // words completed; -1: all
	}{
		{"mid-page to mid-page", page(0) + 0x800, 512, false, -1},
		{"three boundaries", page(0) + 0xff8, 1 + 3*512, true, -1},
		{"into a hole", page(9) + 0x100, 3 * 512, false, 2*512 - 0x100/8},
		{"read-only page mid-run", page(5) + 0x10, 3 * 512, true, 2*512 - 0x10/8},
		{"COW break on the second page", page(2) + 0xf00, 700, true, -1},
		{"lazy page in the middle", page(12) + 8, 1400, true, -1},
		{"NVM pages", page(33), 1024, true, -1},
		{"huge pages across the boundary", hugeBase + arch.HugePageSize - 4096, 1100, true, -1},
		{"the giant page", giantBase + 0x123450, 2000, false, -1},
		{"unaligned", page(0) + 4, 16, false, 0},
		{"one word", page(1), 1, true, -1},
		{"nothing", page(1), 0, true, -1},
	} {
		for _, space := range []int{0, 1} { // untagged, tagged
			t.Run(fmt.Sprintf("%s/space%d", tc.name, space), func(t *testing.T) {
				pair := twins(t, true)
				data := make([]byte, tc.words*8)
				rand.New(rand.NewSource(7)).Read(data)
				var done [2]int
				var errs [2]error
				// Twice: the second time every page that can be is in the L0.
				for round := 0; round < 2; round++ {
					for i, os := range pair {
						os.cur = space
						os.c.LoadCR3(os.spaces[space].table, os.spaces[space].asid)
						if buf := bytes.Clone(data); tc.store {
							done[i], errs[i] = os.storeWords(tc.va, buf)
						} else {
							done[i], errs[i] = os.loadWords(tc.va, buf)
						}
					}
					want := tc.done
					if want < 0 {
						want = tc.words
					}
					if done[0] != want || done[1] != want || (errs[0] == nil) != (want == tc.words) || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
						t.Fatalf("done %d err %v, word loop done %d err %v, want %d words", done[0], errs[0], done[1], errs[1], want)
					}
					agree(t, pair, round == 1, fmt.Sprintf("round %d", round))
					if tc.va < giantBase && !bytes.Equal(pair[0].content(tc.va&^7, tc.words*8), pair[1].content(tc.va&^7, tc.words*8)) {
						t.Fatal("memory differs from the word loop's")
					}
				}
			})
		}
	}
}

// TestL0NamedCases scripts, word by word, the transitions the L0 must not
// hide: each step runs on both machines, which must agree after it — and, so
// that a script cannot pass by never reaching the L0, the machine under test
// must have deferred exactly the hits the script says the L0 serves.
func TestL0NamedCases(t *testing.T) {
	page := func(i int) arch.VirtAddr { return runBase + arch.VirtAddr(i*arch.PageSize) }
	type step struct {
		do   string // "load", "store", "switch", "protect", "shoot" (a remote FlushPage), "sink" (a new one: counters reset)
		va   arch.VirtAddr
		l0   bool // the L0 serves it
		fail bool // the access faults for good
		owe  bool // no settle after it: the next step finds the core owing
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"hit after fill, after a slow hit, and under the other tag", []step{
			{do: "load", va: page(0)}, {do: "load", va: page(0) + 8, l0: true},
			{do: "switch"}, {do: "load", va: page(0)}, {do: "load", va: page(0) + 16, l0: true}, // tag 5: its own walk
			{do: "switch"}, {do: "load", va: page(0)}, // the untagged switch flushed
			// The tagged entry survived both switches; its copy did not outlive
			// the flush, whose epoch takes every copy, and is made again.
			{do: "switch"}, {do: "load", va: page(0) + 24}, {do: "load", va: page(0) + 32, l0: true},
		}},
		{"permission upgrade on a cached read-only entry", []step{
			{do: "load", va: page(7)}, {do: "load", va: page(7) + 8, l0: true},
			{do: "store", va: page(7), fail: true},
			{do: "load", va: page(7) + 8}, // the failed store dropped the entry
			{do: "protect", va: page(7)},
			{do: "load", va: page(7) + 16, l0: true}, // still the r-- copy
			{do: "store", va: page(7)},               // denied by it, re-walked, rw now
			{do: "store", va: page(7) + 8, l0: true}, {do: "load", va: page(7), l0: true},
		}},
		{"COW break on the first store to a page", []step{
			{do: "load", va: page(3)}, {do: "load", va: page(3) + 8, l0: true},
			{do: "store", va: page(3) + 8}, // faults, gets its own frame, retried
			{do: "load", va: page(3) + 8, l0: true}, {do: "store", va: page(3), l0: true},
		}},
		{"eviction of the entry a slot points at", []step{
			// TLB set 0 fills with pages 16, 0, 32 and the giant page, whose
			// copies sit in L0 slots 16, 0 (twice) and 5. Page 64 then evicts
			// page 16's entry and is copied into slot 0: slot 16 still holds
			// page 16's copy, of an entry that now translates page 64, and
			// must be dropped — page 16 is a miss again.
			{do: "load", va: page(16)}, {do: "load", va: page(0)}, {do: "load", va: page(32)},
			{do: "load", va: giantBase + 5*arch.PageSize},
			{do: "load", va: page(64)}, {do: "load", va: page(64) + 8, l0: true},
			{do: "load", va: page(16)}, {do: "load", va: page(16) + 8, l0: true},
		}},
		{"a remote shootdown between two hits", []step{
			{do: "load", va: page(1)}, {do: "load", va: page(2)}, {do: "load", va: page(1) + 8, l0: true},
			{do: "shoot", va: page(1)},
			{do: "load", va: page(1) + 8}, {do: "load", va: page(2)}, // the epoch took every copy; page 2's entry is still there
			{do: "load", va: page(2) + 8, l0: true},
		}},
		{"2 MiB entries behind several slots", []step{
			{do: "load", va: hugeBase}, {do: "load", va: hugeBase + 8, l0: true},
			{do: "load", va: hugeBase + 5*arch.PageSize}, {do: "store", va: hugeBase + 5*arch.PageSize + 8, l0: true},
			{do: "shoot", va: hugeBase + 9*arch.PageSize},
			{do: "load", va: hugeBase}, {do: "load", va: hugeBase + 5*arch.PageSize}, // both copies went with the entry
		}},
		{"one entry behind two slots, stamped by the later hit", []step{
			// TLB set 0 holds both 2 MiB entries and pages 0 and 16. Hits through
			// slots 9, 0, 3, 5, 16 in that order make page 0 the least recently
			// used — unless the first 2 MiB entry keeps slot 9's stamp, the
			// earlier of its two, because slot 3 is settled before slot 9.
			{do: "load", va: hugeBase + 9*arch.PageSize}, {do: "load", va: hugeBase + 3*arch.PageSize},
			{do: "load", va: hugeBase + arch.HugePageSize + 5*arch.PageSize}, {do: "load", va: page(0)}, {do: "load", va: page(16)},
			{do: "load", va: hugeBase + 9*arch.PageSize + 8, l0: true, owe: true}, {do: "load", va: page(0) + 8, l0: true, owe: true},
			{do: "load", va: hugeBase + 3*arch.PageSize + 8, l0: true, owe: true},
			{do: "load", va: hugeBase + arch.HugePageSize + 5*arch.PageSize + 8, l0: true, owe: true}, {do: "load", va: page(16) + 8, l0: true, owe: true},
			{do: "load", va: page(32)},                       // evicts page 0's entry
			{do: "load", va: page(0)},                        // a miss, which evicts the first 2 MiB entry
			{do: "load", va: page(16) + 16},                  // still in the TLB; a large victim takes every copy
			{do: "load", va: hugeBase + 3*arch.PageSize + 8}, // a miss
		}},
		{"counters reset while the core owes", []step{
			{do: "load", va: page(1)}, {do: "load", va: page(1) + 8, l0: true, owe: true}, {do: "load", va: page(1) + 16, l0: true, owe: true},
			{do: "sink"}, {do: "load", va: page(1) + 24, l0: true},
		}},
		{"a global 1 GiB entry across an untagged CR3 write", []step{
			{do: "load", va: giantBase + 0x5000}, {do: "load", va: giantBase + 0x5008, l0: true},
			{do: "load", va: page(0)},
			{do: "switch"}, {do: "switch"}, // to tag 5 and back: flushes page 0's entry, keeps the global one
			{do: "load", va: giantBase + 0x5010}, {do: "load", va: giantBase + 0x5018, l0: true}, // a TLB hit, copied again
			{do: "store", va: giantBase + 0x5018, fail: true},
			{do: "load", va: page(0)}, // a miss again
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pair := twins(t, true)
			for i, st := range tc.steps {
				when := fmt.Sprintf("step %d (%s %v)", i, st.do, st.va)
				var errs [2]error
				owed := pair[0].c.deferred
				for j, os := range pair {
					switch st.do {
					case "load":
						_, errs[j] = os.load(st.va)
					case "store":
						errs[j] = os.store(st.va, uint64(i))
					case "switch":
						os.cur = 1 - os.cur
						os.c.LoadCR3(os.spaces[os.cur].table, os.spaces[os.cur].asid)
					case "protect":
						errs[j] = os.protect(st.va)
					case "shoot":
						os.c.TLB.FlushPage(os.spaces[os.cur].asid, st.va)
					case "sink":
						os.m.EnableStats(0)
						os.joined = os.c.Cycles()
					}
				}
				if (errs[0] != nil) != st.fail || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
					t.Fatalf("%s: %v, reference %v, want failure %v", when, errs[0], errs[1], st.fail)
				}
				if got := pair[0].c.deferred == owed+1; got != st.l0 {
					t.Fatalf("%s: served by the L0 %v, want %v", when, got, st.l0)
				}
				// Settled, unless the next step is the kind that must find
				// the core owing: a CR3 write, a shootdown.
				next := ""
				if i+1 < len(tc.steps) {
					next = tc.steps[i+1].do
				}
				agree(t, pair, !st.owe && next != "switch" && next != "shoot", when)
			}
		})
	}
}

// TestSnapshotWhileCoresRun: a snapshot of a live machine reads only what the
// cores published — the admin /stats poller against a serving stack. Under
// -race this fails if StatsSnapshot reads a word the core writes plainly.
func TestSnapshotWhileCoresRun(t *testing.T) {
	os := newRunOS(t, true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200_000; i++ {
			if _, err := os.c.Load64(runBase + arch.VirtAddr(i%4*arch.PageSize+i%512*8)); err != nil {
				t.Error(err)
				return
			}
			if i%1000 == 0 {
				os.c.LoadCR3(os.spaces[0].table, os.spaces[0].asid)
			}
		}
	}()
	var last uint64
	for i := 0; i < 200; i++ {
		if c := os.m.StatsSnapshot().Cores[0]; c.TLBHits < last {
			t.Fatalf("published hits went back: %d after %d", c.TLBHits, last)
		} else {
			last = c.TLBHits
		}
	}
	<-done
	os.c.settle()
	if c := os.m.StatsSnapshot().Cores[0]; c.Cycles != os.c.Cycles() || c.TLBHits+c.TLBMisses != 200_000 {
		t.Errorf("after the last settle the snapshot has %+v; the core has %d cycles, and the test issued 200000 loads", c, os.c.Cycles())
	}
}
