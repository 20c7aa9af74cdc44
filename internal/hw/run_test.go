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
)

// The run-length accesses are defined as these loops, which is what every
// caller wrote out before Core.LoadWords/StoreWords existed. They stay here
// as the reference the differential test drives a second machine with.
func refLoadWords(c *Core, va arch.VirtAddr, buf []byte) (int, error) {
	for i := 0; i < len(buf)/8; i++ {
		w, err := c.Load64(va + arch.VirtAddr(i*8))
		if err != nil {
			return i, err
		}
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	return len(buf) / 8, nil
}

func refStoreWords(c *Core, va arch.VirtAddr, buf []byte) (int, error) {
	for i := 0; i < len(buf)/8; i++ {
		if err := c.Store64(va+arch.VirtAddr(i*8), binary.LittleEndian.Uint64(buf[i*8:])); err != nil {
			return i, err
		}
	}
	return len(buf) / 8, nil
}

// runOS is the least operating system the differential test needs under a
// core: two address spaces over one layout, a fault handler that maps lazy
// pages and breaks copy-on-write pages, and a record of which frame backs
// which page so that memory can be compared without going through the MMU.
//
// The layout, from runBase, is smallPages 4 KiB pages — by index mod 16:
// 3 copy-on-write (mapped read-only until a store faults), 7 read-only,
// 11 a hole, 13 lazy (mapped by the first touch), the rest read-write, with
// pages 32-47 in the NVM tier — and from hugeBase two 2 MiB pages. With a
// 16x4 TLB, six pages compete for every set.
type runOS struct {
	m      *Machine
	c      *Core
	spaces [2]*runSpace
	cur    int
}

type runSpace struct {
	table  *pt.Table
	asid   arch.ASID
	frames map[arch.VirtAddr]arch.PhysAddr // page base -> frame, 4 KiB and 2 MiB alike
	broken map[arch.VirtAddr]bool          // copy-on-write pages that have their own frame
}

const (
	runBase    arch.VirtAddr = 0x1000_0000
	hugeBase   arch.VirtAddr = 0x4000_0000
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
		sp := &runSpace{table: tbl, asid: asid, frames: map[arch.VirtAddr]arch.PhysAddr{}, broken: map[arch.VirtAddr]bool{}}
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
	Core   CoreStats
	TLB    any
	Snap   any // the whole stats snapshot: every Cat, per-ASID counters, nvm.*
	Mem    mem.Stats
}

func (os *runOS) observe() observed {
	o := observed{Cycles: os.c.Cycles(), Core: os.c.Stats(), TLB: os.c.TLB.Stats(), Mem: os.m.PM.Stats()}
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
// machines. One issues every multi-word access through LoadWords/StoreWords,
// the other through the word loops above; after every operation the two must
// agree on the outcome (words done, error, bytes loaded), on every modelled
// counter, and on memory.
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

func runDifferential(t *testing.T, seed int64, withStats bool, ops int) {
	t.Helper()
	fast, ref := newRunOS(t, withStats), newRunOS(t, withStats)
	rng := rand.New(rand.NewSource(seed))
	var runs, faulted, short int
	for op := 0; op < ops; op++ {
		desc := ""
		switch r := rng.Intn(100); {
		case r < 6:
			// Switch address space: untagged flushes, tagged keeps entries.
			for _, os := range []*runOS{fast, ref} {
				os.cur = 1 - os.cur
				os.c.LoadCR3(os.spaces[os.cur].table, os.spaces[os.cur].asid)
			}
			desc = fmt.Sprintf("switch to space %d", fast.cur)
		case r < 30:
			// Single words, issued the same way on both sides: they observe
			// the replacement state the runs left behind.
			va := runBase + arch.VirtAddr(rng.Intn(smallPages)*arch.PageSize+rng.Intn(arch.PageSize/8)*8)
			store, v := rng.Intn(3) == 0, rng.Uint64()
			var errs [2]error
			var got [2]uint64
			for i, os := range []*runOS{fast, ref} {
				if store {
					errs[i] = os.c.Store64(va, v)
				} else {
					got[i], errs[i] = os.c.Load64(va)
				}
			}
			desc = fmt.Sprintf("word at %v (store %v)", va, store)
			if got[0] != got[1] || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
				t.Fatalf("seed %d op %d %s: (%#x, %v) vs (%#x, %v)", seed, op, desc, got[0], errs[0], got[1], errs[1])
			}
		default:
			n := runLength(rng)
			var va arch.VirtAddr
			if rng.Intn(8) == 0 {
				// 2 MiB pages, sometimes across their boundary.
				va = hugeBase + arch.VirtAddr(rng.Intn(2*arch.HugePageSize/8-n)*8)
				if rng.Intn(3) == 0 {
					va = hugeBase + arch.HugePageSize - arch.VirtAddr(8*(1+rng.Intn(n)))
				}
			} else {
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
			switch {
			case store:
				done[0], errs[0] = fast.c.StoreWords(va, bufs[0])
				done[1], errs[1] = refStoreWords(ref.c, va, bufs[1])
			default:
				done[0], errs[0] = fast.c.LoadWords(va, bufs[0])
				done[1], errs[1] = refLoadWords(ref.c, va, bufs[1])
			}
			desc = fmt.Sprintf("run of %d words at %v (store %v)", n, va, store)
			if done[0] != done[1] || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
				t.Fatalf("seed %d op %d %s: done %d err %v, word loop done %d err %v",
					seed, op, desc, done[0], errs[0], done[1], errs[1])
			}
			if !bytes.Equal(bufs[0], bufs[1]) {
				t.Fatalf("seed %d op %d %s: loaded bytes differ from the word loop's", seed, op, desc)
			}
			if !bytes.Equal(fast.content(va, n*8), ref.content(va, n*8)) {
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
		if g, w := fast.observe(), ref.observe(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d op %d %s: machines diverge\nrun-length: %+v\nword loop:  %+v", seed, op, desc, g, w)
		}
	}
	// Everything, once more, through physical memory.
	for _, os := range []*runOS{fast, ref} {
		os.cur = 0
	}
	for cur := 0; cur < 2; cur++ {
		fast.cur, ref.cur = cur, cur
		if !bytes.Equal(fast.content(runBase, smallPages*arch.PageSize), ref.content(runBase, smallPages*arch.PageSize)) ||
			!bytes.Equal(fast.content(hugeBase, hugePages*arch.HugePageSize), ref.content(hugeBase, hugePages*arch.HugePageSize)) {
			t.Fatalf("seed %d: final memory of space %d differs", seed, cur)
		}
	}
	st := fast.c.TLB.Stats()
	if runs < ops/2 || faulted == 0 || faulted == runs || short == 0 || st.Evictions == 0 || st.Misses == 0 {
		t.Errorf("seed %d exercised too little: %d runs, %d faulted, %d short, tlb %+v", seed, runs, faulted, short, st)
	}
	if withStats {
		if nvm := fast.m.StatsSnapshot().NVM; nvm.Writes == 0 {
			t.Errorf("seed %d: no NVM writes counted", seed)
		}
	}
}

// TestRunLengthNamedCases pins the cases the differential stream reaches
// only by chance, each against the word loop on a second machine.
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
		{"unaligned", page(0) + 4, 16, false, 0},
		{"one word", page(1), 1, true, -1},
		{"nothing", page(1), 0, true, -1},
	} {
		for _, space := range []int{0, 1} { // untagged, tagged
			t.Run(fmt.Sprintf("%s/space%d", tc.name, space), func(t *testing.T) {
				fast, ref := newRunOS(t, true), newRunOS(t, true)
				data := make([]byte, tc.words*8)
				rand.New(rand.NewSource(7)).Read(data)
				var done [2]int
				var errs [2]error
				for i, os := range []*runOS{fast, ref} {
					os.cur = space
					os.c.LoadCR3(os.spaces[space].table, os.spaces[space].asid)
					buf := bytes.Clone(data)
					switch {
					case i == 0 && tc.store:
						done[i], errs[i] = os.c.StoreWords(tc.va, buf)
					case i == 0:
						done[i], errs[i] = os.c.LoadWords(tc.va, buf)
					case tc.store:
						done[i], errs[i] = refStoreWords(os.c, tc.va, buf)
					default:
						done[i], errs[i] = refLoadWords(os.c, tc.va, buf)
					}
				}
				want := tc.done
				if want < 0 {
					want = tc.words
				}
				if done[0] != want || done[1] != want || (errs[0] == nil) != (want == tc.words) || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
					t.Fatalf("done %d err %v, word loop done %d err %v, want %d words", done[0], errs[0], done[1], errs[1], want)
				}
				if g, w := fast.observe(), ref.observe(); !reflect.DeepEqual(g, w) {
					t.Fatalf("machines diverge\nrun-length: %+v\nword loop:  %+v", g, w)
				}
				if !bytes.Equal(fast.content(tc.va&^7, tc.words*8), ref.content(tc.va&^7, tc.words*8)) {
					t.Fatal("memory differs from the word loop's")
				}
			})
		}
	}
}
