package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"spacejmp/internal/arch"
)

// TestConcurrentFirstTouch: goroutines racing to touch one untouched frame
// must agree on a single materialization — counted once, nobody's store lost.
func TestConcurrentFirstTouch(t *testing.T) {
	const workers = 8
	for round := 0; round < 50; round++ {
		pm := testPM()
		pa, _ := pm.AllocPage()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				if err := pm.Store64(pa+arch.PhysAddr(8*w), uint64(w)+1); err != nil {
					t.Error(err)
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if got := pm.Stats().ZeroedPages; got != 1 {
			t.Fatalf("round %d: frame materialized %d times, want once", round, got)
		}
		for w := 0; w < workers; w++ {
			if v, _ := pm.Load64(pa + arch.PhysAddr(8*w)); v != uint64(w)+1 {
				t.Fatalf("round %d: word %d = %d: a store landed in a frame that lost the race", round, w, v)
			}
		}
	}
}

func TestFreedBlockReadsZeroWhenReallocated(t *testing.T) {
	pm := testPM()
	pa, _ := pm.AllocFrames(2, TierDRAM)
	fill := bytes.Repeat([]byte{0xEE}, 4*arch.PageSize)
	if err := pm.WriteAt(pa, fill); err != nil {
		t.Fatal(err)
	}
	before := pm.Stats().ZeroedPages
	if err := pm.Free(pa, 2); err != nil {
		t.Fatal(err)
	}
	again, err := pm.AllocFrames(2, TierDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if again != pa {
		t.Fatalf("allocator handed out %v, want the just-freed block %v", again, pa)
	}
	got := make([]byte, len(fill))
	if err := pm.ReadAt(again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(fill))) {
		t.Error("reallocated block still holds its previous owner's bytes")
	}
	if d := pm.Stats().ZeroedPages - before; d != 0 {
		t.Errorf("reading 4 dropped frames materialized %d of them", d)
	}
	if err := pm.WriteAt(again, fill); err != nil {
		t.Fatal(err)
	}
	if d := pm.Stats().ZeroedPages - before; d != 4 {
		t.Errorf("rewriting 4 dropped frames materialized %d", d)
	}
}

// TestPowerCycleSplitsADirectoryLeaf puts the DRAM/NVM boundary in the middle
// of one directory leaf: the power cycle must drop the DRAM frames of that
// leaf and keep its NVM frames.
func TestPowerCycleSplitsADirectoryLeaf(t *testing.T) {
	const dram = leafFrames*arch.PageSize + 8*arch.PageSize // boundary 8 frames into leaf 1
	pm := New(Config{DRAMSize: dram, NVMSize: 1 << 20, NVMSuperblock: arch.PageSize})
	lastDRAM := arch.PhysAddr(dram - arch.PageSize)
	sb, _ := pm.Superblock()
	nvm, err := pm.AllocFrames(0, TierNVM)
	if err != nil {
		t.Fatal(err)
	}
	if sb != lastDRAM+arch.PageSize || uint64(nvm)>>arch.PageShift>>leafShift != uint64(lastDRAM)>>arch.PageShift>>leafShift {
		t.Fatalf("layout: last DRAM frame %v, superblock %v and NVM frame %v should share a leaf", lastDRAM, sb, nvm)
	}
	for _, pa := range []arch.PhysAddr{0, lastDRAM, sb, nvm} {
		if err := pm.Store64(pa, 0x5EED); err != nil {
			t.Fatal(err)
		}
	}
	pm.PowerCycle()
	for _, tc := range []struct {
		pa   arch.PhysAddr
		want uint64
	}{{0, 0}, {lastDRAM, 0}, {sb, 0x5EED}, {nvm, 0x5EED}} {
		if v, _ := pm.Load64(tc.pa); v != tc.want {
			t.Errorf("after power cycle %v (%v) = %#x, want %#x", tc.pa, pm.TierOf(tc.pa), v, tc.want)
		}
	}
}

// TestBulkCopiesAgainstByteShadow drives ReadAt/WriteAt/Zero/Store64 at
// random alignments and lengths (up to three frames) and compares every read
// with a plain byte slice — including the little-endian placement of words.
func TestBulkCopiesAgainstByteShadow(t *testing.T) {
	const span = 4 * arch.PageSize
	pm := testPM()
	base, _ := pm.AllocFrames(2, TierDRAM)
	shadow := make([]byte, span)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		off := uint64(rng.Intn(span))
		n := uint64(rng.Intn(3*arch.PageSize + 1))
		if rng.Intn(2) == 0 {
			n = uint64(rng.Intn(24)) // short: head/tail paths only
		}
		n = min(n, span-off)
		pa := base + arch.PhysAddr(off)
		switch rng.Intn(4) {
		case 0:
			buf := make([]byte, n)
			rng.Read(buf)
			if err := pm.WriteAt(pa, buf); err != nil {
				t.Fatal(err)
			}
			copy(shadow[off:], buf)
		case 1:
			if err := pm.Zero(pa, n); err != nil {
				t.Fatal(err)
			}
			clear(shadow[off : off+n])
		case 2:
			off = min(off&^7, span-8)
			v := rng.Uint64()
			if err := pm.Store64(base+arch.PhysAddr(off), v); err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(shadow[off:], v)
		default:
			got := make([]byte, n)
			if err := pm.ReadAt(pa, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, shadow[off:off+n]) {
				t.Fatalf("op %d: ReadAt(+%d, %d bytes) differs from the byte shadow", i, off, n)
			}
		}
	}
	got := make([]byte, span)
	if err := pm.ReadAt(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("final content differs from the byte shadow")
	}
	for off := uint64(0); off < span; off += 8 {
		if v, _ := pm.Load64(base + arch.PhysAddr(off)); v != binary.LittleEndian.Uint64(shadow[off:]) {
			t.Fatalf("Load64(+%d) = %#x, bytes say %#x", off, v, binary.LittleEndian.Uint64(shadow[off:]))
		}
	}
}

// TestDisjointFramesFromManyGoroutines is the memory model's permitted
// sharing under the race detector: every goroutine does word and bulk
// accesses to frames of its own while the others do the same and the
// allocator churns, all through one lock-free directory.
func TestDisjointFramesFromManyGoroutines(t *testing.T) {
	const workers = 6
	pm := testPM()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			page := make([]byte, arch.PageSize)
			for i := 0; i < 300; i++ {
				pa, err := pm.AllocFrames(w%2, TierDRAM)
				if err != nil {
					t.Error(err)
					return
				}
				tag := uint64(w)<<32 | uint64(i)
				if err := pm.Store64(pa+64, tag); err != nil {
					t.Error(err)
				}
				if err := pm.ReadAt(pa, page); err != nil {
					t.Error(err)
				}
				if got := binary.LittleEndian.Uint64(page[64:]); got != tag {
					t.Errorf("worker %d: frame %v holds %#x, want %#x", w, pa, got, tag)
				}
				if !bytes.Equal(page[:64], make([]byte, 64)) {
					t.Errorf("worker %d: fresh frame %v not zero", w, pa)
				}
				if err := pm.WriteAt(pa+128, page[:96]); err != nil {
					t.Error(err)
				}
				if err := pm.Free(pa, w%2); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := pm.CheckLeaks(0); err != nil {
		t.Error(err)
	}
}
