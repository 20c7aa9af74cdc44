package mspace

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"spacejmp/internal/arch"
)

// flatMem is a plain in-process Accessor for unit tests (integration with
// the simulated MMU is tested in the runtime package).
type flatMem struct {
	words map[arch.VirtAddr]uint64
}

func newFlat() *flatMem { return &flatMem{words: map[arch.VirtAddr]uint64{}} }

func (m *flatMem) Load64(va arch.VirtAddr) (uint64, error) {
	if va&7 != 0 {
		return 0, errors.New("unaligned")
	}
	return m.words[va], nil
}

func (m *flatMem) Store64(va arch.VirtAddr, v uint64) error {
	if va&7 != 0 {
		return errors.New("unaligned")
	}
	m.words[va] = v
	return nil
}

// LoadWords and StoreWords are the definition: the loop of single words.
func (m *flatMem) LoadWords(va arch.VirtAddr, buf []byte) (int, error) {
	for i := 0; i < len(buf)/8; i++ {
		w, err := m.Load64(va + arch.VirtAddr(i*8))
		if err != nil {
			return i, err
		}
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	return len(buf) / 8, nil
}

func (m *flatMem) StoreWords(va arch.VirtAddr, buf []byte) (int, error) {
	for i := 0; i < len(buf)/8; i++ {
		if err := m.Store64(va+arch.VirtAddr(i*8), binary.LittleEndian.Uint64(buf[i*8:])); err != nil {
			return i, err
		}
	}
	return len(buf) / 8, nil
}

const base arch.VirtAddr = 0x10000

func initSpace(t *testing.T, size uint64) *Space {
	t.Helper()
	s, err := Init(newFlat(), base, size)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInitAndCheck(t *testing.T) {
	s := initSpace(t, 1<<16)
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Allocated(); n != 0 {
		t.Errorf("fresh mspace allocated = %d", n)
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	s := initSpace(t, 1<<16)
	p, err := s.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p&15 != 8 && p&15 != 0 {
		// payload starts 8 past a 16-aligned chunk
		t.Errorf("payload %v misaligned", p)
	}
	if u, _ := s.UsableSize(p); u < 100 {
		t.Errorf("usable = %d", u)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Allocated(); n != 0 {
		t.Errorf("allocated after free = %d", n)
	}
}

func TestWriteReadPayload(t *testing.T) {
	s := initSpace(t, 1<<16)
	m := s.mem
	p, _ := s.Alloc(64)
	q, _ := s.Alloc(64)
	for i := 0; i < 8; i++ {
		m.Store64(p+arch.VirtAddr(i*8), uint64(100+i))
		m.Store64(q+arch.VirtAddr(i*8), uint64(200+i))
	}
	for i := 0; i < 8; i++ {
		if v, _ := m.Load64(p + arch.VirtAddr(i*8)); v != uint64(100+i) {
			t.Errorf("p[%d] = %d", i, v)
		}
		if v, _ := m.Load64(q + arch.VirtAddr(i*8)); v != uint64(200+i) {
			t.Errorf("q[%d] = %d", i, v)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustionAndRecovery(t *testing.T) {
	s := initSpace(t, 4096)
	var ptrs []arch.VirtAddr
	for {
		p, err := s.Alloc(128)
		if err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("wrong error: %v", err)
			}
			break
		}
		ptrs = append(ptrs, p)
	}
	if len(ptrs) < 20 {
		t.Fatalf("only %d allocations from 4 KiB", len(ptrs))
	}
	for _, p := range ptrs {
		if err := s.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	// After freeing everything, a large allocation must succeed again
	// (proves full coalescing).
	if _, err := s.Alloc(3000); err != nil {
		t.Errorf("no large chunk after full free: %v", err)
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	s := initSpace(t, 1<<14)
	p, _ := s.Alloc(64)
	if err := s.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(p); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free: %v", err)
	}
	if err := s.Free(base + 12345); err == nil {
		t.Error("wild free accepted")
	}
}

func TestOpenExistingHeap(t *testing.T) {
	mem := newFlat()
	s1, err := Init(mem, base, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s1.Alloc(64)
	mem.Store64(p, 0xCAFE)

	// A "second process" opens the same memory: allocations and content
	// are visible, and the heap keeps working.
	s2, err := Open(mem, base)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := mem.Load64(p); v != 0xCAFE {
		t.Error("content lost across Open")
	}
	q, err := s2.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if q == p {
		t.Error("second process allocated over live data")
	}
	if err := s2.Free(p); err != nil {
		t.Errorf("second process cannot free first's allocation: %v", err)
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenGarbageRejected(t *testing.T) {
	if _, err := Open(newFlat(), base); !errors.Is(err, ErrCorrupt) {
		t.Errorf("open of unformatted memory: %v", err)
	}
}

func TestTooSmallRejected(t *testing.T) {
	if _, err := Init(newFlat(), base, 64); err == nil {
		t.Error("tiny mspace accepted")
	}
	if _, err := Init(newFlat(), base+4, 1<<16); err == nil {
		t.Error("misaligned base accepted")
	}
}

func TestPropertyHeapInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := Init(newFlat(), base, 1<<15)
		if err != nil {
			return false
		}
		live := map[arch.VirtAddr]uint64{} // ptr -> stamp
		stamp := uint64(1)
		for step := 0; step < 400; step++ {
			if len(live) == 0 || rng.Intn(5) < 3 {
				n := uint64(rng.Intn(500) + 1)
				p, err := s.Alloc(n)
				if errors.Is(err, ErrNoSpace) {
					continue
				}
				if err != nil {
					return false
				}
				// Stamp first word; verify on free (catches overlap).
				s.mem.Store64(p, stamp)
				live[p] = stamp
				stamp++
			} else {
				var p arch.VirtAddr
				for p = range live {
					break
				}
				if v, _ := s.mem.Load64(p); v != live[p] {
					return false // another allocation scribbled on us
				}
				if s.Free(p) != nil {
					return false
				}
				delete(live, p)
			}
		}
		return s.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBinForMonotonicEnough(t *testing.T) {
	f := func(a, b uint64) bool {
		a, b = a%(1<<30)+32, b%(1<<30)+32
		if a > b {
			a, b = b, a
		}
		ba, bb := binFor(a), binFor(b)
		return ba >= 0 && bb < numBins && ba <= bb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
