// Package mspace is the SpaceJMP runtime library's heap allocator (paper
// §4.1): a dlmalloc-style boundary-tag allocator whose entire state — bin
// heads, chunk headers, free-list links — lives inside the segment it
// manages, addressed by virtual addresses of the owning VAS.
//
// Because the state is in segment memory rather than process memory, an
// mspace created by one process is directly usable by the next process that
// switches into the VAS: pointers keep their meaning across process
// lifetimes, which is exactly the property SAMTools exploits (§5.4).
//
// All metadata accesses go through an Accessor (typically a core.Thread),
// so they traverse the simulated MMU of the currently active address space.
// An access that faults (wrong VAS active, unmapped range, dead process) is
// reported as an ErrCorrupt-wrapped error from the failing operation — the
// allocator never panics.
package mspace

import (
	"errors"
	"fmt"
	"math/bits"

	"spacejmp/internal/arch"
)

// Accessor reads and writes 64-bit words of the active virtual address
// space, one at a time or as a run of consecutive words held little-endian in
// a byte buffer (returning the count done). core.Thread satisfies it.
type Accessor interface {
	Load64(va arch.VirtAddr) (uint64, error)
	Store64(va arch.VirtAddr, v uint64) error
	LoadWords(va arch.VirtAddr, buf []byte) (int, error)
	StoreWords(va arch.VirtAddr, buf []byte) (int, error)
}

// ReadBytes fills b from the words at va: byte strings live in segment
// memory as little-endian words, the last one zero-padded.
func ReadBytes(mem Accessor, va arch.VirtAddr, b []byte) error {
	whole := len(b) &^ 7
	if _, err := mem.LoadWords(va, b[:whole]); err != nil || whole == len(b) {
		return err
	}
	w, err := mem.Load64(va + arch.VirtAddr(whole))
	for i := whole; i < len(b); i++ {
		b[i], w = byte(w), w>>8
	}
	return err
}

// WriteBytes stores b at va for ReadBytes; the padded last word goes whole.
func WriteBytes(mem Accessor, va arch.VirtAddr, b []byte) error {
	whole := len(b) &^ 7
	if _, err := mem.StoreWords(va, b[:whole]); err != nil || whole == len(b) {
		return err
	}
	var w uint64
	for i := len(b) - 1; i >= whole; i-- {
		w = w<<8 | uint64(b[i])
	}
	return mem.Store64(va+arch.VirtAddr(whole), w)
}

const (
	magic = 0x4d53504143453031 // "MSPACE01"

	numBins    = 64
	headerSize = 8 + 8 + 8 + numBins*8 // magic, size, allocated, bins
	headerPad  = (headerSize + 15) &^ 15

	chunkOverhead = 8  // size/flags word
	minChunk      = 32 // header + fd + bk + footer

	flagInUse    = 1 << 0
	flagPrevFree = 1 << 1
	flagMask     = flagInUse | flagPrevFree
)

// Errors returned by the allocator.
var (
	ErrCorrupt = errors.New("mspace: heap corrupt")
	ErrNoSpace = errors.New("mspace: out of memory")
	ErrBadFree = errors.New("mspace: bad free")
)

// Space is a handle to an mspace. The handle itself carries no heap state —
// only where the heap lives — so any process may construct one over the
// same segment.
type Space struct {
	mem  Accessor
	base arch.VirtAddr
	size uint64
}

// Word offsets inside the header.
const (
	offMagic = 0
	offSize  = 8
	offAlloc = 16
	offBins  = 24
)

func (s *Space) load(va arch.VirtAddr) (uint64, error) {
	v, err := s.mem.Load64(va)
	if err != nil {
		return 0, fmt.Errorf("%w: load %v: %v", ErrCorrupt, va, err)
	}
	return v, nil
}

func (s *Space) store(va arch.VirtAddr, v uint64) error {
	if err := s.mem.Store64(va, v); err != nil {
		return fmt.Errorf("%w: store %v: %v", ErrCorrupt, va, err)
	}
	return nil
}

// Init formats a new mspace over [base, base+size) and returns its handle.
// The range must be mapped writable in the active address space.
func Init(mem Accessor, base arch.VirtAddr, size uint64) (*Space, error) {
	if base&15 != 0 {
		return nil, fmt.Errorf("mspace: base %v not 16-byte aligned", base)
	}
	if size < headerPad+minChunk+chunkOverhead {
		return nil, fmt.Errorf("mspace: %d bytes too small for an mspace", size)
	}
	size &^= 15
	s := &Space{mem: mem, base: base, size: size}
	if err := s.store(base+offSize, size); err != nil {
		return nil, err
	}
	if err := s.store(base+offAlloc, 0); err != nil {
		return nil, err
	}
	for i := 0; i < numBins; i++ {
		if err := s.store(base+offBins+arch.VirtAddr(i*8), 0); err != nil {
			return nil, err
		}
	}
	// One big free chunk followed by the end sentinel (an in-use header).
	first := base + headerPad
	sentinel := base + arch.VirtAddr(size) - chunkOverhead
	chunkSize := uint64(sentinel - first)
	if err := s.setChunk(first, chunkSize, false, false); err != nil {
		return nil, err
	}
	if err := s.store(sentinel, chunkOverhead|flagInUse|flagPrevFree); err != nil {
		return nil, err
	}
	if err := s.binInsert(first, chunkSize); err != nil {
		return nil, err
	}
	if err := s.store(base+offMagic, magic); err != nil {
		return nil, err
	}
	return s, nil
}

// Open attaches to an existing mspace at base (created by Init, possibly by
// another process in an earlier lifetime).
func Open(mem Accessor, base arch.VirtAddr) (*Space, error) {
	s := &Space{mem: mem, base: base}
	m, err := s.load(base + offMagic)
	if err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("%w: no mspace at %v", ErrCorrupt, base)
	}
	if s.size, err = s.load(base + offSize); err != nil {
		return nil, err
	}
	return s, nil
}

// Base returns the mspace's base address.
func (s *Space) Base() arch.VirtAddr { return s.base }

// Size returns the mspace's total size.
func (s *Space) Size() uint64 { return s.size }

// Allocated returns the number of payload-plus-overhead bytes in use.
func (s *Space) Allocated() (uint64, error) {
	return s.load(s.base + offAlloc)
}

// --- chunk primitives ---

// header returns (size, inUse, prevFree) of the chunk at va.
func (s *Space) header(c arch.VirtAddr) (uint64, bool, bool, error) {
	h, err := s.load(c)
	if err != nil {
		return 0, false, false, err
	}
	return h &^ flagMask, h&flagInUse != 0, h&flagPrevFree != 0, nil
}

// setChunk writes a chunk header (and footer + next's prevFree bit when the
// chunk is free).
func (s *Space) setChunk(c arch.VirtAddr, size uint64, inUse, prevFree bool) error {
	h := size
	if inUse {
		h |= flagInUse
	}
	if prevFree {
		h |= flagPrevFree
	}
	if err := s.store(c, h); err != nil {
		return err
	}
	next := c + arch.VirtAddr(size)
	if !inUse {
		if err := s.store(next-8, size); err != nil { // footer
			return err
		}
		nh, err := s.load(next)
		if err != nil {
			return err
		}
		return s.store(next, nh|flagPrevFree)
	}
	if next < s.end() {
		nh, err := s.load(next)
		if err != nil {
			return err
		}
		return s.store(next, nh&^flagPrevFree)
	}
	return nil
}

func (s *Space) end() arch.VirtAddr { return s.base + arch.VirtAddr(s.size) }

// free chunk list links.
func (s *Space) fd(c arch.VirtAddr) (arch.VirtAddr, error) {
	v, err := s.load(c + 8)
	return arch.VirtAddr(v), err
}

func (s *Space) bk(c arch.VirtAddr) (arch.VirtAddr, error) {
	v, err := s.load(c + 16)
	return arch.VirtAddr(v), err
}

func (s *Space) setFd(c, v arch.VirtAddr) error { return s.store(c+8, uint64(v)) }
func (s *Space) setBk(c, v arch.VirtAddr) error { return s.store(c+16, uint64(v)) }

// binFor maps a chunk size to a segregated bin: linear 32-byte classes up
// to 1 KiB, logarithmic beyond.
func binFor(size uint64) int {
	if size < 1024 {
		return int(size / 32) // bins 1..31
	}
	b := 22 + bits.Len64(size) // 1024 -> bin 33
	if b >= numBins {
		b = numBins - 1
	}
	return b
}

func (s *Space) binHead(b int) (arch.VirtAddr, error) {
	v, err := s.load(s.base + offBins + arch.VirtAddr(b*8))
	return arch.VirtAddr(v), err
}

func (s *Space) setBinHead(b int, c arch.VirtAddr) error {
	return s.store(s.base+offBins+arch.VirtAddr(b*8), uint64(c))
}

// binInsert pushes a free chunk onto its bin's list.
func (s *Space) binInsert(c arch.VirtAddr, size uint64) error {
	b := binFor(size)
	head, err := s.binHead(b)
	if err != nil {
		return err
	}
	if err := s.setFd(c, head); err != nil {
		return err
	}
	if err := s.setBk(c, 0); err != nil {
		return err
	}
	if head != 0 {
		if err := s.setBk(head, c); err != nil {
			return err
		}
	}
	return s.setBinHead(b, c)
}

// binRemove unlinks a free chunk from its bin's list.
func (s *Space) binRemove(c arch.VirtAddr, size uint64) error {
	b := binFor(size)
	fd, err := s.fd(c)
	if err != nil {
		return err
	}
	bk, err := s.bk(c)
	if err != nil {
		return err
	}
	if bk == 0 {
		if err := s.setBinHead(b, fd); err != nil {
			return err
		}
	} else if err := s.setFd(bk, fd); err != nil {
		return err
	}
	if fd != 0 {
		return s.setBk(fd, bk)
	}
	return nil
}

// Alloc returns the address of a payload of at least n bytes.
func (s *Space) Alloc(n uint64) (arch.VirtAddr, error) {
	if n == 0 {
		n = 1
	}
	need := (n + chunkOverhead + 15) &^ 15
	if need < minChunk {
		need = minChunk
	}
	for b := binFor(need); b < numBins; b++ {
		c, err := s.binHead(b)
		if err != nil {
			return 0, err
		}
		for c != 0 {
			size, inUse, _, err := s.header(c)
			if err != nil {
				return 0, err
			}
			if inUse {
				return 0, fmt.Errorf("%w: in-use chunk on free list at %v", ErrCorrupt, c)
			}
			if size < need {
				if c, err = s.fd(c); err != nil {
					return 0, err
				}
				continue
			}
			if err := s.binRemove(c, size); err != nil {
				return 0, err
			}
			_, _, prevFree, err := s.header(c)
			if err != nil {
				return 0, err
			}
			if size-need >= minChunk {
				// Split: tail remains free.
				tail := c + arch.VirtAddr(need)
				if err := s.setChunk(c, need, true, prevFree); err != nil {
					return 0, err
				}
				if err := s.setChunk(tail, size-need, false, false); err != nil {
					return 0, err
				}
				if err := s.binInsert(tail, size-need); err != nil {
					return 0, err
				}
				size = need
			} else if err := s.setChunk(c, size, true, prevFree); err != nil {
				return 0, err
			}
			alloc, err := s.load(s.base + offAlloc)
			if err != nil {
				return 0, err
			}
			if err := s.store(s.base+offAlloc, alloc+size); err != nil {
				return 0, err
			}
			return c + chunkOverhead, nil
		}
	}
	return 0, fmt.Errorf("%w: no chunk of %d bytes", ErrNoSpace, need)
}

// UsableSize returns the payload capacity of an allocation.
func (s *Space) UsableSize(va arch.VirtAddr) (uint64, error) {
	c := va - chunkOverhead
	size, inUse, _, err := s.header(c)
	if err != nil {
		return 0, err
	}
	if !inUse || !s.contains(c, size) {
		return 0, fmt.Errorf("%w: %v is not an allocation", ErrBadFree, va)
	}
	return size - chunkOverhead, nil
}

func (s *Space) contains(c arch.VirtAddr, size uint64) bool {
	return c >= s.base+headerPad && c+arch.VirtAddr(size) <= s.end() && size >= minChunk
}

// Free releases an allocation, coalescing with free neighbours.
func (s *Space) Free(va arch.VirtAddr) error {
	c := va - chunkOverhead
	size, inUse, prevFree, err := s.header(c)
	if err != nil {
		return err
	}
	if !inUse || !s.contains(c, size) {
		return fmt.Errorf("%w: %v", ErrBadFree, va)
	}
	alloc, err := s.load(s.base + offAlloc)
	if err != nil {
		return err
	}
	if err := s.store(s.base+offAlloc, alloc-size); err != nil {
		return err
	}
	// Coalesce backwards.
	if prevFree {
		prevSize, err := s.load(c - 8)
		if err != nil {
			return err
		}
		prev := c - arch.VirtAddr(prevSize)
		if err := s.binRemove(prev, prevSize); err != nil {
			return err
		}
		c = prev
		size += prevSize
	}
	// Coalesce forwards.
	next := c + arch.VirtAddr(size)
	if next < s.end() {
		nsize, nInUse, _, err := s.header(next)
		if err != nil {
			return err
		}
		if !nInUse {
			if err := s.binRemove(next, nsize); err != nil {
				return err
			}
			size += nsize
		}
	}
	if err := s.setChunk(c, size, false, false); err != nil {
		return err
	}
	return s.binInsert(c, size)
}

// Check walks the whole heap and verifies the boundary-tag invariants:
// chunks tile the arena exactly, free neighbours are always coalesced, all
// free chunks are on the correct bin, and the allocated counter matches.
func (s *Space) Check() error {
	m, err := s.load(s.base + offMagic)
	if err != nil {
		return err
	}
	if m != magic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	free := map[arch.VirtAddr]uint64{}
	var allocated uint64
	prevWasFree := false
	c := s.base + headerPad
	for c < s.end()-chunkOverhead {
		size, inUse, prevFree, err := s.header(c)
		if err != nil {
			return err
		}
		if size < minChunk || c+arch.VirtAddr(size) > s.end() {
			return fmt.Errorf("%w: bad chunk size %d at %v", ErrCorrupt, size, c)
		}
		if prevFree != prevWasFree {
			return fmt.Errorf("%w: prevFree flag wrong at %v", ErrCorrupt, c)
		}
		if !inUse {
			if prevWasFree {
				return fmt.Errorf("%w: adjacent free chunks at %v", ErrCorrupt, c)
			}
			footer, err := s.load(c + arch.VirtAddr(size) - 8)
			if err != nil {
				return err
			}
			if footer != size {
				return fmt.Errorf("%w: footer mismatch at %v", ErrCorrupt, c)
			}
			free[c] = size
		} else {
			allocated += size
		}
		prevWasFree = !inUse
		c += arch.VirtAddr(size)
	}
	if c != s.end()-chunkOverhead {
		return fmt.Errorf("%w: chunks do not tile the arena (ended at %v)", ErrCorrupt, c)
	}
	got, err := s.load(s.base + offAlloc)
	if err != nil {
		return err
	}
	if got != allocated {
		return fmt.Errorf("%w: allocated counter %d, walked %d", ErrCorrupt, got, allocated)
	}
	// Every free chunk must be reachable from exactly its bin.
	seen := map[arch.VirtAddr]bool{}
	for b := 0; b < numBins; b++ {
		f, err := s.binHead(b)
		if err != nil {
			return err
		}
		for f != 0 {
			size, ok := free[f]
			if !ok {
				return fmt.Errorf("%w: bin %d links non-free chunk %v", ErrCorrupt, b, f)
			}
			if binFor(size) != b {
				return fmt.Errorf("%w: chunk %v (size %d) in wrong bin %d", ErrCorrupt, f, size, b)
			}
			if seen[f] {
				return fmt.Errorf("%w: chunk %v on multiple lists", ErrCorrupt, f)
			}
			seen[f] = true
			if f, err = s.fd(f); err != nil {
				return err
			}
		}
	}
	if len(seen) != len(free) {
		return fmt.Errorf("%w: %d free chunks, %d binned", ErrCorrupt, len(free), len(seen))
	}
	return nil
}
