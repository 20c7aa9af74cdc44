package redis

import (
	"encoding/binary"
	"fmt"
	"slices"

	"spacejmp/internal/arch"
	"spacejmp/internal/mspace"
)

// Store is the server state of RedisJMP: a chained hash table whose
// buckets, entries, and string data all live inside the lockable segment,
// addressed by segment virtual addresses. Any process that switches into
// the server VAS can operate on it directly — the paper's replacement for
// the Redis server process.
//
// Layout: a root pointer word sits at the segment base; the mspace heap
// starts one page in. All multi-byte data is stored in little-endian
// words through the Accessor (a thread's MMU-mediated loads and stores).
// An access that faults (e.g. operating without being switched into the
// VAS, or from a dead process) is returned as an error from the failing
// operation — the store never panics. A Store handle is driven by one thread
// at a time, like the Accessor under it.
type Store struct {
	mem  mspace.Accessor
	heap *mspace.Space
	base arch.VirtAddr
	root arch.VirtAddr // header chunk

	// scratch stages the stored key a probe compares against and the words
	// of a new entry, so neither costs the host an allocation.
	scratch [256]byte
}

// Store header words.
const (
	hdrBuckets = 0  // VA of bucket array
	hdrNBkt    = 8  // number of buckets
	hdrCount   = 16 // number of entries
	hdrSize    = 24
)

// Entry words.
const (
	entNext   = 0
	entKeyPtr = 8
	entKeyLen = 16
	entValPtr = 24
	entValLen = 32
	entSize   = 40
)

const initialBuckets = 64

// heapOff is where the mspace begins inside the segment.
const heapOff = arch.PageSize

// CreateStore formats the segment at base as an empty store.
func CreateStore(mem mspace.Accessor, base arch.VirtAddr, size uint64) (*Store, error) {
	heap, err := mspace.Init(mem, base+heapOff, size-heapOff)
	if err != nil {
		return nil, err
	}
	s := &Store{mem: mem, heap: heap, base: base}
	root, err := heap.Alloc(hdrSize)
	if err != nil {
		return nil, err
	}
	s.root = root
	buckets, err := s.allocZeroed(initialBuckets * 8)
	if err != nil {
		return nil, err
	}
	if err := s.putWords(root, uint64(buckets), initialBuckets, 0); err != nil { // hdrBuckets, hdrNBkt, hdrCount
		return nil, err
	}
	if err := s.put(base, uint64(root)); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenStore attaches to a store created earlier (possibly by another
// process in an earlier lifetime).
func OpenStore(mem mspace.Accessor, base arch.VirtAddr) (*Store, error) {
	heap, err := mspace.Open(mem, base+heapOff)
	if err != nil {
		return nil, err
	}
	rootWord, err := mem.Load64(base)
	if err != nil {
		return nil, err
	}
	if rootWord == 0 {
		return nil, fmt.Errorf("redis: no store at %v", base)
	}
	return &Store{mem: mem, heap: heap, base: base, root: arch.VirtAddr(rootWord)}, nil
}

func (s *Store) get(va arch.VirtAddr) (uint64, error) {
	v, err := s.mem.Load64(va)
	if err != nil {
		return 0, fmt.Errorf("redis: load %v: %w", va, err)
	}
	return v, nil
}

func (s *Store) put(va arch.VirtAddr, v uint64) error {
	if err := s.mem.Store64(va, v); err != nil {
		return fmt.Errorf("redis: store %v: %w", va, err)
	}
	return nil
}

// read fills b from the byte string at va and write stores b there: words
// through the Accessor's run-length accesses (mspace.ReadBytes, WriteBytes).
func (s *Store) read(va arch.VirtAddr, b []byte) error {
	if err := mspace.ReadBytes(s.mem, va, b); err != nil {
		return fmt.Errorf("redis: load %v: %w", va, err)
	}
	return nil
}

func (s *Store) write(va arch.VirtAddr, b []byte) error {
	if err := mspace.WriteBytes(s.mem, va, b); err != nil {
		return fmt.Errorf("redis: store %v: %w", va, err)
	}
	return nil
}

// putWords stores consecutive words at va as one run.
func (s *Store) putWords(va arch.VirtAddr, words ...uint64) error {
	for i, w := range words {
		binary.LittleEndian.PutUint64(s.scratch[i*8:], w)
	}
	return s.write(va, s.scratch[:len(words)*8])
}

var zeroPage [arch.PageSize]byte

func (s *Store) allocZeroed(n uint64) (arch.VirtAddr, error) {
	va, err := s.heap.Alloc(n)
	for off := uint64(0); err == nil && off < n; off += arch.PageSize {
		err = s.write(va+arch.VirtAddr(off), zeroPage[:min(n-off, arch.PageSize)])
	}
	return va, err
}

// keyAt reports whether the key stored at va, len(key) bytes long, equals
// key, comparing in place through the scratch buffer. It reads every word of
// the stored key however early the two differ: what a probe costs on the
// simulated clock depends on the key's length alone.
func (s *Store) keyAt(va arch.VirtAddr, key []byte) (bool, error) {
	eq := true
	for len(key) > 0 {
		part := s.scratch[:min(len(key), len(s.scratch))]
		if err := s.read(va, part); err != nil {
			return false, err
		}
		eq = eq && string(part) == string(key[:len(part)])
		key, va = key[len(part):], va+arch.VirtAddr(len(part))
	}
	return eq, nil
}

// fnv1a hashes a key (computed in client code; only the table lives in
// segment memory).
func fnv1a(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// bucketFor returns the address of the bucket head slot for key.
func (s *Store) bucketFor(key []byte) (arch.VirtAddr, error) {
	n, err := s.get(s.root + hdrNBkt)
	if err != nil {
		return 0, err
	}
	bkts, err := s.get(s.root + hdrBuckets)
	if err != nil {
		return 0, err
	}
	return arch.VirtAddr(bkts) + arch.VirtAddr((fnv1a(key)%n)*8), nil
}

// findEntry returns (entry, prevSlot) for key, entry == 0 if absent.
func (s *Store) findEntry(key []byte) (entry, prevSlot arch.VirtAddr, err error) {
	slot, err := s.bucketFor(key)
	if err != nil {
		return 0, 0, err
	}
	curWord, err := s.get(slot)
	if err != nil {
		return 0, 0, err
	}
	cur := arch.VirtAddr(curWord)
	for cur != 0 {
		klen, err := s.get(cur + entKeyLen)
		if err != nil {
			return 0, 0, err
		}
		if klen == uint64(len(key)) {
			kptr, err := s.get(cur + entKeyPtr)
			if err != nil {
				return 0, 0, err
			}
			if eq, err := s.keyAt(arch.VirtAddr(kptr), key); err != nil || eq {
				return cur, slot, err
			}
		}
		slot = cur + entNext
		if curWord, err = s.get(cur + entNext); err != nil {
			return 0, 0, err
		}
		cur = arch.VirtAddr(curWord)
	}
	return 0, slot, nil
}

// bytesAt reads the byte string whose address and length are the two words at
// ptr: an entry's key (entKeyPtr) or value (entValPtr).
func (s *Store) bytesAt(ptr arch.VirtAddr) ([]byte, error) {
	va, err := s.get(ptr)
	if err != nil {
		return nil, err
	}
	n, err := s.get(ptr + 8)
	if err != nil {
		return nil, err
	}
	b := make([]byte, n)
	return b, s.read(arch.VirtAddr(va), b)
}

// Get returns the value for key.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	ent, _, err := s.findEntry(key)
	if err != nil || ent == 0 {
		return nil, false, err
	}
	val, err := s.bytesAt(ent + entValPtr)
	return val, err == nil, err
}

// appendBulk is Get appending the value to dst as a RESP bulk string (the
// null bulk when key is absent), read from segment memory straight into dst.
// When dst has to grow it grows for more further values of the same size
// (within reason), so a reply of like-sized values is one allocation.
func (s *Store) appendBulk(dst, key []byte, more int) ([]byte, error) {
	ent, _, err := s.findEntry(key)
	if err != nil {
		return dst, err
	}
	if ent == 0 {
		return append(dst, "$-1\r\n"...), nil
	}
	va, err := s.get(ent + entValPtr)
	if err != nil {
		return dst, err
	}
	n, err := s.get(ent + entValLen)
	if err != nil {
		return dst, err
	}
	if need := bulkSize(int(n)); cap(dst)-len(dst) < need {
		dst = slices.Grow(dst, need+min(more*need, 64<<10))
	}
	dst = appendLen(dst, '$', int(n))
	end := len(dst) + int(n)
	if err := s.read(arch.VirtAddr(va), dst[len(dst):end]); err != nil {
		return dst, err
	}
	return append(dst[:end], '\r', '\n'), nil
}

// AppendReply appends the RESP reply to a GET (array false, one key) or to an
// MGET of keys: one appendBulk per key, in key order, behind the array header.
// It is the read loop of whoever is switched into a VAS that maps the store —
// a client in the read VAS, a router worker in a frozen view.
func (s *Store) AppendReply(dst []byte, keys []string, array bool) (_ []byte, err error) {
	if array {
		dst = appendLen(slices.Grow(dst, lenSize(len(keys))), '*', len(keys))
	}
	for i, key := range keys {
		if dst, err = s.appendBulk(dst, []byte(key), len(keys)-1-i); err != nil {
			break
		}
	}
	return dst, err
}

// Set inserts or replaces key's value.
func (s *Store) Set(key, val []byte) error {
	ent, _, err := s.findEntry(key)
	if err != nil {
		return err
	}
	if ent != 0 {
		// Replace the value in place.
		old, err := s.get(ent + entValPtr)
		if err != nil {
			return err
		}
		if err := s.heap.Free(arch.VirtAddr(old)); err != nil {
			return err
		}
		vptr, err := s.heap.Alloc(uint64(len(val)))
		if err != nil {
			return err
		}
		if err := s.write(vptr, val); err != nil {
			return err
		}
		if err := s.put(ent+entValPtr, uint64(vptr)); err != nil {
			return err
		}
		return s.put(ent+entValLen, uint64(len(val)))
	}
	kptr, err := s.heap.Alloc(uint64(len(key)))
	if err != nil {
		return err
	}
	if err := s.write(kptr, key); err != nil {
		return err
	}
	vptr, err := s.heap.Alloc(uint64(len(val)))
	if err != nil {
		return err
	}
	if err := s.write(vptr, val); err != nil {
		return err
	}
	e, err := s.heap.Alloc(entSize)
	if err != nil {
		return err
	}
	slot, err := s.bucketFor(key)
	if err != nil {
		return err
	}
	head, err := s.get(slot)
	if err != nil {
		return err
	}
	// entNext, entKeyPtr, entKeyLen, entValPtr, entValLen.
	if err := s.putWords(e, head, uint64(kptr), uint64(len(key)), uint64(vptr), uint64(len(val))); err != nil {
		return err
	}
	if err := s.put(slot, uint64(e)); err != nil {
		return err
	}
	count, err := s.get(s.root + hdrCount)
	if err != nil {
		return err
	}
	return s.put(s.root+hdrCount, count+1)
}

// Del removes key, reporting whether it was present.
func (s *Store) Del(key []byte) (bool, error) {
	ent, prevSlot, err := s.findEntry(key)
	if err != nil {
		return false, err
	}
	if ent == 0 {
		return false, nil
	}
	next, err := s.get(ent + entNext)
	if err != nil {
		return false, err
	}
	if err := s.put(prevSlot, next); err != nil {
		return false, err
	}
	for _, w := range []arch.VirtAddr{entKeyPtr, entValPtr} {
		ptr, err := s.get(ent + w)
		if err != nil {
			return false, err
		}
		if err := s.heap.Free(arch.VirtAddr(ptr)); err != nil {
			return false, err
		}
	}
	if err := s.heap.Free(ent); err != nil {
		return false, err
	}
	count, err := s.get(s.root + hdrCount)
	if err != nil {
		return false, err
	}
	if err := s.put(s.root+hdrCount, count-1); err != nil {
		return false, err
	}
	return true, nil
}

// Len returns the number of entries.
func (s *Store) Len() (uint64, error) {
	return s.get(s.root + hdrCount)
}

// ForEach walks every entry, calling fn(key, value) on each. A non-nil
// error from fn stops the walk and is returned. The caller must hold the
// segment at least shared for the duration; fn must not mutate the store
// (Set/Del during the walk would relink chains under the iterator — collect
// keys first, then mutate).
func (s *Store) ForEach(fn func(key, val []byte) error) error {
	n, err := s.get(s.root + hdrNBkt)
	if err != nil {
		return err
	}
	bktsWord, err := s.get(s.root + hdrBuckets)
	if err != nil {
		return err
	}
	bkts := arch.VirtAddr(bktsWord)
	for i := uint64(0); i < n; i++ {
		curWord, err := s.get(bkts + arch.VirtAddr(i*8))
		if err != nil {
			return err
		}
		cur := arch.VirtAddr(curWord)
		for cur != 0 {
			key, err := s.bytesAt(cur + entKeyPtr)
			if err != nil {
				return err
			}
			val, err := s.bytesAt(cur + entValPtr)
			if err != nil {
				return err
			}
			if err := fn(key, val); err != nil {
				return err
			}
			nextWord, err := s.get(cur + entNext)
			if err != nil {
				return err
			}
			cur = arch.VirtAddr(nextWord)
		}
	}
	return nil
}

// NeedRehash reports whether the table exceeds its load factor. Redis
// normally rehashes asynchronously; RedisJMP rehashes only while a client
// holds the exclusive lock (§5.3), so clients check this on the SET path.
func (s *Store) NeedRehash() (bool, error) {
	n, err := s.get(s.root + hdrNBkt)
	if err != nil {
		return false, err
	}
	count, err := s.get(s.root + hdrCount)
	if err != nil {
		return false, err
	}
	return count > 4*n, nil
}

// Rehash grows the bucket array fourfold and relinks every entry. Caller
// must hold the segment exclusively.
func (s *Store) Rehash() error {
	oldN, err := s.get(s.root + hdrNBkt)
	if err != nil {
		return err
	}
	oldWord, err := s.get(s.root + hdrBuckets)
	if err != nil {
		return err
	}
	oldBkts := arch.VirtAddr(oldWord)
	newN := oldN * 4
	newBkts, err := s.allocZeroed(newN * 8)
	if err != nil {
		return err
	}
	// Install the new table first so bucketFor sees it while relinking.
	if err := s.put(s.root+hdrBuckets, uint64(newBkts)); err != nil {
		return err
	}
	if err := s.put(s.root+hdrNBkt, newN); err != nil {
		return err
	}
	for i := uint64(0); i < oldN; i++ {
		curWord, err := s.get(oldBkts + arch.VirtAddr(i*8))
		if err != nil {
			return err
		}
		cur := arch.VirtAddr(curWord)
		for cur != 0 {
			nextWord, err := s.get(cur + entNext)
			if err != nil {
				return err
			}
			key, err := s.bytesAt(cur + entKeyPtr)
			if err != nil {
				return err
			}
			slot, err := s.bucketFor(key)
			if err != nil {
				return err
			}
			head, err := s.get(slot)
			if err != nil {
				return err
			}
			if err := s.put(cur+entNext, head); err != nil {
				return err
			}
			if err := s.put(slot, uint64(cur)); err != nil {
				return err
			}
			cur = arch.VirtAddr(nextWord)
		}
	}
	return s.heap.Free(oldBkts)
}
