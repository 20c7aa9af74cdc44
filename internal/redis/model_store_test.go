package redis

import (
	"errors"
	"fmt"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/mspace"
)

// refStore is the store as it was before the run-length accesses: every byte
// string moved through readBytes/writeBytes, one Load64/Store64 per word, a
// fresh slice per probed key, and replies encoded from the copies. It is kept
// verbatim (names aside) as the reference TestStoreMatchesWordLoopModel runs
// beside Store on a second machine: same replies, same segment bytes, same
// simulated cycles. It shares the layout constants and fnv1a with store.go;
// a store is always formatted by CreateStore.
type refStore struct {
	mem  mspace.Accessor
	heap *mspace.Space
	base arch.VirtAddr
	root arch.VirtAddr // header chunk
}

// openRefStore attaches to a store created earlier (possibly by another
// process in an earlier lifetime).
func openRefStore(mem mspace.Accessor, base arch.VirtAddr) (*refStore, error) {
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
	return &refStore{mem: mem, heap: heap, base: base, root: arch.VirtAddr(rootWord)}, nil
}

func (s *refStore) get(va arch.VirtAddr) (uint64, error) {
	v, err := s.mem.Load64(va)
	if err != nil {
		return 0, fmt.Errorf("redis: load %v: %w", va, err)
	}
	return v, nil
}

func (s *refStore) put(va arch.VirtAddr, v uint64) error {
	if err := s.mem.Store64(va, v); err != nil {
		return fmt.Errorf("redis: store %v: %w", va, err)
	}
	return nil
}

func (s *refStore) allocZeroed(n uint64) (arch.VirtAddr, error) {
	va, err := s.heap.Alloc(n)
	if err != nil {
		return 0, err
	}
	for off := uint64(0); off < n; off += 8 {
		if err := s.put(va+arch.VirtAddr(off), 0); err != nil {
			return 0, err
		}
	}
	return va, nil
}

// writeBytes stores b into segment memory word by word.
func (s *refStore) writeBytes(va arch.VirtAddr, b []byte) error {
	for off := 0; off < len(b); off += 8 {
		var w uint64
		for k := 0; k < 8 && off+k < len(b); k++ {
			w |= uint64(b[off+k]) << (8 * k)
		}
		if err := s.put(va+arch.VirtAddr(off), w); err != nil {
			return err
		}
	}
	return nil
}

// readBytes loads n bytes from segment memory.
func (s *refStore) readBytes(va arch.VirtAddr, n uint64) ([]byte, error) {
	out := make([]byte, n)
	for off := uint64(0); off < n; off += 8 {
		w, err := s.get(va + arch.VirtAddr(off))
		if err != nil {
			return nil, err
		}
		for k := uint64(0); k < 8 && off+k < n; k++ {
			out[off+k] = byte(w >> (8 * k))
		}
	}
	return out, nil
}

// bucketFor returns the address of the bucket head slot for key.
func (s *refStore) bucketFor(key []byte) (arch.VirtAddr, error) {
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
func (s *refStore) findEntry(key []byte) (entry, prevSlot arch.VirtAddr, err error) {
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
			k, err := s.readBytes(arch.VirtAddr(kptr), klen)
			if err != nil {
				return 0, 0, err
			}
			if string(k) == string(key) {
				return cur, slot, nil
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

// Get returns the value for key.
func (s *refStore) Get(key []byte) ([]byte, bool, error) {
	ent, _, err := s.findEntry(key)
	if err != nil {
		return nil, false, err
	}
	if ent == 0 {
		return nil, false, nil
	}
	vptr, err := s.get(ent + entValPtr)
	if err != nil {
		return nil, false, err
	}
	vlen, err := s.get(ent + entValLen)
	if err != nil {
		return nil, false, err
	}
	val, err := s.readBytes(arch.VirtAddr(vptr), vlen)
	if err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Set inserts or replaces key's value.
func (s *refStore) Set(key, val []byte) error {
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
		if err := s.writeBytes(vptr, val); err != nil {
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
	if err := s.writeBytes(kptr, key); err != nil {
		return err
	}
	vptr, err := s.heap.Alloc(uint64(len(val)))
	if err != nil {
		return err
	}
	if err := s.writeBytes(vptr, val); err != nil {
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
	for _, w := range []struct {
		off arch.VirtAddr
		v   uint64
	}{
		{entNext, head},
		{entKeyPtr, uint64(kptr)},
		{entKeyLen, uint64(len(key))},
		{entValPtr, uint64(vptr)},
		{entValLen, uint64(len(val))},
	} {
		if err := s.put(e+w.off, w.v); err != nil {
			return err
		}
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
func (s *refStore) Del(key []byte) (bool, error) {
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
func (s *refStore) Len() (uint64, error) {
	return s.get(s.root + hdrCount)
}

// ForEach walks every entry, calling fn(key, value) on each. A non-nil
// error from fn stops the walk and is returned. The caller must hold the
// segment at least shared for the duration; fn must not mutate the store
// (Set/Del during the walk would relink chains under the iterator — collect
// keys first, then mutate).
func (s *refStore) ForEach(fn func(key, val []byte) error) error {
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
			kptr, err := s.get(cur + entKeyPtr)
			if err != nil {
				return err
			}
			klen, err := s.get(cur + entKeyLen)
			if err != nil {
				return err
			}
			key, err := s.readBytes(arch.VirtAddr(kptr), klen)
			if err != nil {
				return err
			}
			vptr, err := s.get(cur + entValPtr)
			if err != nil {
				return err
			}
			vlen, err := s.get(cur + entValLen)
			if err != nil {
				return err
			}
			val, err := s.readBytes(arch.VirtAddr(vptr), vlen)
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
func (s *refStore) NeedRehash() (bool, error) {
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
func (s *refStore) Rehash() error {
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
			kptr, err := s.get(cur + entKeyPtr)
			if err != nil {
				return err
			}
			klen, err := s.get(cur + entKeyLen)
			if err != nil {
				return err
			}
			key, err := s.readBytes(arch.VirtAddr(kptr), klen)
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

// refClient is the client side of the same vintage (jmp.go and exec.go before
// Client.in and bulkReply), over a refStore.
type refClient struct {
	th     *core.Thread
	readH  core.Handle
	writeH core.Handle
	store  *refStore
}

func (c *refClient) Get(key string) ([]byte, bool, error) {
	c.th.Core.AddCycles(parseCycles)
	if err := c.th.VASSwitch(c.readH); err != nil {
		return nil, false, err
	}
	val, ok, err := c.store.Get([]byte(key))
	if serr := c.th.VASSwitch(core.PrimaryHandle); err == nil {
		err = serr
	}
	if err != nil {
		return nil, false, err
	}
	return val, ok, nil
}

func (c *refClient) MGet(keys []string) ([][]byte, error) {
	c.th.Core.AddCycles(uint64(len(keys)) * parseCycles)
	if err := c.th.VASSwitch(c.readH); err != nil {
		return nil, err
	}
	vals := make([][]byte, len(keys))
	var err error
	for i, key := range keys {
		var v []byte
		var ok bool
		if v, ok, err = c.store.Get([]byte(key)); err != nil {
			break
		}
		if ok {
			vals[i] = v
		}
	}
	if serr := c.th.VASSwitch(core.PrimaryHandle); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return vals, nil
}

func (c *refClient) Set(key string, val []byte) error {
	c.th.Core.AddCycles(parseCycles)
	if err := c.th.VASSwitch(c.writeH); err != nil {
		return err
	}
	err := c.store.Set([]byte(key), val)
	if err == nil {
		var need bool
		if need, err = c.store.NeedRehash(); err == nil && need {
			err = c.store.Rehash()
		}
	}
	if serr := c.th.VASSwitch(core.PrimaryHandle); err == nil {
		err = serr
	}
	if errors.Is(err, mspace.ErrNoSpace) {
		return fmt.Errorf("%w: %w", ErrStoreFull, err)
	}
	return err
}

func (c *refClient) Del(key string) (bool, error) {
	c.th.Core.AddCycles(parseCycles)
	if err := c.th.VASSwitch(c.writeH); err != nil {
		return false, err
	}
	found, err := c.store.Del([]byte(key))
	if serr := c.th.VASSwitch(core.PrimaryHandle); err == nil {
		err = serr
	}
	return found, err
}

// refRun is Run's data-command arms as they were.
func refRun(c *refClient, cmd *Command, args []string) []byte {
	switch cmd.Op {
	case OpGet:
		v, ok, err := c.Get(args[1])
		if err != nil {
			return EncodeError(err.Error())
		}
		if !ok {
			return EncodeBulk(nil)
		}
		return EncodeBulk(v)
	case OpMGet:
		vals, err := c.MGet(args[1:])
		if err != nil {
			return EncodeError(err.Error())
		}
		return EncodeArray(vals)
	case OpSet:
		if err := c.Set(args[1], []byte(args[2])); err != nil {
			if errors.Is(err, ErrStoreFull) {
				return EncodeError("OOM store segment full")
			}
			return EncodeError(err.Error())
		}
		return EncodeSimple("OK")
	case OpDel:
		found, err := c.Del(args[1])
		if err != nil {
			return EncodeError(err.Error())
		}
		if found {
			return EncodeInt(1)
		}
		return EncodeInt(0)
	}
	panic("refRun: not a data command")
}
