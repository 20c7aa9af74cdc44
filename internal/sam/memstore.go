package sam

import (
	"fmt"
	"sort"

	"spacejmp/internal/arch"
	"spacejmp/internal/mspace"
)

// MemStore is the pointer-rich in-memory representation the SpaceJMP and
// mmap workflows keep alive between tool executions: an array of record
// pointers plus per-record chunks and string data, all inside one segment
// (or region file) and addressed by stable virtual addresses. Tools
// operating on it never serialize — they chase the pointers directly,
// which is exactly what Figures 11 and 12 measure.
type MemStore struct {
	mem  mspace.Accessor
	heap *mspace.Space
	base arch.VirtAddr
	root arch.VirtAddr
}

// Root header words.
const (
	msCount = 0 // number of records
	msArray = 8 // VA of the record-pointer array
	msIndex = 16
	msSize  = 24
)

// Record chunk words.
const (
	rFlag  = 0 // flag | mapq<<16
	rPos   = 8
	rPNext = 16
	rTLen  = 24
	rQName = 32 // VA of string chunk
	rRName = 40
	rCIGAR = 48
	rRNext = 56
	rSeq   = 64
	rQual  = 72
	rSize  = 80
)

const memHeapOff = arch.PageSize

// CreateMemStore formats a segment and loads recs into it.
func CreateMemStore(mem mspace.Accessor, base arch.VirtAddr, size uint64, recs []Record) (ms *MemStore, err error) {
	defer guard(&err)
	heap, err := mspace.Init(mem, base+memHeapOff, size-memHeapOff)
	if err != nil {
		return nil, err
	}
	s := &MemStore{mem: mem, heap: heap, base: base}
	root, err := heap.Alloc(msSize)
	if err != nil {
		return nil, err
	}
	s.root = root
	arr, err := heap.Alloc(uint64(len(recs)) * 8)
	if err != nil {
		return nil, err
	}
	s.put(root+msCount, uint64(len(recs)))
	s.put(root+msArray, uint64(arr))
	s.put(root+msIndex, 0)
	for i := range recs {
		rec, err := s.writeRecord(&recs[i])
		if err != nil {
			return nil, err
		}
		s.put(arr+arch.VirtAddr(i*8), uint64(rec))
	}
	s.put(base, uint64(root))
	return s, nil
}

// OpenMemStore attaches to an existing store (another process's view).
func OpenMemStore(mem mspace.Accessor, base arch.VirtAddr) (ms *MemStore, err error) {
	defer guard(&err)
	heap, err := mspace.Open(mem, base+memHeapOff)
	if err != nil {
		return nil, err
	}
	rootWord, err := mem.Load64(base)
	if err != nil {
		return nil, err
	}
	if rootWord == 0 {
		return nil, fmt.Errorf("sam: no store at %v", base)
	}
	return &MemStore{mem: mem, heap: heap, base: base, root: arch.VirtAddr(rootWord)}, nil
}

func guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("sam: store access failed: %v", r)
	}
}

func (s *MemStore) get(va arch.VirtAddr) uint64 {
	v, err := s.mem.Load64(va)
	if err != nil {
		panic(err)
	}
	return v
}

func (s *MemStore) put(va arch.VirtAddr, v uint64) {
	if err := s.mem.Store64(va, v); err != nil {
		panic(err)
	}
}

// writeString allocates a length-prefixed string chunk.
func (s *MemStore) writeString(str string) (arch.VirtAddr, error) {
	va, err := s.heap.Alloc(8 + uint64(len(str)))
	if err != nil {
		return 0, err
	}
	s.put(va, uint64(len(str)))
	if err := mspace.WriteBytes(s.mem, va+8, []byte(str)); err != nil {
		panic(err)
	}
	return va, nil
}

func (s *MemStore) readString(va arch.VirtAddr) string {
	out := make([]byte, s.get(va))
	if err := mspace.ReadBytes(s.mem, va+8, out); err != nil {
		panic(err)
	}
	return string(out)
}

func (s *MemStore) writeRecord(r *Record) (arch.VirtAddr, error) {
	rec, err := s.heap.Alloc(rSize)
	if err != nil {
		return 0, err
	}
	s.put(rec+rFlag, uint64(r.Flag)|uint64(r.MapQ)<<16)
	s.put(rec+rPos, uint64(uint32(r.Pos)))
	s.put(rec+rPNext, uint64(uint32(r.PNext)))
	s.put(rec+rTLen, uint64(uint32(r.TLen)))
	for off, str := range map[arch.VirtAddr]string{
		rQName: r.QName, rRName: r.RName, rCIGAR: r.CIGAR,
		rRNext: r.RNext, rSeq: r.Seq, rQual: r.Qual,
	} {
		sv, err := s.writeString(str)
		if err != nil {
			return 0, err
		}
		s.put(rec+off, uint64(sv))
	}
	return rec, nil
}

// Count returns the number of records.
func (s *MemStore) Count() (n uint64, err error) {
	defer guard(&err)
	return s.get(s.root + msCount), nil
}

// record returns the address of record i.
func (s *MemStore) record(i uint64) arch.VirtAddr {
	arr := arch.VirtAddr(s.get(s.root + msArray))
	return arch.VirtAddr(s.get(arr + arch.VirtAddr(i*8)))
}

// ReadRecord materializes record i as a native value (for verification).
func (s *MemStore) ReadRecord(i uint64) (out Record, err error) {
	defer guard(&err)
	rec := s.record(i)
	fl := s.get(rec + rFlag)
	out = Record{
		Flag: uint16(fl), MapQ: uint8(fl >> 16),
		Pos:   int32(uint32(s.get(rec + rPos))),
		PNext: int32(uint32(s.get(rec + rPNext))),
		TLen:  int32(uint32(s.get(rec + rTLen))),
		QName: s.readString(arch.VirtAddr(s.get(rec + rQName))),
		RName: s.readString(arch.VirtAddr(s.get(rec + rRName))),
		CIGAR: s.readString(arch.VirtAddr(s.get(rec + rCIGAR))),
		RNext: s.readString(arch.VirtAddr(s.get(rec + rRNext))),
		Seq:   s.readString(arch.VirtAddr(s.get(rec + rSeq))),
		Qual:  s.readString(arch.VirtAddr(s.get(rec + rQual))),
	}
	return out, nil
}

// Flagstat walks every record in segment memory.
func (s *MemStore) Flagstat() (res FlagstatResult, err error) {
	defer guard(&err)
	n := s.get(s.root + msCount)
	for i := uint64(0); i < n; i++ {
		f := uint16(s.get(s.record(i) + rFlag))
		res.Total++
		if f&FlagUnmapped == 0 {
			res.Mapped++
		}
		if f&FlagPaired != 0 {
			res.Paired++
		}
		if f&FlagProperPair != 0 {
			res.ProperPair++
		}
		if f&FlagDuplicate != 0 {
			res.Duplicates++
		}
		if f&FlagSecondary != 0 {
			res.Secondary++
		}
		if f&FlagQCFail != 0 {
			res.QCFail++
		}
		if f&FlagRead1 != 0 {
			res.Read1++
		}
		if f&FlagRead2 != 0 {
			res.Read2++
		}
	}
	return res, nil
}

// SortQName reorders the pointer array by query name. Comparisons chase
// pointers through segment memory — no data is copied or serialized.
func (s *MemStore) SortQName() (err error) {
	defer guard(&err)
	return s.sortBy(func(a, b arch.VirtAddr) bool {
		return s.readString(arch.VirtAddr(s.get(a+rQName))) < s.readString(arch.VirtAddr(s.get(b+rQName)))
	})
}

// SortCoord reorders by (reference, position), unmapped last.
func (s *MemStore) SortCoord() (err error) {
	defer guard(&err)
	rank := func(rec arch.VirtAddr) int {
		return refRank(s.readString(arch.VirtAddr(s.get(rec + rRName))))
	}
	return s.sortBy(func(a, b arch.VirtAddr) bool {
		ra, rb := rank(a), rank(b)
		if ra != rb {
			return ra < rb
		}
		return int32(uint32(s.get(a+rPos))) < int32(uint32(s.get(b+rPos)))
	})
}

func (s *MemStore) sortBy(less func(a, b arch.VirtAddr) bool) error {
	n := s.get(s.root + msCount)
	arr := arch.VirtAddr(s.get(s.root + msArray))
	ptrs := make([]arch.VirtAddr, n)
	for i := range ptrs {
		ptrs[i] = arch.VirtAddr(s.get(arr + arch.VirtAddr(i*8)))
	}
	sort.SliceStable(ptrs, func(i, j int) bool { return less(ptrs[i], ptrs[j]) })
	for i, p := range ptrs {
		s.put(arr+arch.VirtAddr(i*8), uint64(p))
	}
	return nil
}

// BuildIndex builds the linear index inside the segment: an array of
// (refRank, bin, firstIdx) triples over the coordinate-sorted records,
// linked from the root so later processes find it.
func (s *MemStore) BuildIndex() (bins int, err error) {
	defer guard(&err)
	n := s.get(s.root + msCount)
	type key struct{ rank, bin int32 }
	seen := map[key]bool{}
	var triples []uint64
	for i := uint64(0); i < n; i++ {
		rec := s.record(i)
		if uint16(s.get(rec+rFlag))&FlagUnmapped != 0 {
			continue
		}
		k := key{
			int32(refRank(s.readString(arch.VirtAddr(s.get(rec + rRName))))),
			int32(uint32(s.get(rec+rPos))) / IndexBinSize,
		}
		if !seen[k] {
			seen[k] = true
			triples = append(triples, uint64(uint32(k.rank))<<32|uint64(uint32(k.bin)), uint64(i))
		}
	}
	idx, err := s.heap.Alloc(8 + uint64(len(triples))*8)
	if err != nil {
		return 0, err
	}
	s.put(idx, uint64(len(triples)/2))
	for i, w := range triples {
		s.put(idx+8+arch.VirtAddr(i*8), w)
	}
	// Replace any previous index.
	if old := s.get(s.root + msIndex); old != 0 {
		if err := s.heap.Free(arch.VirtAddr(old)); err != nil {
			return 0, err
		}
	}
	s.put(s.root+msIndex, uint64(idx))
	return len(triples) / 2, nil
}

// QueryIndex resolves (ref, pos) through the segment-resident index,
// returning the index of the first record in the bin — the random-access
// path a downstream viewer uses without parsing anything.
func (s *MemStore) QueryIndex(ref string, pos int32) (first int32, ok bool, err error) {
	defer guard(&err)
	idx := arch.VirtAddr(s.get(s.root + msIndex))
	if idx == 0 {
		return 0, false, fmt.Errorf("sam: no index built")
	}
	want := uint64(uint32(refRank(ref)))<<32 | uint64(uint32(pos/IndexBinSize))
	n := s.get(idx)
	for i := uint64(0); i < n; i++ {
		key := s.get(idx + 8 + arch.VirtAddr(i*16))
		if key == want {
			return int32(uint32(s.get(idx + 8 + arch.VirtAddr(i*16+8)))), true, nil
		}
	}
	return 0, false, nil
}
