package sam

import (
	"fmt"
	"sort"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/mem"
	"spacejmp/internal/vm"
)

// Op is one tool execution in the workflow chain.
type Op string

// The paper's four operations (Figure 11/12 x-axis).
const (
	OpFlagstat  Op = "flagstat"
	OpQnameSort Op = "qname-sort"
	OpCoordSort Op = "coordinate-sort"
	OpIndex     Op = "index"
)

// Ops is the workflow order: stats, name sort, coordinate sort, index.
var Ops = []Op{OpFlagstat, OpQnameSort, OpCoordSort, OpIndex}

// Serialization and native-operation cycle costs. File data lives in an
// in-memory file system (as in the paper, which factors disk out), so
// costs are CPU work per byte/record.
const (
	samParsePerByte   = 5  // text scan + field conversion
	samWritePerByte   = 3  // formatting
	bamInflatePerByte = 12 // DEFLATE decompression
	bamDeflatePerByte = 30 // DEFLATE compression
	bamParsePerByte   = 1  // binary field decode
	fsCopyPerByte     = 1  // in-memory fs read+write

	natFlagstatPerRec = 8
	natSortCmp        = 50
	natIndexPerRec    = 60

	mmapSyscall = kernel.SyscallCycles
)

// Result maps each operation to its simulated duration.
type Result struct {
	Mode    string
	Cycles  map[Op]uint64
	Seconds map[Op]float64

	// Final state for cross-mode verification.
	Flagstat FlagstatResult
	FirstPos int32 // first record's position after coordinate sort
	Bins     int   // index bins built
}

func newResult(mode string) *Result {
	return &Result{Mode: mode, Cycles: map[Op]uint64{}, Seconds: map[Op]float64{}}
}

func (r *Result) finish(m *hw.Machine) *Result {
	for op, c := range r.Cycles {
		r.Seconds[op] = m.CyclesToNs(c) / 1e9
	}
	return r
}

// nativePipeline runs one op on native records, returning op-model cycles.
func nativeOp(op Op, recs []Record, r *Result) uint64 {
	n := uint64(len(recs))
	switch op {
	case OpFlagstat:
		r.Flagstat = Flagstat(recs)
		return n * natFlagstatPerRec
	case OpQnameSort:
		var cmps uint64
		sort.SliceStable(recs, func(i, j int) bool { cmps++; return recs[i].QName < recs[j].QName })
		return cmps * natSortCmp
	case OpCoordSort:
		var cmps uint64
		sort.SliceStable(recs, func(i, j int) bool { cmps++; return CoordLess(&recs[i], &recs[j]) })
		if len(recs) > 0 {
			r.FirstPos = recs[0].Pos
		}
		return cmps * natSortCmp
	case OpIndex:
		r.Bins = len(BuildIndex(recs))
		return n * natIndexPerRec
	}
	panic("sam: unknown op " + string(op))
}

// RunSAM runs the workflow over SAM text files: every tool parses the
// file, operates, and serializes the result back (the paper's "SAM" bars).
func RunSAM(m *hw.Machine, recs []Record) (*Result, error) {
	r := newResult("SAM")
	file := EncodeSAM(recs)
	for _, op := range Ops {
		cycles := uint64(len(file)) * (samParsePerByte + fsCopyPerByte)
		parsed, err := DecodeSAM(file)
		if err != nil {
			return nil, fmt.Errorf("sam mode: %w", err)
		}
		cycles += nativeOp(op, parsed, r)
		file = EncodeSAM(parsed)
		cycles += uint64(len(file)) * (samWritePerByte + fsCopyPerByte)
		r.Cycles[op] = cycles
	}
	return r.finish(m), nil
}

// RunBAM runs the workflow over compressed binary files.
func RunBAM(m *hw.Machine, recs []Record) (*Result, error) {
	r := newResult("BAM")
	file, err := EncodeBAM(recs)
	if err != nil {
		return nil, err
	}
	for _, op := range Ops {
		cycles := uint64(len(file))*fsCopyPerByte + uint64(len(file))*bamInflatePerByte
		parsed, err := DecodeBAM(file)
		if err != nil {
			return nil, fmt.Errorf("bam mode: %w", err)
		}
		cycles += uint64(len(parsed)) * 64 * bamParsePerByte // fixed+string headers
		cycles += nativeOp(op, parsed, r)
		if file, err = EncodeBAM(parsed); err != nil {
			return nil, err
		}
		cycles += uint64(len(file))*(bamDeflatePerByte) + uint64(len(file))*fsCopyPerByte
		r.Cycles[op] = cycles
	}
	return r.finish(m), nil
}

// memOp runs one op against a MemStore through an accessor-backed store.
func memOp(op Op, ms *MemStore, r *Result) error {
	switch op {
	case OpFlagstat:
		res, err := ms.Flagstat()
		if err != nil {
			return err
		}
		r.Flagstat = res
	case OpQnameSort:
		return ms.SortQName()
	case OpCoordSort:
		if err := ms.SortCoord(); err != nil {
			return err
		}
		rec, err := ms.ReadRecord(0)
		if err != nil {
			return err
		}
		r.FirstPos = rec.Pos
	case OpIndex:
		bins, err := ms.BuildIndex()
		if err != nil {
			return err
		}
		r.Bins = bins
	}
	return nil
}

// storeSegSize sizes the region/segment holding the MemStore.
func storeSegSize(n int) uint64 {
	size := uint64(n)*1024 + (4 << 20)
	return arch.PagesIn(size) * arch.PageSize
}

// memBase is where the region file / segment is mapped in both in-memory
// modes.
const memBase = core.GlobalBase

// RunMmap keeps the MemStore in a region file that every tool mmaps: no
// serialization, but page tables are constructed (and torn down) per tool
// execution (the paper's "MMAP" bars, Figure 12).
func RunMmap(m *hw.Machine, recs []Record) (*Result, error) {
	r := newResult("MMAP")
	segSize := storeSegSize(len(recs))
	// The region file: a persistent VM object in the in-memory fs.
	file := vm.NewObject(m.PM, "sam.region", segSize, mem.TierDRAM)
	defer file.Unref()
	if err := file.Populate(); err != nil {
		return nil, err
	}
	c := m.Cores[0]

	// Region-based build (setup, not measured — the paper measures tool
	// executions against an existing region file).
	setup, err := vm.NewSpace(m.PM)
	if err != nil {
		return nil, err
	}
	if _, err := setup.Map(memBase, segSize, arch.PermRW, file, 0, vm.MapFixed|vm.MapPopulate); err != nil {
		return nil, err
	}
	c.LoadCR3(setup.Table(), arch.ASIDFlush)
	c.OnFault = setup.Handler()
	if _, err := CreateMemStore(c, memBase, segSize, recs); err != nil {
		return nil, err
	}
	setup.Destroy()

	for _, op := range Ops {
		// Each tool execution is a fresh process: mmap the region file,
		// operate in place, munmap. Timers exclude unmap, as the paper
		// stops timers before process exit to exclude implicit unmapping.
		space, err := vm.NewSpace(m.PM)
		if err != nil {
			return nil, err
		}
		start := c.Cycles()
		before := space.Table().Stats()
		if _, err := space.Map(memBase, segSize, arch.PermRW, file, 0, vm.MapFixed|vm.MapPopulate); err != nil {
			return nil, err
		}
		c.ChargePT(hw.DeltaPT(before, space.Table().Stats()))
		c.AddCycles(mmapSyscall)
		c.LoadCR3(space.Table(), arch.ASIDFlush)
		c.OnFault = space.Handler()
		ms, err := OpenMemStore(c, memBase)
		if err != nil {
			return nil, err
		}
		if err := memOp(op, ms, r); err != nil {
			return nil, err
		}
		r.Cycles[op] = c.Cycles() - start
		space.Destroy()
	}
	return r.finish(m), nil
}

// RunSpaceJMP keeps the MemStore in a VAS that each tool process attaches
// to and switches into (the paper's "SpaceJMP" bars).
func RunSpaceJMP(sys *core.System, recs []Record) (*Result, error) {
	r := newResult("SpaceJMP")
	segSize := storeSegSize(len(recs))

	// Setup process builds the store and exits; the VAS outlives it.
	setup, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		return nil, err
	}
	th, err := setup.NewThread()
	if err != nil {
		return nil, err
	}
	vid, err := th.VASCreate("sam.vas", 0o666)
	if err != nil {
		return nil, err
	}
	sid, err := th.SegAlloc("sam.data", memBase, segSize, arch.PermRW)
	if err != nil {
		return nil, err
	}
	if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		return nil, err
	}
	h, err := th.VASAttach(vid)
	if err != nil {
		return nil, err
	}
	if err := th.VASSwitch(h); err != nil {
		return nil, err
	}
	if _, err := CreateMemStore(th, memBase, segSize, recs); err != nil {
		return nil, err
	}
	if err := th.VASSwitch(core.PrimaryHandle); err != nil {
		return nil, err
	}
	setup.Exit()

	for _, op := range Ops {
		proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
		if err != nil {
			return nil, err
		}
		th, err := proc.NewThread()
		if err != nil {
			return nil, err
		}
		start := th.Core.Cycles()
		vid, err := th.VASFind("sam.vas")
		if err != nil {
			return nil, err
		}
		h, err := th.VASAttach(vid)
		if err != nil {
			return nil, err
		}
		if err := th.VASSwitch(h); err != nil {
			return nil, err
		}
		ms, err := OpenMemStore(th, memBase)
		if err != nil {
			return nil, err
		}
		if err := memOp(op, ms, r); err != nil {
			return nil, err
		}
		r.Cycles[op] = th.Core.Cycles() - start
		if err := th.VASSwitch(core.PrimaryHandle); err != nil {
			return nil, err
		}
		proc.Exit()
	}
	return r.finish(sys.M), nil
}
