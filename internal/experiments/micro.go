// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each function returns the series/rows the corresponding
// plot reports; cmd/spacejmp-bench prints them and the root bench suite
// wraps them in testing.B benchmarks. EXPERIMENTS.md records how each
// reproduction compares with the paper.
package experiments

import (
	"fmt"
	"math/rand"

	"spacejmp/internal/arch"
	"spacejmp/internal/caps"
	"spacejmp/internal/core"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/pt"
	"spacejmp/internal/urpc"
	"spacejmp/internal/vm"
)

// Fig1Point is one x-position of Figure 1: mmap/munmap latency for a
// region of 2^SizePow bytes with 4 KiB pages, with and without cached
// translations.
type Fig1Point struct {
	SizePow       int
	MapMs         float64
	UnmapMs       float64
	MapCachedMs   float64
	UnmapCachedMs float64
	// Counter evidence for the latency claim: table nodes allocated by the
	// plain map (grows with region size) vs by the cached attach (O(1) —
	// the subtree already exists and is only linked).
	MapNodes       uint64
	MapCachedNodes uint64
}

// Fig1 measures page-table construction and removal cost for region sizes
// 2^15..2^maxPow bytes (the paper sweeps to 2^35). "Cached" rows attach
// the region through a pre-built translation subtree (§4.1's cached
// translations) instead of constructing page tables.
func Fig1(maxPow int) ([]Fig1Point, error) {
	m := hw.NewMachine(hw.M2())
	sink := m.EnableStats(0)
	var out []Fig1Point
	for p := 15; p <= maxPow; p++ {
		size := uint64(1) << p
		space, err := vm.NewSpace(m.PM)
		if err != nil {
			return nil, err
		}
		space.SetObserver(sink)
		c := m.Cores[0]

		measure := func(f func() error) (float64, error) {
			before := c.Cycles()
			ptBefore := space.Table().Stats()
			if err := f(); err != nil {
				return 0, err
			}
			c.ChargePT(hw.DeltaPT(ptBefore, space.Table().Stats()))
			c.AddCycles(kernel.SyscallCycles) // the system call itself
			return m.CyclesToNs(c.Cycles()-before) / 1e6, nil
		}

		pt_ := Fig1Point{SizePow: p}
		nodesBefore := sink.Snapshot().PT.NodesAllocated
		if pt_.MapMs, err = measure(func() error {
			_, err := space.MapAnon(core.GlobalBase, size, arch.PermRW, vm.MapFixed|vm.MapPopulate)
			return err
		}); err != nil {
			return nil, err
		}
		pt_.MapNodes = sink.Snapshot().PT.NodesAllocated - nodesBefore
		if pt_.UnmapMs, err = measure(func() error {
			return space.Unmap(core.GlobalBase, size)
		}); err != nil {
			return nil, err
		}

		// Cached translations: a segment carrying its own subtree links in
		// O(1) regardless of region size.
		sys := kernel.New(m)
		proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
		if err != nil {
			return nil, err
		}
		th, err := proc.NewThread()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("fig1.seg%d", p)
		sid, err := th.SegAlloc(name, core.GlobalBase, size, arch.PermRW)
		if err != nil {
			return nil, err
		}
		if err := th.SegCtl(sid, core.CacheTranslations()); err != nil {
			return nil, err
		}
		seg, err := sys.SegByID(sid)
		if err != nil {
			return nil, err
		}
		sub, ok := cacheSubtreeOf(m, seg)
		if !ok {
			return nil, fmt.Errorf("fig1: no cached subtree for %s", name)
		}
		target, err := pt.New(m.PM)
		if err != nil {
			return nil, err
		}
		target.SetObserver(sink.PTObs())
		nodesBefore = sink.Snapshot().PT.NodesAllocated
		if pt_.MapCachedMs, err = measure(func() error {
			return target.LinkSubtree(core.GlobalBase, 3, sub)
		}); err != nil {
			return nil, err
		}
		pt_.MapCachedNodes = sink.Snapshot().PT.NodesAllocated - nodesBefore
		if pt_.UnmapCachedMs, err = measure(func() error {
			return target.UnlinkSubtree(core.GlobalBase, 3)
		}); err != nil {
			return nil, err
		}
		target.Destroy()
		if err := th.SegFree(sid); err != nil {
			return nil, err
		}
		proc.Exit()
		space.Destroy()
		out = append(out, pt_)
	}
	return out, nil
}

// cacheSubtreeOf extracts a segment's cached-translation PDPT by reading
// its private root's PML4 slot (as Attachment.installSeg does internally).
func cacheSubtreeOf(m *hw.Machine, seg *core.Segment) (arch.PhysAddr, bool) {
	return core.CacheSubtree(m.PM, seg)
}

// Table1Row describes one platform of Table 1.
type Table1Row struct {
	Name   string
	Memory string
	CPUs   string
	GHz    float64
}

// Table1 returns the simulated platforms.
func Table1() []Table1Row {
	rows := []Table1Row{}
	for _, cfg := range []hw.MachineConfig{hw.M1(), hw.M2(), hw.M3()} {
		rows = append(rows, Table1Row{
			Name:   cfg.Name,
			Memory: fmt.Sprintf("%d GiB", cfg.Mem.DRAMSize>>30),
			CPUs:   fmt.Sprintf("%dx%dc", cfg.Sockets, cfg.CoresPerSocket),
			GHz:    cfg.GHz,
		})
	}
	return rows
}

// Table2Row is one measurement of Table 2 (cycles on M2).
type Table2Row struct {
	Operation   string
	DragonFly   uint64
	DragonFlyT  uint64 // tagged
	Barrelfish  uint64
	BarrelfishT uint64
}

// Table2 measures the context-switch breakdown end to end on both
// personalities, tags off and on.
func Table2() ([]Table2Row, error) {
	measure := func(mkSys func(m *hw.Machine) *core.System, tagged bool) (cr3, syscall, vasSwitch uint64, err error) {
		m := hw.NewMachine(hw.M2())
		sys := mkSys(m)
		proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
		if err != nil {
			return 0, 0, 0, err
		}
		th, err := proc.NewThread()
		if err != nil {
			return 0, 0, 0, err
		}
		vid, err := th.VASCreate("t2", 0o600)
		if err != nil {
			return 0, 0, 0, err
		}
		if tagged {
			if err := th.VASCtl(vid, core.SetTag()); err != nil {
				return 0, 0, 0, err
			}
		}
		h, err := th.VASAttach(vid)
		if err != nil {
			return 0, 0, 0, err
		}
		cost := &m.Cfg.Cost
		cr3 = cost.CR3Load
		if tagged {
			cr3 = cost.CR3LoadTagged
		}
		syscall = sys.P.SwitchCycles()
		before := th.Core.Cycles()
		if err := th.VASSwitch(h); err != nil {
			return 0, 0, 0, err
		}
		vasSwitch = th.Core.Cycles() - before
		return cr3, syscall, vasSwitch, nil
	}
	dfly := func(m *hw.Machine) *core.System { return kernel.New(m) }
	bfish := func(m *hw.Machine) *core.System { s, _ := caps.New(m); return s }

	var rows [3]Table2Row
	rows[0].Operation = "CR3 load"
	rows[1].Operation = "system call"
	rows[2].Operation = "vas_switch"
	for i, mk := range []func(*hw.Machine) *core.System{dfly, bfish} {
		for j, tagged := range []bool{false, true} {
			cr3, sc, vs, err := measure(mk, tagged)
			if err != nil {
				return nil, err
			}
			set := func(r *Table2Row, v uint64) {
				switch {
				case i == 0 && j == 0:
					r.DragonFly = v
				case i == 0 && j == 1:
					r.DragonFlyT = v
				case i == 1 && j == 0:
					r.Barrelfish = v
				default:
					r.BarrelfishT = v
				}
			}
			set(&rows[0], cr3)
			set(&rows[1], sc)
			set(&rows[2], vs)
		}
	}
	return rows[:], nil
}

// Fig6Point is one x-position of Figure 6: average page-touch latency for
// a working set of Pages pages under three regimes.
type Fig6Point struct {
	Pages        int
	SwitchTagOff float64 // cycles per touch, CR3 rewritten untagged between touches
	SwitchTagOn  float64 // cycles per touch, tagged CR3 rewrite between touches
	NoSwitch     float64 // cycles per touch, no CR3 writes
	// Counter evidence for the latency claim: TLB misses over the measured
	// touches per regime. Untagged CR3 rewrites flush the TLB, so every
	// touch misses; tags retain entries across rewrites.
	MissTagOff uint64
	MissTagOn  uint64
	MissNone   uint64
}

// Fig6 reproduces the random page-walking benchmark on M3: for a given set
// of pages, load one cache line from a randomly chosen page; a CR3 write
// is introduced between iterations; tags on/off/no-switch are compared.
func Fig6(pageCounts []int, touches int) ([]Fig6Point, error) {
	m := hw.NewMachine(hw.M3())
	sink := m.EnableStats(0)
	var out []Fig6Point
	for _, pages := range pageCounts {
		space, err := vm.NewSpace(m.PM)
		if err != nil {
			return nil, err
		}
		base := core.GlobalBase
		if _, err := space.MapAnon(base, uint64(pages)*arch.PageSize, arch.PermRW, vm.MapFixed|vm.MapPopulate); err != nil {
			return nil, err
		}
		c := m.Cores[0]
		run := func(tag arch.ASID, reloadCR3 bool) (float64, uint64, error) {
			rng := rand.New(rand.NewSource(99))
			c.LoadCR3(space.Table(), tag)
			// Warm pass.
			for i := 0; i < pages; i++ {
				if _, err := c.Load64(base + arch.VirtAddr(i*arch.PageSize)); err != nil {
					return 0, 0, err
				}
			}
			missBefore := sink.Snapshot().TLB.Misses
			var touchCycles uint64
			for i := 0; i < touches; i++ {
				if reloadCR3 {
					c.LoadCR3(space.Table(), tag)
				}
				va := base + arch.VirtAddr(rng.Intn(pages)*arch.PageSize)
				before := c.Cycles()
				if _, err := c.Load64(va); err != nil {
					return 0, 0, err
				}
				touchCycles += c.Cycles() - before
			}
			misses := sink.Snapshot().TLB.Misses - missBefore
			return float64(touchCycles) / float64(touches), misses, nil
		}
		p := Fig6Point{Pages: pages}
		if p.SwitchTagOff, p.MissTagOff, err = run(arch.ASIDFlush, true); err != nil {
			return nil, err
		}
		if p.SwitchTagOn, p.MissTagOn, err = run(7, true); err != nil {
			return nil, err
		}
		if p.NoSwitch, p.MissNone, err = run(7, false); err != nil {
			return nil, err
		}
		space.Destroy()
		out = append(out, p)
	}
	return out, nil
}

// Fig7Point is one x-position of Figure 7: round-trip latency by transfer
// size for local URPC, cross-socket URPC, and SpaceJMP switching.
type Fig7Point struct {
	Bytes     int
	URPCLocal uint64 // cycles
	URPCCross uint64
	SpaceJMP  uint64
}

// Fig7 compares URPC with SpaceJMP as a local RPC mechanism on M2 under
// the Barrelfish personality (as in the paper). The SpaceJMP variant
// switches into the server's VAS and copies the payload into the
// process-local address space directly.
func Fig7(sizes []int) ([]Fig7Point, error) {
	m := hw.NewMachine(hw.M2())
	sys, _ := caps.New(m)
	proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		return nil, err
	}
	th, err := proc.NewThread()
	if err != nil {
		return nil, err
	}
	// Server state: a VAS holding the data segment.
	vid, err := th.VASCreate("fig7.server", 0o600)
	if err != nil {
		return nil, err
	}
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	segSize := arch.PagesIn(uint64(maxSize)+arch.PageSize) * arch.PageSize
	sid, err := th.SegAlloc("fig7.data", core.GlobalBase, segSize, arch.PermRW)
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
	echo := func(req []byte) []byte { return req }
	local := urpc.Connect(m, 0, 1, 8192, echo)
	cross := urpc.Connect(m, 2, m.Cfg.CoresPerSocket+2, 8192, echo)

	var out []Fig7Point
	buf := make([]byte, maxSize)
	for _, size := range sizes {
		p := Fig7Point{Bytes: size}
		if p.URPCLocal, err = local.CallLatency(make([]byte, size)); err != nil {
			return nil, err
		}
		if p.URPCCross, err = cross.CallLatency(make([]byte, size)); err != nil {
			return nil, err
		}
		// SpaceJMP: switch in, read the payload out of the server's
		// segment into a local buffer, switch back. Warm once.
		for warm := 0; warm < 2; warm++ {
			before := th.Core.Cycles()
			if err := th.VASSwitch(h); err != nil {
				return nil, err
			}
			if err := th.Read(core.GlobalBase, buf[:size]); err != nil {
				return nil, err
			}
			if err := th.VASSwitch(core.PrimaryHandle); err != nil {
				return nil, err
			}
			p.SpaceJMP = th.Core.Cycles() - before
		}
		out = append(out, p)
	}
	return out, nil
}
