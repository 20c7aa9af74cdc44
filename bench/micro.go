package main

import (
	"fmt"
	"time"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/fork"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/mem"
	"spacejmp/internal/mspace"
	"spacejmp/internal/pt"
	"spacejmp/internal/redis"
	"spacejmp/internal/tlb"
	"spacejmp/internal/urpc"
	"spacejmp/internal/vm"
)

// The micro-rungs are the bottom of the ladder: one exported call each,
// independent of any workload's traffic, so each is timed once per process
// and reported under one workload: the substrate's under store-direct, fork
// and bulk transfer under serve-mixed. The other workloads report them as 0.
// (The tracer's own cost is the exception: it is in every workload's spans.)

// timeOp calls fn n times in each of rounds rounds and returns the median
// round's mean nanoseconds per call.
func timeOp(rounds, n int, fn func(i int)) float64 {
	means := make([]float64, rounds)
	for r := range means {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(r*n + i)
		}
		means[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(means)
}

const microRounds = 5

func pageVA(i int) arch.VirtAddr { return arch.VirtAddr(0x4000_0000 + uint64(i)*arch.PageSize) }

// microRungs times the traffic-independent rungs that are reported under w
// and returns the metrics by name.
func microRungs(w workload) (map[string]float64, error) {
	out := map[string]float64{}
	switch {
	case w.direct:
		if err := microMMU(out); err != nil {
			return nil, fmt.Errorf("mmu rungs: %w", err)
		}
		if err := microVM(out); err != nil {
			return nil, fmt.Errorf("vm rungs: %w", err)
		}
		if err := microCore(out); err != nil {
			return nil, fmt.Errorf("core rungs: %w", err)
		}
	case w.mixed:
		if err := microFork(w, out); err != nil {
			return nil, fmt.Errorf("fork rungs: %w", err)
		}
		if err := microBulk(out); err != nil {
			return nil, fmt.Errorf("bulk rung: %w", err)
		}
	}
	microSpan(out) // every ladder's spans carry it
	return out, nil
}

// microMMU covers tlb.Lookup, pt.MapPage/Walk and Core.Load64.
func microMMU(out map[string]float64) error {
	// tlb.Lookup: hits on resident pages, misses on pages never inserted.
	tl := tlb.New(tlb.DefaultConfig)
	const resident = 512
	for i := 0; i < resident; i++ {
		tl.Insert(1, pageVA(i), arch.PhysAddr(i*arch.PageSize), arch.PageSize, arch.PermRW, false)
	}
	out["tlb.lookup_hit_ns"] = timeOp(microRounds, 100_000, func(i int) { tl.Lookup(1, pageVA(i%resident)) })
	out["tlb.lookup_miss_ns"] = timeOp(microRounds, 100_000, func(i int) { tl.Lookup(1, pageVA(resident+i)) })

	// pt.MapPage then pt.Walk over the same pages, all backed by one frame.
	m := hw.NewMachine(hw.M1())
	m.EnableStats(0)
	tbl, err := pt.New(m.PM)
	if err != nil {
		return err
	}
	frame, err := m.PM.AllocPage()
	if err != nil {
		return err
	}
	const pages = 8192 // past the TLB's 1536 entries, so a sweep always misses
	var ferr error
	out["pt.map_page_ns"] = timeOp(1, pages, func(i int) {
		if err := tbl.MapPage(pageVA(i), frame, arch.PageSize, arch.PermRW, false); err != nil {
			ferr = err
		}
	})
	out["pt.walk_ns"] = timeOp(microRounds, 50_000, func(i int) {
		if _, err := tbl.Walk(pageVA(i % pages)); err != nil {
			ferr = err
		}
	})

	// Core.Load64: a working set inside the TLB, then a sweep that evicts
	// every entry before it is reused.
	c := m.Cores[0]
	c.LoadCR3(tbl, arch.ASIDFlush)
	load := func(i, span int) {
		if _, err := c.Load64(pageVA(i % span)); err != nil {
			ferr = err
		}
	}
	for i := 0; i < resident; i++ {
		load(i, resident)
	}
	out["hw.load64_hit_ns"] = timeOp(microRounds, 50_000, func(i int) { load(i, resident) })
	out["hw.load64_miss_ns"] = timeOp(microRounds, 50_000, func(i int) { load(i, pages) })
	tbl.Destroy()
	return ferr
}

// microVM covers the demand fault and the COW break.
func microVM(out map[string]float64) error {
	pm := mem.New(mem.Config{DRAMSize: 1 << 30})
	const pages = 2048
	sp, err := vm.NewSpace(pm)
	if err != nil {
		return err
	}
	if _, err := sp.MapAnon(pageVA(0), pages*arch.PageSize, arch.PermRW, vm.MapFixed); err != nil {
		return err
	}
	var ferr error
	out["vm.fault_ns"] = timeOp(1, pages, func(i int) {
		if err := sp.HandleFault(pageVA(i), arch.AccessRead); err != nil {
			ferr = err
		}
	})
	sp.Destroy()

	parent := vm.NewObject(pm, "bench.cow.parent", pages*arch.PageSize, mem.TierDRAM)
	if err := parent.Populate(); err != nil {
		return err
	}
	child := parent.CloneCOW("bench.cow.child")
	out["vm.breakcow_ns"] = timeOp(1, pages, func(i int) {
		if _, err := child.BreakCOW(uint64(i)); err != nil {
			ferr = err
		}
	})
	child.Unref()
	parent.Unref()
	if ferr != nil {
		return ferr
	}
	return pm.CheckLeaks(0)
}

// microCore covers VASSwitch, mspace alloc/free inside a switched-into VAS,
// and the stats snapshot.
func microCore(out map[string]float64) error {
	m := hw.NewMachine(hw.M1())
	sys := kernel.New(m)
	sys.EnableStats(0)
	base := m.PM.AllocatedBytes()
	proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		return err
	}
	th, err := proc.NewThread()
	if err != nil {
		return err
	}
	vid, err := th.VASCreate("bench.micro", 0o600)
	if err != nil {
		return err
	}
	const segSize = 4 << 20
	sid, err := th.SegAlloc("bench.micro.seg", core.GlobalBase, segSize, arch.PermRW)
	if err != nil {
		return err
	}
	if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		return err
	}
	h, err := th.VASAttach(vid)
	if err != nil {
		return err
	}

	var ferr error
	note := func(err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	const switches = 20_000
	before := th.Core.Cycles()
	pair := timeOp(microRounds, switches/microRounds, func(int) {
		note(th.VASSwitch(h))
		note(th.VASSwitch(core.PrimaryHandle))
	})
	out["core.switch_ns"] = pair / 2
	out["core.switch_sim_cycles"] = float64(th.Core.Cycles()-before) / (2 * switches)

	note(th.VASSwitch(h))
	heap, err := mspace.Init(th, core.GlobalBase, segSize)
	if err != nil {
		return err
	}
	out["mspace.alloc_free_ns"] = timeOp(microRounds, 20_000, func(int) {
		p, err := heap.Alloc(64)
		note(err)
		note(heap.Free(p))
	})
	note(th.VASSwitch(core.PrimaryHandle))

	out["stats.snapshot_ns"] = timeOp(microRounds, 200, func(int) { sys.Stats() })

	note(th.VASDetach(h))
	note(th.SegDetachVAS(vid, sid))
	note(th.VASDestroy(vid))
	note(th.SegFree(sid))
	proc.Exit()
	if ferr != nil {
		return ferr
	}
	return m.PM.CheckLeaks(base)
}

// microBulk covers urpc.CallBulk, which the ship uses to stream a response
// larger than the ring: 64 KiB echoed back.
func microBulk(out map[string]float64) error {
	const bulkKiB = 64
	payload := make([]byte, bulkKiB<<10)
	ep := urpc.Connect(hw.NewMachine(hw.M1()), 4, 5, 256, func([]byte) []byte { return payload })
	var ferr error
	out["urpc.callbulk_ns_per_kib"] = timeOp(microRounds, 20, func(int) {
		resp, err := ep.CallBulk([]byte("bulk"))
		if err == nil && len(resp) != len(payload) {
			err = fmt.Errorf("CallBulk returned %d bytes, want %d", len(resp), len(payload))
		}
		if err != nil {
			ferr = err
		}
	}) / bulkKiB
	return ferr
}

// microFork covers fork.Fork and the release of a view, on serve-mixed's
// store (4096 keys of 1 KiB). Between the fork and the release a few writes
// break COW, so the release has private frames to collapse.
func microFork(w workload, out map[string]float64) error {
	st, err := bootDirect(w, true)
	if err != nil {
		return err
	}
	s := newStream(w, 1, 0)
	g := &directGen{s: s, c: st.client, val: make([]byte, w.valueSize)}
	if err := g.preload(); err != nil {
		return err
	}
	eng := fork.New(st.sys, st.m.Observer())
	const rounds = 15
	forkNs := make([]float64, rounds)
	releaseNs := make([]float64, rounds)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		if _, err := eng.Fork(st.th, 0, redis.SegName); err != nil {
			return err
		}
		forkNs[r] = float64(time.Since(t0).Nanoseconds())
		for k := 0; k < 64; k++ {
			if g.exec(op{kind: opSet, keys: [mgetKeys]uint16{uint16(r*64 + k)}}) != replyOK {
				return fmt.Errorf("SET after fork failed")
			}
		}
		t0 = time.Now()
		if err := eng.Close(st.th); err != nil {
			return err
		}
		releaseNs[r] = float64(time.Since(t0).Nanoseconds())
	}
	out["fork.fork_ns"] = median(forkNs)
	out["fork.release_ns"] = median(releaseNs)
	return st.shutdown()
}

// microSpan prices the tracer itself: two clock reads and one append.
func microSpan(out map[string]float64) {
	const n = 100_000
	tr := newTracer(n * microRounds)
	out["client.span_overhead_ns"] = timeOp(microRounds, n, func(i int) {
		t0 := time.Now()
		tr.add(rungParse, i, t0, time.Now())
	})
}
