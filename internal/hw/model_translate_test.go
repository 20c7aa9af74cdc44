package hw

import (
	"fmt"

	"spacejmp/internal/arch"
	"spacejmp/internal/mem"
	"spacejmp/internal/stats"
)

// The access path as it stood before the L0: every access takes the TLB's
// lock for one counted lookup and reports its cycles and its hit or miss to
// the sink as it happens. It is kept as the reference the differential tests
// run a second machine on: an L0 hit is by construction a hit here, so the
// two machines must agree on every modelled number after every access. A core
// driven through these never has anything in its L0 or anything deferred.

func refTranslate(c *Core, va arch.VirtAddr, access arch.Access) (arch.PhysAddr, error) {
	pa, err := refTranslateOnce(c, va, access)
	if err == nil {
		return pa, nil
	}
	f, ok := err.(*PageFault)
	if !ok || c.OnFault == nil {
		return 0, err
	}
	c.stats.Faults++
	c.cobs.Fault()
	if herr := c.OnFault(c, f); herr != nil {
		return 0, herr
	}
	return refTranslateOnce(c, va, access)
}

func refTranslateOnce(c *Core, va arch.VirtAddr, access arch.Access) (arch.PhysAddr, error) {
	cost := &c.machine.Cfg.Cost
	c.cycles += cost.TLBHit
	c.cobs.AddCycles(stats.CatTLBProbe, cost.TLBHit)
	if e, ok := c.TLB.Lookup(c.asid, va); ok {
		if e.Perm.Allows(access.Perm()) {
			c.stats.TLBHits++
			c.cobs.TLBHits(c.asid, 1)
			return e.Frame + arch.PhysAddr(uint64(va)&(e.PageSize-1)), nil
		}
		if n := c.TLB.FlushPage(c.asid, va); n > 0 {
			c.sink.TLBFlush(n)
		}
	}
	c.stats.TLBMisses++
	c.cobs.TLBMiss(c.asid)
	if c.table == nil {
		return 0, &PageFault{VA: va, Access: access, Cause: fmt.Errorf("no address space loaded")}
	}
	r, err := c.table.Walk(va)
	walk := uint64(r.Refs) * cost.WalkRef
	c.cycles += walk
	c.cobs.AddCycles(stats.CatWalk, walk)
	if err != nil {
		return 0, &PageFault{VA: va, Access: access, Cause: err}
	}
	if !r.Perm.Allows(access.Perm()) {
		return 0, &PageFault{VA: va, Access: access, Cause: fmt.Errorf("%v mapping denies %v", r.Perm, access)}
	}
	base := arch.AlignDown(va, r.PageSize)
	frame := r.PA - arch.PhysAddr(uint64(va)-uint64(base))
	if _, was, evicted := c.TLB.Insert(c.asid, base, frame, r.PageSize, r.Perm, r.Global); evicted {
		c.cobs.TLBEvict(was.ASID)
	}
	return r.PA, nil
}

func refLoad64(c *Core, va arch.VirtAddr) (uint64, error) {
	pa, err := refTranslate(c, va, arch.AccessRead)
	if err != nil {
		return 0, err
	}
	c.cycles += c.machine.Cfg.Cost.MemAccess
	c.cobs.AddCycles(stats.CatData, c.machine.Cfg.Cost.MemAccess)
	return c.machine.PM.Load64(pa)
}

func refStore64(c *Core, va arch.VirtAddr, v uint64) error {
	pa, err := refTranslate(c, va, arch.AccessWrite)
	if err != nil {
		return err
	}
	c.cycles += c.machine.Cfg.Cost.MemAccess
	nvm := c.machine.PM.TierOf(pa) == mem.TierNVM
	if !nvm {
		c.cobs.AddCycles(stats.CatData, c.machine.Cfg.Cost.MemAccess)
		return c.machine.PM.Store64(pa, v)
	}
	c.cobs.AddCycles(stats.CatNVMWrite, c.machine.Cfg.Cost.MemAccess)
	if err := c.machine.PM.Store64(pa, v); err != nil {
		return err
	}
	c.sink.NVMWrite(1, 8) // the word stores' count moved from mem to the MMU
	return nil
}
