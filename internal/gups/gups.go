// Package gups reproduces the paper's GUPS experiment (§5.2, Figures 8
// and 9): random updates to a large logical table partitioned into windows,
// where only one window fits the virtual address space design at a time.
//
// Three designs are compared:
//
//   - MAP: one process remaps its window with mmap/munmap on every window
//     change, paying page-table construction on the critical path.
//   - MP: one window per slave process; a master sends update batches over
//     message passing (the paper used OpenMPI; we use the urpc layer).
//   - SpaceJMP: one VAS per window, all attached by a single process whose
//     thread switches between them.
//
// Updates and window choices follow the same deterministic pseudo-random
// sequence in all designs, so reported differences come from the mechanism
// alone. Performance is reported in MUPS — million updates per simulated
// second at the machine's clock.
package gups

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/stats"
	"spacejmp/internal/urpc"
	"spacejmp/internal/vm"
)

// Config parameterizes one GUPS run. The paper uses 1 GiB windows on M3;
// the default scales the window down (the effects — page-table work per
// remap, TLB pressure per window — scale with page count, not bytes).
type Config struct {
	Windows    int    // number of windows (address spaces), 1–128
	WindowSize uint64 // bytes per window
	UpdateSet  int    // updates applied per window visit (16 or 64)
	Visits     int    // number of window visits
	Seed       int64
	UseTags    bool // SpaceJMP only: assign TLB tags to the VASes
	// PageSize backs the SpaceJMP windows (0 or arch.PageSize for 4 KiB;
	// arch.HugePageSize for 2 MiB leaves with shorter walks and larger
	// TLB reach).
	PageSize uint64
}

// DefaultConfig mirrors the paper's setup scaled for simulation: windows
// are far larger than TLB reach (the paper's 1 GiB windows against a
// 1536-entry TLB), so random updates miss the TLB in every design and the
// differences between designs come from the window-change mechanism.
func DefaultConfig() Config {
	return Config{Windows: 4, WindowSize: 16 << 20, UpdateSet: 64, Visits: 256, Seed: 42}
}

// WithWindows returns a copy of the config with the window count set.
func (c Config) WithWindows(w int) Config {
	c.Windows = w
	return c
}

// Result reports one design's run.
type Result struct {
	Design    string
	Updates   uint64
	Cycles    uint64  // cycles on the driving core
	Seconds   float64 // simulated wall time
	MUPS      float64
	Switches  uint64 // address-space switches (SpaceJMP)
	TLBMisses uint64
	Faults    uint64
	// Stats is the observability delta over the measured section, when the
	// system's stats sink is enabled (nil otherwise).
	Stats *stats.Snapshot
}

func finish(r Result, m *hw.Machine) Result {
	r.Seconds = m.CyclesToNs(r.Cycles) / 1e9
	if r.Seconds > 0 {
		r.MUPS = float64(r.Updates) / r.Seconds / 1e6
	}
	return r
}

// updateStream yields the deterministic (window, offsets) visit sequence.
type updateStream struct {
	rng   *rand.Rand
	cfg   Config
	words uint64
}

func newStream(cfg Config) *updateStream {
	return &updateStream{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg, words: cfg.WindowSize / 8}
}

func (s *updateStream) next() (window int, offsets []uint64) {
	window = s.rng.Intn(s.cfg.Windows)
	offsets = make([]uint64, s.cfg.UpdateSet)
	for i := range offsets {
		offsets[i] = uint64(s.rng.Intn(int(s.words))) * 8
	}
	return window, offsets
}

// windowBase is the fixed virtual address every design accesses its current
// window at.
const windowBase = core.GlobalBase

// mpiRoundTrip models the OpenMPI software stack the paper's MP baseline
// runs on (marshalling, matching, progress engine) on top of the raw
// shared-memory transport: roughly 0.65 µs per send/recv pair, ~1500
// cycles at 2.3 GHz. Raw URPC (Figure 7) is far cheaper, but the paper's
// GUPS baseline is MPI, not hand-rolled channels.
const mpiRoundTrip = 1500

// RunSpaceJMP runs the SpaceJMP design on sys: one VAS per window holding a
// window segment at windowBase, a single thread switching between them.
func RunSpaceJMP(sys *core.System, cfg Config) (Result, error) {
	proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		return Result{}, err
	}
	defer proc.Exit()
	th, err := proc.NewThread()
	if err != nil {
		return Result{}, err
	}
	handles := make([]core.Handle, cfg.Windows)
	for w := 0; w < cfg.Windows; w++ {
		vid, err := th.VASCreate(fmt.Sprintf("gups.v%d", w), 0o600)
		if err != nil {
			return Result{}, err
		}
		pageSize := cfg.PageSize
		if pageSize == 0 {
			pageSize = arch.PageSize
		}
		sid, err := th.SegAlloc(fmt.Sprintf("gups.win%d", w), windowBase, cfg.WindowSize, arch.PermRW, core.WithPageSize(pageSize))
		if err != nil {
			return Result{}, err
		}
		if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
			return Result{}, err
		}
		if cfg.UseTags {
			if err := th.VASCtl(vid, core.SetTag()); err != nil {
				return Result{}, err
			}
		}
		if handles[w], err = th.VASAttach(vid); err != nil {
			return Result{}, err
		}
	}
	// Warm-up: fault every window page in once, reaching the steady state
	// a long-running GUPS spends virtually all its time in (the paper's
	// runs apply updates for minutes; cold demand-paging is amortized to
	// nothing there).
	for _, h := range handles {
		if err := th.VASSwitch(h); err != nil {
			return Result{}, err
		}
		for off := uint64(0); off < cfg.WindowSize; off += arch.PageSize {
			if _, err := th.Load64(windowBase + arch.VirtAddr(off)); err != nil {
				return Result{}, err
			}
		}
	}
	stream := newStream(cfg)
	th.Core.ResetStats()
	statsBefore := sys.Stats()
	startCycles := th.Core.Cycles()
	startSwitches := sys.Switches()
	cur := -1
	for v := 0; v < cfg.Visits; v++ {
		w, offsets := stream.next()
		// Switch only on window changes; revisiting the current window
		// needs no OS interaction at all (with one window, SpaceJMP runs
		// switch-free, matching the paper's parity at one address space).
		if w != cur {
			if err := th.VASSwitch(handles[w]); err != nil {
				return Result{}, err
			}
			cur = w
		}
		for _, off := range offsets {
			va := windowBase + arch.VirtAddr(off)
			old, err := th.Load64(va)
			if err != nil {
				return Result{}, err
			}
			if err := th.Store64(va, old^uint64(off)); err != nil {
				return Result{}, err
			}
		}
	}
	st := th.Core.Stats()
	r := Result{
		Design:    "SpaceJMP",
		Updates:   uint64(cfg.Visits * cfg.UpdateSet),
		Cycles:    th.Core.Cycles() - startCycles,
		Switches:  sys.Switches() - startSwitches,
		TLBMisses: st.TLBMisses,
		Faults:    st.Faults,
		Stats:     sys.Stats().Delta(statsBefore),
	}
	// Tear down the segments so repeated runs can reuse the names.
	for w := 0; w < cfg.Windows; w++ {
		if err := th.VASSwitch(core.PrimaryHandle); err != nil {
			return Result{}, err
		}
		sid, err := th.SegFind(fmt.Sprintf("gups.win%d", w))
		if err != nil {
			return Result{}, err
		}
		vid, err := th.VASFind(fmt.Sprintf("gups.v%d", w))
		if err != nil {
			return Result{}, err
		}
		if err := th.VASDetach(handles[w]); err != nil {
			return Result{}, err
		}
		if err := th.SegDetachVAS(vid, sid); err != nil {
			return Result{}, err
		}
		if err := th.SegFree(sid); err != nil {
			return Result{}, err
		}
		if err := th.VASDestroy(vid); err != nil {
			return Result{}, err
		}
	}
	return finish(r, sys.M), nil
}

// RunMAP runs the remapping design: one address space, windows mapped in
// and out of the fixed range with eager population — the mmap/munmap cost
// sits on the critical path of every window change.
func RunMAP(m *hw.Machine, cfg Config) (Result, error) {
	space, err := vm.NewSpace(m.PM)
	if err != nil {
		return Result{}, err
	}
	defer space.Destroy()
	// The windows' backing objects persist (the kernel page cache holds
	// the pages); only the mappings churn.
	objs := make([]*vm.Object, cfg.Windows)
	for w := range objs {
		objs[w] = vm.NewObject(m.PM, fmt.Sprintf("map.win%d", w), cfg.WindowSize, 0)
		if err := objs[w].Populate(); err != nil {
			return Result{}, err
		}
		defer objs[w].Unref()
	}
	c := m.Cores[0]
	c.LoadCR3(space.Table(), arch.ASIDFlush)
	c.OnFault = space.Handler()
	c.ResetStats()
	start := c.Cycles()
	stream := newStream(cfg)
	cur := -1
	for v := 0; v < cfg.Visits; v++ {
		w, offsets := stream.next()
		if w != cur {
			before := space.Table().Stats()
			if cur >= 0 {
				if err := space.Unmap(windowBase, cfg.WindowSize); err != nil {
					return Result{}, err
				}
			}
			if _, err := space.Map(windowBase, cfg.WindowSize, arch.PermRW, objs[w], 0, vm.MapFixed|vm.MapPopulate); err != nil {
				return Result{}, err
			}
			c.ChargePT(hw.DeltaPT(before, space.Table().Stats()))
			c.AddCycles(2 * kernel.SyscallCycles) // mmap + munmap syscall entries
			cur = w
		}
		for _, off := range offsets {
			va := windowBase + arch.VirtAddr(off)
			old, err := c.Load64(va)
			if err != nil {
				return Result{}, err
			}
			if err := c.Store64(va, old^uint64(off)); err != nil {
				return Result{}, err
			}
		}
	}
	st := c.Stats()
	return finish(Result{
		Design:    "MAP",
		Updates:   uint64(cfg.Visits * cfg.UpdateSet),
		Cycles:    c.Cycles() - start,
		TLBMisses: st.TLBMisses,
		Faults:    st.Faults,
	}, m), nil
}

// RunMP runs the multi-process design: each window lives in its own slave
// process (own address space, own core); the master ships update batches
// over message passing and blocks for the acknowledgment.
func RunMP(m *hw.Machine, cfg Config) (Result, error) {
	if cfg.Windows+1 > len(m.Cores) {
		return Result{}, fmt.Errorf("gups: MP needs %d cores, machine has %d", cfg.Windows+1, len(m.Cores))
	}
	type slave struct {
		space *vm.Space
		ep    *urpc.Endpoint
	}
	slaves := make([]*slave, cfg.Windows)
	for w := range slaves {
		space, err := vm.NewSpace(m.PM)
		if err != nil {
			return Result{}, err
		}
		defer space.Destroy()
		if _, err := space.MapAnon(windowBase, cfg.WindowSize, arch.PermRW, vm.MapFixed|vm.MapPopulate); err != nil {
			return Result{}, err
		}
		coreID := w + 1
		sc := m.Cores[coreID]
		sc.LoadCR3(space.Table(), arch.ASIDFlush)
		sc.OnFault = space.Handler()
		// Slaves reach steady state before the measured run: mappings are
		// populated and each page has been touched once.
		for off := uint64(0); off < cfg.WindowSize; off += arch.PageSize {
			if _, err := sc.Load64(windowBase + arch.VirtAddr(off)); err != nil {
				return Result{}, err
			}
		}
		sc.ResetStats()
		sl := &slave{space: space}
		sl.ep = urpc.Connect(m, 0, coreID, 64, func(req []byte) []byte {
			// Apply the batch of 8-byte offsets to the local window.
			for i := 0; i+8 <= len(req); i += 8 {
				off := binary.LittleEndian.Uint64(req[i:])
				va := windowBase + arch.VirtAddr(off)
				old, err := sc.Load64(va)
				if err != nil {
					return []byte("ERR")
				}
				if err := sc.Store64(va, old^off); err != nil {
					return []byte("ERR")
				}
			}
			return []byte("OK")
		})
		slaves[w] = sl
	}
	master := m.Cores[0]
	start := master.Cycles()
	stream := newStream(cfg)
	buf := make([]byte, cfg.UpdateSet*8)
	var misses uint64
	for v := 0; v < cfg.Visits; v++ {
		w, offsets := stream.next()
		for i, off := range offsets {
			binary.LittleEndian.PutUint64(buf[i*8:], off)
		}
		resp, err := slaves[w].ep.Call(buf)
		if err != nil {
			return Result{}, err
		}
		if string(resp) != "OK" {
			return Result{}, fmt.Errorf("gups: slave error")
		}
		master.AddCycles(mpiRoundTrip)
	}
	for _, sl := range slaves {
		misses += sl.ep.ServerCore().Stats().TLBMisses
	}
	return finish(Result{
		Design:    "MP",
		Updates:   uint64(cfg.Visits * cfg.UpdateSet),
		Cycles:    master.Cycles() - start,
		TLBMisses: misses,
	}, m), nil
}
