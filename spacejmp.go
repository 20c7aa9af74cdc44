// Package spacejmp is a Go reproduction of "SpaceJMP: Programming with
// Multiple Virtual Address Spaces" (El Hajj et al., ASPLOS 2016): an
// operating-system design that promotes virtual address spaces (VASes) to
// first-class objects, letting process threads attach to, detach from, and
// switch between multiple address spaces, with lockable segments as the
// unit of sharing.
//
// Because a user-space Go process cannot rewrite CR3, the whole machine is
// simulated: physical memory, four-level page tables, a tagged TLB, and a
// deterministic cycle cost model calibrated to the paper's measurements.
// Two OS personalities reproduce the paper's prototypes — a DragonFly
// BSD-style kernel implementation with ACLs, and a Barrelfish-style
// user-space implementation over typed capabilities.
//
// # Quick start
//
//	sys := spacejmp.NewDragonFly(spacejmp.DefaultMachine())
//	proc, _ := sys.NewProcess(spacejmp.Creds{UID: 1000, GID: 1000})
//	th, _ := proc.NewThread()
//
//	vid, _ := th.VASCreate("v0", 0o660)
//	sid, _ := th.SegAlloc("s0", spacejmp.GlobalBase, 1<<24, spacejmp.PermRW)
//	_ = th.SegAttachVAS(vid, sid, spacejmp.PermRW)
//
//	vh, _ := th.VASAttach(vid)
//	_ = th.VASSwitch(vh)
//	_ = th.Store64(spacejmp.GlobalBase, 42) // *t = 42, inside the VAS
//	_ = th.VASSwitch(spacejmp.PrimaryHandle)
//
// The runtime heap (package mspace), the unsafe-pointer compiler analysis
// (package safety, §4.3), and the paper's three applications (GUPS,
// RedisJMP, SAMTools) live under internal/; the Example functions show the
// public API on each of the paper's motivating scenarios.
package spacejmp

import (
	"spacejmp/internal/arch"
	"spacejmp/internal/caps"
	"spacejmp/internal/core"
	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/mem"
	"spacejmp/internal/stats"
	"spacejmp/internal/tlb"
)

// Core object model: VASes, segments, processes, threads (see paper §3).
type (
	// System is a booted SpaceJMP OS instance on a simulated machine.
	System = core.System
	// Process is a SpaceJMP-aware process (common region + attachments).
	Process = core.Process
	// Thread is an execution context; all API calls are made by threads.
	Thread = core.Thread
	// VAS is a first-class virtual address space.
	VAS = core.VAS
	// Segment is a lockable, named, fixed-address memory segment.
	Segment = core.Segment
	// VASID names a VAS system-wide.
	VASID = core.VASID
	// SegID names a segment system-wide.
	SegID = core.SegID
	// Handle identifies one process's attachment to a VAS.
	Handle = core.Handle
	// Creds identify a subject to the personality's security model.
	Creds = core.Creds
	// VASCmd is a typed vas_ctl command (SetTag, ClearTag, SetMode).
	VASCmd = core.VASCmd
	// SegCmd is a typed seg_ctl command (SetPerm, SetLockable,
	// CacheTranslations).
	SegCmd = core.SegCmd
	// SegOption configures SegAlloc (WithPageSize, WithTier, WithLockable).
	SegOption = core.SegOption

	// MachineConfig describes the simulated platform.
	MachineConfig = hw.MachineConfig
	// Machine is a booted simulated platform.
	Machine = hw.Machine

	// Perm is a memory permission set.
	Perm = arch.Perm
	// VirtAddr is a simulated virtual address.
	VirtAddr = arch.VirtAddr
)

// Permissions.
const (
	PermRead  = arch.PermRead
	PermWrite = arch.PermWrite
	PermExec  = arch.PermExec
	PermRW    = arch.PermRW
)

// PrimaryHandle addresses a process's original address space in VASSwitch.
const PrimaryHandle = core.PrimaryHandle

// GlobalBase is the lowest address a global segment may occupy; segment
// bases must be at or above it (paper §4.1's disjoint private/global
// ranges).
const GlobalBase = core.GlobalBase

// Typed vas_ctl / seg_ctl command constructors and SegAlloc options. An
// ill-typed ctl argument is a compile error, not a runtime one.
var (
	SetTag            = core.SetTag
	ClearTag          = core.ClearTag
	SetMode           = core.SetMode
	SetPerm           = core.SetPerm
	SetLockable       = core.SetLockable
	CacheTranslations = core.CacheTranslations

	WithPageSize = core.WithPageSize
	WithTier     = core.WithTier
	WithLockable = core.WithLockable
)

// API errors.
var (
	ErrNotFound = core.ErrNotFound
	ErrExists   = core.ErrExists
	ErrDenied   = core.ErrDenied
	ErrBusy     = core.ErrBusy
	ErrLayout   = core.ErrLayout
	ErrInvalid  = core.ErrInvalid
	// ErrProcessDead reports a syscall by a process that exited or crashed.
	ErrProcessDead = core.ErrProcessDead
	// ErrNoCheckpoint: Restore found fresh NVM with no committed image.
	ErrNoCheckpoint = core.ErrNoCheckpoint
	// ErrCorruptCheckpoint: a checkpoint exists but no generation validates.
	ErrCorruptCheckpoint = core.ErrCorruptCheckpoint
)

// Observability (package stats): machine-wide cycle accounting by category,
// TLB/page-table counters, and an optional bounded trace ring. Enable with
// System.EnableStats (or Machine.EnableStats), read with System.Stats.
type (
	// Stats is an immutable point-in-time snapshot of every counter.
	Stats = stats.Snapshot
	// StatsSink is the live collector installed by EnableStats.
	StatsSink = stats.Sink
	// Tracer is the bounded ring of typed trace events.
	Tracer = stats.Tracer
	// TraceEvent is one trace record (VAS switch, segment attach, fault
	// firing, URPC retry).
	TraceEvent = stats.Event
)

// Fault injection (package fault): a deterministic, seedable registry of
// named injection points threaded through the simulated machine. Attach one
// with Machine.SetFaults and arm points to rehearse crashes, torn NVM
// writes, allocation failures, and lossy RPC.
type (
	// FaultRegistry owns the armed injection points.
	FaultRegistry = fault.Registry
	// FaultPolicy decides whether a point fires on a given hit.
	FaultPolicy = fault.Policy
)

// NewFaults creates a fault registry whose probabilistic points derive
// their independent random streams from seed.
func NewFaults(seed int64) *FaultRegistry { return fault.New(seed) }

// Fault-point firing policies.
var (
	FaultOnNth       = fault.OnNth
	FaultFromNth     = fault.FromNth
	FaultAlways      = fault.Always
	FaultProbability = fault.Probability
)

// Injection point names wired through the stack.
const (
	FaultMemAlloc         = fault.MemAlloc
	FaultMemWriteTorn     = fault.MemWriteTorn
	FaultCoreSyscallCrash = fault.CoreSyscallCrash
	FaultURPCDrop         = fault.URPCDrop
	FaultURPCDelay        = fault.URPCDelay
)

// Machine configurations of the paper's Table 1 platforms.
var (
	M1 = hw.M1
	M2 = hw.M2
	M3 = hw.M3
)

// Memory tiers for System.SetSegmentTier: NVM-backed segments survive
// Machine power cycles and can be checkpointed/restored (§7).
const (
	TierDRAM = mem.TierDRAM
	TierNVM  = mem.TierNVM
)

// DefaultMachine returns a modest simulated machine suitable for examples
// and tests: 2 sockets x 4 cores, 2 GiB DRAM plus a 512 MiB persistent NVM
// tier.
func DefaultMachine() MachineConfig {
	return MachineConfig{
		Name: "default", Sockets: 2, CoresPerSocket: 4, GHz: 2.5,
		Mem: mem.Config{DRAMSize: 2 << 30, NVMSize: 512 << 20},
		TLB: tlb.DefaultConfig, Cost: hw.DefaultCost,
	}
}

// NewMachine boots a simulated machine.
func NewMachine(cfg MachineConfig) *Machine { return hw.NewMachine(cfg) }

// NewDragonFly boots a SpaceJMP system with the DragonFly BSD personality
// (paper §4.1): in-kernel VAS management reached by syscalls, ACL security.
func NewDragonFly(cfg MachineConfig) *System {
	return kernel.New(hw.NewMachine(cfg))
}

// NewDragonFlyOn boots the DragonFly personality on an existing machine —
// the path a reboot takes: the machine (and its NVM) survives,
// the OS instance is fresh, and System.Restore reattaches persistent VASes.
func NewDragonFlyOn(m *Machine) *System { return kernel.New(m) }

// NewBarrelfish boots a SpaceJMP system with the Barrelfish personality
// (paper §4.2): user-space VAS service over typed capabilities, switches by
// capability invocation. The returned service grants capabilities across
// processes.
func NewBarrelfish(cfg MachineConfig) (*System, *caps.Service) {
	return caps.New(hw.NewMachine(cfg))
}
