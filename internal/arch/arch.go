// Package arch defines the architectural constants and primitive types of
// the simulated x86-64 machine: physical and virtual addresses, page sizes,
// page-table geometry, permissions, and address-space identifiers.
//
// Every other package in the tree builds on these definitions, mirroring how
// the SpaceJMP prototypes (ASPLOS 2016) build on the x86-64 architecture.
package arch

import "fmt"

// PhysAddr is an address in the simulated physical address space.
type PhysAddr uint64

// VirtAddr is an address in a simulated virtual address space.
type VirtAddr uint64

// ASID is an address-space identifier used to tag TLB entries. x86-64 PCIDs
// are 12 bits wide; the value 0 is reserved to mean "untagged": loading CR3
// with ASID 0 flushes the TLB, exactly as in the paper's prototypes.
type ASID uint16

const (
	// ASIDFlush is the reserved tag that always triggers a full TLB flush
	// on a context switch (see paper §4.4).
	ASIDFlush ASID = 0

	// MaxASID is the largest valid tag (12-bit PCID space).
	MaxASID ASID = 1<<12 - 1
)

// Page sizes supported by the simulated MMU.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4 KiB

	HugePageShift = 21
	HugePageSize  = 1 << HugePageShift // 2 MiB

	GiantPageShift = 30
	GiantPageSize  = 1 << GiantPageShift // 1 GiB
)

// Virtual-address geometry. CPUs today pass 48 bits to the translation unit
// (256 TiB); the paper's motivation (§2.1) is precisely that this is smaller
// than emerging physical memories.
const (
	VABits = 48
	VASize = uint64(1) << VABits

	// Page-table geometry: 4 levels of 512-entry tables.
	PTEntries   = 512
	PTIndexBits = 9
	PTLevels    = 4
)

// CacheLineSize is the unit of URPC message transfer (Figure 7).
const CacheLineSize = 64

// Canonical reports whether va is a canonical 48-bit address. The simulator
// uses the lower half only, so canonical here means "fits in 48 bits".
func (va VirtAddr) Canonical() bool { return uint64(va) < VASize }

// PageAligned reports whether va is 4 KiB aligned.
func (va VirtAddr) PageAligned() bool { return va&(PageSize-1) == 0 }

// PageOffset returns the offset of va within its 4 KiB page.
func (va VirtAddr) PageOffset() uint64 { return uint64(va) & (PageSize - 1) }

// Index returns the page-table index of va at the given level, where level 3
// is the root (PML4) and level 0 is the leaf page table (PT).
func (va VirtAddr) Index(level int) uint64 {
	shift := PageShift + level*PTIndexBits
	return (uint64(va) >> shift) & (PTEntries - 1)
}

// LevelCoverage returns the number of bytes of virtual address space covered
// by a single entry of a table at the given level (level 0 = PT).
func LevelCoverage(level int) uint64 {
	return uint64(1) << (PageShift + level*PTIndexBits)
}

// AlignDown rounds va down to a multiple of align (a power of two).
func AlignDown(va VirtAddr, align uint64) VirtAddr {
	return VirtAddr(uint64(va) &^ (align - 1))
}

// AlignUp rounds va up to a multiple of align (a power of two).
func AlignUp(va VirtAddr, align uint64) VirtAddr {
	return VirtAddr((uint64(va) + align - 1) &^ (align - 1))
}

// PagesIn returns the number of 4 KiB pages needed to hold size bytes.
func PagesIn(size uint64) uint64 {
	return (size + PageSize - 1) / PageSize
}

// Perm describes access permissions on a mapping or segment, a subset of the
// PTE permission bits exposed through the SpaceJMP API.
type Perm uint8

const (
	// PermRead grants load access.
	PermRead Perm = 1 << iota
	// PermWrite grants store access.
	PermWrite
	// PermExec grants instruction-fetch access.
	PermExec
)

// PermRW is the common read-write permission.
const PermRW = PermRead | PermWrite

// CanRead reports whether p includes read access.
func (p Perm) CanRead() bool { return p&PermRead != 0 }

// CanWrite reports whether p includes write access.
func (p Perm) CanWrite() bool { return p&PermWrite != 0 }

// CanExec reports whether p includes execute access.
func (p Perm) CanExec() bool { return p&PermExec != 0 }

// Allows reports whether p grants every right in need.
func (p Perm) Allows(need Perm) bool { return p&need == need }

func (p Perm) String() string {
	b := []byte("---")
	if p.CanRead() {
		b[0] = 'r'
	}
	if p.CanWrite() {
		b[1] = 'w'
	}
	if p.CanExec() {
		b[2] = 'x'
	}
	return string(b)
}

// Access is the kind of memory access being attempted, used by the MMU and
// fault handler to validate permissions.
type Access uint8

const (
	// AccessRead is a data load.
	AccessRead Access = iota
	// AccessWrite is a data store.
	AccessWrite
	// AccessExec is an instruction fetch.
	AccessExec
)

// Perm converts an access kind to the permission it requires.
func (a Access) Perm() Perm {
	switch a {
	case AccessWrite:
		return PermWrite
	case AccessExec:
		return PermExec
	default:
		return PermRead
	}
}

func (a Access) String() string {
	switch a {
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return "read"
	}
}

func (pa PhysAddr) String() string { return fmt.Sprintf("pa:%#x", uint64(pa)) }
func (va VirtAddr) String() string { return fmt.Sprintf("va:%#x", uint64(va)) }
