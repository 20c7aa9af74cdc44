// Package caps implements the Barrelfish personality of SpaceJMP (paper
// §4.2): a seL4-inspired typed capability system in which user space
// allocates memory for its own page tables, builds and shares translations
// by explicit capability invocation, and a user-level SpaceJMP service
// tracks VASes and segments, reached via RPC rather than syscalls.
//
// The kernel's only job is validating capability invocations; switching
// into a VAS is a single invocation that replaces the thread's root page
// table, which is why Barrelfish's vas_switch is cheaper than DragonFly's
// (Table 2: 664 vs 1127 cycles untagged).
package caps

import (
	"fmt"
	"sync"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/mem"
	"spacejmp/internal/pt"
)

// Right is a capability right bit.
type Right uint8

const (
	// RightRead permits reading / mapping readable.
	RightRead Right = 1 << iota
	// RightWrite permits writing / mapping writable.
	RightWrite
	// RightExec permits executable mappings.
	RightExec
	// RightGrant permits copying the capability to another CSpace.
	RightGrant
)

// RightsAll is every right.
const RightsAll = RightRead | RightWrite | RightExec | RightGrant

// Allows reports whether r includes every right in want.
func (r Right) Allows(want Right) bool { return r&want == want }

// PermRights converts mapping permissions to the rights they require.
func PermRights(p arch.Perm) Right {
	var r Right
	if p.CanRead() {
		r |= RightRead
	}
	if p.CanWrite() {
		r |= RightWrite
	}
	if p.CanExec() {
		r |= RightExec
	}
	return r
}

// Type is a capability type. Retyping follows seL4-style rules: RAM is
// untyped memory that can be retyped exactly once into Frames or
// PageTables; object capabilities (VAS, Segment) are created by the
// SpaceJMP service.
type Type int

const (
	// TypeRAM is untyped physical memory.
	TypeRAM Type = iota
	// TypeFrame is mappable physical memory.
	TypeFrame
	// TypePageTable is memory usable as a page-table node.
	TypePageTable
	// TypeVAS names a first-class address space.
	TypeVAS
	// TypeSegment names a lockable segment.
	TypeSegment
	// TypeEndpoint is an RPC endpoint to a service.
	TypeEndpoint
)

func (t Type) String() string {
	switch t {
	case TypeRAM:
		return "ram"
	case TypeFrame:
		return "frame"
	case TypePageTable:
		return "pagetable"
	case TypeVAS:
		return "vas"
	case TypeSegment:
		return "segment"
	case TypeEndpoint:
		return "endpoint"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Capability is a kernel-validated reference to a resource.
type Capability struct {
	Type   Type
	Rights Right

	// Memory capabilities.
	Base arch.PhysAddr
	Size uint64

	// Object capabilities: an opaque reference plus an identifier the
	// service uses for lookups.
	ObjID uint64

	parent   *Capability
	children []*Capability
	retyped  bool
	revoked  bool
}

// Slot addresses a capability within a CSpace.
type Slot uint32

// CSpace is a dispatcher's capability space.
type CSpace struct {
	mu    sync.Mutex
	slots map[Slot]*Capability
	next  Slot
}

// NewCSpace creates an empty capability space.
func NewCSpace() *CSpace {
	return &CSpace{slots: map[Slot]*Capability{}, next: 1}
}

// Insert places a capability into a fresh slot.
func (cs *CSpace) Insert(c *Capability) Slot {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	s := cs.next
	cs.next++
	cs.slots[s] = c
	return s
}

// Lookup resolves a slot.
func (cs *CSpace) Lookup(s Slot) (*Capability, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	c, ok := cs.slots[s]
	if !ok || c.revoked {
		return nil, fmt.Errorf("%w: caps: empty or revoked slot %d", core.ErrNotFound, s)
	}
	return c, nil
}

// Find returns the first live capability matching the predicate.
func (cs *CSpace) Find(pred func(*Capability) bool) (*Capability, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, c := range cs.slots {
		if !c.revoked && pred(c) {
			return c, true
		}
	}
	return nil, false
}

// Kernel is the minimal CPU-driver interface: allocate untyped memory,
// retype it, mint and revoke capabilities, and perform the page-table
// invocations user space uses to construct address spaces.
type Kernel struct {
	mu sync.Mutex
	pm *mem.PhysMem
}

// NewKernel creates the capability kernel over the machine's memory.
func NewKernel(pm *mem.PhysMem) *Kernel { return &Kernel{pm: pm} }

// AllocRAM hands out an untyped RAM capability of 2^order frames, the role
// of Barrelfish's user-space memory server.
func (k *Kernel) AllocRAM(cs *CSpace, order int) (Slot, error) {
	pa, err := k.pm.AllocFrames(order, mem.TierDRAM)
	if err != nil {
		return 0, err
	}
	c := &Capability{Type: TypeRAM, Rights: RightsAll, Base: pa, Size: (uint64(1) << order) * arch.PageSize}
	return cs.Insert(c), nil
}

// Retype converts a RAM capability into count equal-sized capabilities of
// the requested type, placed in fresh slots. A RAM capability can be
// retyped only once (the seL4 exclusivity rule the paper's §4.2 relies on:
// "Retyping of memory is checked by the kernel").
func (k *Kernel) Retype(cs *CSpace, s Slot, to Type, count int) ([]Slot, error) {
	c, err := cs.Lookup(s)
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if c.Type != TypeRAM {
		return nil, fmt.Errorf("%w: caps: cannot retype %v capability", core.ErrInvalid, c.Type)
	}
	if c.retyped {
		return nil, fmt.Errorf("%w: caps: RAM capability already retyped", core.ErrBusy)
	}
	if to != TypeFrame && to != TypePageTable {
		return nil, fmt.Errorf("%w: caps: RAM cannot become %v", core.ErrInvalid, to)
	}
	if count <= 0 || c.Size%uint64(count) != 0 || (c.Size/uint64(count))%arch.PageSize != 0 {
		return nil, fmt.Errorf("%w: caps: cannot split %d bytes into %d page-aligned children", core.ErrInvalid, c.Size, count)
	}
	part := c.Size / uint64(count)
	var out []Slot
	for i := 0; i < count; i++ {
		child := &Capability{
			Type: to, Rights: c.Rights,
			Base: c.Base + arch.PhysAddr(uint64(i)*part), Size: part,
			parent: c,
		}
		c.children = append(c.children, child)
		out = append(out, cs.Insert(child))
	}
	c.retyped = true
	return out, nil
}

// Mint copies a capability into dst with a subset of its rights. Requires
// RightGrant on the source.
func (k *Kernel) Mint(src *CSpace, s Slot, dst *CSpace, rights Right) (Slot, error) {
	c, err := src.Lookup(s)
	if err != nil {
		return 0, err
	}
	if !c.Rights.Allows(RightGrant) {
		return 0, fmt.Errorf("%w: caps: source lacks grant right", core.ErrDenied)
	}
	if !c.Rights.Allows(rights) {
		return 0, fmt.Errorf("%w: caps: minting rights %b exceed source %b", core.ErrDenied, rights, c.Rights)
	}
	child := &Capability{
		Type: c.Type, Rights: rights, Base: c.Base, Size: c.Size, ObjID: c.ObjID,
		parent: c,
	}
	k.mu.Lock()
	c.children = append(c.children, child)
	k.mu.Unlock()
	return dst.Insert(child), nil
}

// Revoke invalidates every descendant of the capability (and, transitively,
// their descendants), the mechanism that reclaims SpaceJMP objects in the
// Barrelfish prototype ("revoking the process's root page table prohibits
// the process from switching into the VAS").
func (k *Kernel) Revoke(cs *CSpace, s Slot) error {
	c, err := cs.Lookup(s)
	if err != nil {
		return err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	var kill func(x *Capability)
	kill = func(x *Capability) {
		for _, ch := range x.children {
			ch.revoked = true
			kill(ch)
		}
		x.children = nil
	}
	kill(c)
	c.retyped = false // RAM may be retyped again after revocation
	return nil
}

// VNode wraps a page table constructed from user-held capabilities, so user
// space can build address spaces without kernel memory allocation.
type VNode struct {
	Table *pt.Table
	cap   *Capability
}

// CreateVNode turns a PageTable capability into a usable page-table root.
// (The simulation allocates the pt.Table's root from the capability's
// memory conceptually; the node accounting stays in pt.)
func (k *Kernel) CreateVNode(cs *CSpace, s Slot) (*VNode, error) {
	c, err := cs.Lookup(s)
	if err != nil {
		return nil, err
	}
	if c.Type != TypePageTable {
		return nil, fmt.Errorf("%w: caps: vnode requires a pagetable capability, got %v", core.ErrInvalid, c.Type)
	}
	table, err := pt.New(k.pm)
	if err != nil {
		return nil, err
	}
	return &VNode{Table: table, cap: c}, nil
}

// MapFrame validates and installs a mapping of a Frame capability into a
// VNode: the frame's rights must cover the requested permissions. This is
// the safety property §4.2 leans on: "the capability system enforces only
// valid mappings".
func (k *Kernel) MapFrame(v *VNode, cs *CSpace, frame Slot, va arch.VirtAddr, perm arch.Perm) error {
	c, err := cs.Lookup(frame)
	if err != nil {
		return err
	}
	if c.Type != TypeFrame {
		return fmt.Errorf("%w: caps: map requires a frame capability, got %v", core.ErrInvalid, c.Type)
	}
	if !c.Rights.Allows(PermRights(perm)) {
		return fmt.Errorf("%w: caps: frame rights %b do not permit %v mapping", core.ErrDenied, c.Rights, perm)
	}
	return v.Table.Map(va, c.Base, c.Size, arch.PageSize, perm, false)
}
