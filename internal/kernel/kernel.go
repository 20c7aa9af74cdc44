// Package kernel implements the DragonFly BSD personality of SpaceJMP
// (paper §4.1): VAS and segment management live in the kernel, reached
// through system calls, with access control via Unix-style modes and ACLs.
//
// The cycle constants reproduce the DragonFly column of Table 2: a system
// call costs 357 cycles, and a vas_switch totals 1127 cycles untagged or
// 807 cycles tagged once the CR3 write (130/224 cycles, charged by the
// hardware model) is added to syscall entry and kernel bookkeeping.
package kernel

import (
	"fmt"
	"sync"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/hw"
)

// Table 2 calibration (DragonFly BSD on M2, cycles).
const (
	// SyscallCycles is the cost of entering and leaving the kernel.
	SyscallCycles = 357
	// bookkeeping = vas_switch total - syscall - CR3 load.
	bookkeepingTagged   = 807 - SyscallCycles - 224
	bookkeepingUntagged = 1127 - SyscallCycles - 130
)

// ACL is a DragonFly-style access control record: Unix owner/group/other
// mode bits plus explicit per-UID entries, the mechanism the paper uses to
// restrict access to segments and address spaces (§3.2).
type ACL struct {
	mu      sync.Mutex
	Owner   core.Creds
	Mode    uint16 // e.g. 0o640; a VAS's ACL is checked under the VAS's own
	entries map[uint32]arch.Perm
}

// NewACL builds an ACL from an owner and mode bits.
func NewACL(owner core.Creds, mode uint16) *ACL {
	return &ACL{Owner: owner, Mode: mode, entries: map[uint32]arch.Perm{}}
}

// Grant adds an explicit per-UID entry.
func (a *ACL) Grant(uid uint32, perm arch.Perm) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.entries[uid] = perm
}

// Revoke removes a per-UID entry.
func (a *ACL) Revoke(uid uint32) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.entries, uid)
}

// modePerm converts a 3-bit rwx mode group to permissions.
func modePerm(bits uint16) arch.Perm {
	var p arch.Perm
	if bits&4 != 0 {
		p |= arch.PermRead
	}
	if bits&2 != 0 {
		p |= arch.PermWrite
	}
	if bits&1 != 0 {
		p |= arch.PermExec
	}
	return p
}

// Check authorizes creds for the wanted permissions.
func (a *ACL) Check(creds core.Creds, want arch.Perm) error { return a.check(creds, want, a.Mode) }

// check is Check under the given mode bits.
func (a *ACL) check(creds core.Creds, want arch.Perm, mode uint16) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var granted arch.Perm
	switch {
	case creds.UID == a.Owner.UID:
		granted = modePerm(mode >> 6)
	case creds.GID == a.Owner.GID:
		granted = modePerm(mode >> 3)
	default:
		granted = modePerm(mode)
	}
	if extra, ok := a.entries[creds.UID]; ok {
		granted |= extra
	}
	if !granted.Allows(want) {
		return fmt.Errorf("%w: uid %d wants %v, granted %v", core.ErrDenied, creds.UID, want, granted)
	}
	return nil
}

// Personality is the DragonFly BSD OS personality.
type Personality struct{}

var _ core.Personality = Personality{}

// Name identifies the personality.
func (Personality) Name() string { return "dragonfly" }

// ControlCycles is the syscall cost for management operations.
func (Personality) ControlCycles() uint64 { return SyscallCycles }

// SwitchCycles is the syscall cost of vas_switch.
func (Personality) SwitchCycles() uint64 { return SyscallCycles }

// SwitchBookkeeping is the in-kernel work of a switch: vmspace lookup and
// lock management, which costs more untagged because the kernel's own
// translations were flushed (Table 2).
func (Personality) SwitchBookkeeping(tagged bool) uint64 {
	if tagged {
		return bookkeepingTagged
	}
	return bookkeepingUntagged
}

// CheckVAS consults the VAS's ACL under the VAS's mode as it is now, which
// vas_ctl SetMode changes.
func (Personality) CheckVAS(creds core.Creds, v *core.VAS, want arch.Perm) error {
	acl, ok := v.Security.(*ACL)
	if !ok {
		return fmt.Errorf("%w: vas %q has no ACL", core.ErrDenied, v.Name)
	}
	return acl.check(creds, want, v.CurrentMode())
}

// CheckSeg consults the segment's ACL.
func (Personality) CheckSeg(creds core.Creds, s *core.Segment, want arch.Perm) error {
	acl, ok := s.Security.(*ACL)
	if !ok {
		return fmt.Errorf("%w: segment %q has no ACL", core.ErrDenied, s.Name)
	}
	return acl.Check(creds, want)
}

// VASCreated attaches an ACL built from the creation mode.
func (Personality) VASCreated(creds core.Creds, v *core.VAS) {
	v.Security = NewACL(creds, v.Mode)
}

// SegCreated attaches an ACL. Segments inherit a permissive owner mode and
// group read-write, refined via VASCtl/ACL grants.
func (Personality) SegCreated(creds core.Creds, s *core.Segment) {
	s.Security = NewACL(creds, 0o660)
}

// New boots a SpaceJMP system with the DragonFly personality on machine m.
func New(m *hw.Machine) *core.System {
	return core.NewSystem(m, Personality{})
}
