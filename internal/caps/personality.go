package caps

import (
	"fmt"
	"sync"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/hw"
)

// Table 2 calibration (Barrelfish on M2, cycles).
const (
	// InvocationCycles is one capability invocation — Barrelfish's
	// "system call" row in Table 2.
	InvocationCycles = 130
	// bookkeeping = vas_switch total - invocation - CR3 load.
	bookkeepingTagged   = 462 - InvocationCycles - 224
	bookkeepingUntagged = 664 - InvocationCycles - 130

	// RPCCycles models one round trip to the user-space SpaceJMP service:
	// two cache-line messages plus a kernel entry on each side and the
	// service's dispatch work. Management operations pay this instead of a
	// syscall.
	RPCCycles = 2*100 + 2*InvocationCycles + 340
)

// Service is the user-level SpaceJMP service: it owns the capability state
// for every VAS and segment and answers process RPCs. Management logic runs
// here, entirely outside the kernel (§4.2).
type Service struct {
	kernel *Kernel

	mu      sync.Mutex
	cspaces map[uint32]*CSpace // per-UID dispatcher capability spaces
	// ownerGIDs records each object's owner group, published in the
	// service's registry. Barrelfish has no ambient UID model: the service
	// honors an object's Unix-style mode by granting its rights for group
	// members and everyone else to those who hold no capability (check).
	ownerGIDs map[grantKey]uint32
}

type grantKey struct {
	kind  Type
	objID uint64
}

// segMode is the mode every segment is checked under: owner and group
// read-write, like the DragonFly personality's segment ACL.
const segMode = 0o660

// NewService boots the user-space service over a capability kernel.
func NewService(k *Kernel) *Service {
	return &Service{kernel: k, cspaces: map[uint32]*CSpace{}, ownerGIDs: map[grantKey]uint32{}}
}

// CSpaceOf returns (creating on demand) the capability space of a UID's
// dispatcher.
func (s *Service) CSpaceOf(uid uint32) *CSpace {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.cspaces[uid]
	if !ok {
		cs = NewCSpace()
		s.cspaces[uid] = cs
	}
	return cs
}

func modeRights(bits uint16) Right {
	var r Right
	if bits&4 != 0 {
		r |= RightRead
	}
	if bits&2 != 0 {
		r |= RightWrite
	}
	if bits&1 != 0 {
		r |= RightExec
	}
	return r
}

// register creates the owner capability for a new object and publishes its
// owner group.
func (s *Service) register(kind Type, objID uint64, owner core.Creds) {
	cs := s.CSpaceOf(owner.UID)
	cs.Insert(&Capability{Type: kind, Rights: RightsAll, ObjID: objID})
	s.mu.Lock()
	s.ownerGIDs[grantKey{kind, objID}] = owner.GID
	s.mu.Unlock()
}

// check authorizes creds for rights on an object: first by capability
// possession, then by what the object's mode, as the caller reads it now,
// grants its owner group and everyone else.
func (s *Service) check(kind Type, objID uint64, mode uint16, creds core.Creds, want Right) error {
	cs := s.CSpaceOf(creds.UID)
	if _, ok := cs.Find(func(c *Capability) bool {
		return c.Type == kind && c.ObjID == objID && c.Rights.Allows(want)
	}); ok {
		return nil
	}
	s.mu.Lock()
	gid, ok := s.ownerGIDs[grantKey{kind, objID}]
	s.mu.Unlock()
	if ok {
		if creds.GID == gid && modeRights(mode>>3).Allows(want) {
			return nil
		}
		if modeRights(mode).Allows(want) {
			return nil
		}
	}
	return fmt.Errorf("%w: uid %d holds no %v capability for object %d with rights %b",
		core.ErrDenied, creds.UID, kind, objID, want)
}

// Grant mints a capability for an object from one UID's cspace into
// another's with the given rights, the Barrelfish way of sharing a VAS or
// segment.
func (s *Service) Grant(kind Type, objID uint64, from, to uint32, rights Right) error {
	src := s.CSpaceOf(from)
	c, ok := src.Find(func(c *Capability) bool { return c.Type == kind && c.ObjID == objID })
	if !ok {
		return fmt.Errorf("%w: uid %d holds no %v capability for object %d", core.ErrNotFound, from, kind, objID)
	}
	// Re-find the slot to mint from.
	var slot Slot
	src.mu.Lock()
	for sl, cc := range src.slots {
		if cc == c {
			slot = sl
			break
		}
	}
	src.mu.Unlock()
	_, err := s.kernel.Mint(src, slot, s.CSpaceOf(to), rights)
	return err
}

// Personality adapts the service to the core.Personality interface.
type Personality struct {
	Service *Service
}

var _ core.Personality = Personality{}

// Name identifies the personality.
func (Personality) Name() string { return "barrelfish" }

// ControlCycles is an RPC round trip to the user-space service.
func (Personality) ControlCycles() uint64 { return RPCCycles }

// SwitchCycles is one capability invocation replacing the root page table.
func (Personality) SwitchCycles() uint64 { return InvocationCycles }

// SwitchBookkeeping is the dispatcher/runtime work per switch (Table 2).
func (Personality) SwitchBookkeeping(tagged bool) uint64 {
	if tagged {
		return bookkeepingTagged
	}
	return bookkeepingUntagged
}

// CheckVAS requires a VAS capability with the rights matching the requested
// permissions, or a grant of the VAS's mode as it is now, which vas_ctl
// SetMode changes.
func (p Personality) CheckVAS(creds core.Creds, v *core.VAS, want arch.Perm) error {
	return p.Service.check(TypeVAS, uint64(v.ID), v.CurrentMode(), creds, PermRights(want))
}

// CheckSeg requires a Segment capability, or a grant of segMode.
func (p Personality) CheckSeg(creds core.Creds, seg *core.Segment, want arch.Perm) error {
	return p.Service.check(TypeSegment, uint64(seg.ID), segMode, creds, PermRights(want))
}

// VASCreated registers the owner capability in the service.
func (p Personality) VASCreated(creds core.Creds, v *core.VAS) {
	p.Service.register(TypeVAS, uint64(v.ID), creds)
	v.Security = p.Service
}

// SegCreated registers the owner capability.
func (p Personality) SegCreated(creds core.Creds, seg *core.Segment) {
	p.Service.register(TypeSegment, uint64(seg.ID), creds)
	seg.Security = p.Service
}

// New boots a SpaceJMP system with the Barrelfish personality on machine m,
// returning the system and the user-space service for capability grants.
func New(m *hw.Machine) (*core.System, *Service) {
	svc := NewService(NewKernel(m.PM))
	return core.NewSystem(m, Personality{Service: svc}), svc
}
