package core

import (
	"spacejmp/internal/arch"
)

// VASCmd is a typed vas_ctl command. Commands are constructed with the
// exported constructors (SetTag, ClearTag, SetMode), so an ill-typed
// argument is a compile error rather than a runtime one.
type VASCmd interface {
	applyVAS(sys *System, v *VAS) error
}

// SegCmd is a typed seg_ctl command, constructed with SetPerm, SetLockable,
// or CacheTranslations.
type SegCmd interface {
	applySeg(sys *System, s *Segment) error
}

type setTagCmd struct{}

// SetTag requests a TLB tag (ASID) for a VAS; a fresh tag is assigned
// (paper §4.4: the user passes hints to the kernel to request a tag).
// Applying it to an already-tagged VAS keeps the existing tag.
func SetTag() VASCmd { return setTagCmd{} }

func (setTagCmd) applyVAS(sys *System, v *VAS) error {
	if v.Tag() == arch.ASIDFlush {
		tag, err := sys.allocTag()
		if err != nil {
			return err
		}
		v.setTag(tag)
	}
	return nil
}

type clearTagCmd struct{}

// ClearTag reverts a VAS to the reserved flush tag.
func ClearTag() VASCmd { return clearTagCmd{} }

func (clearTagCmd) applyVAS(_ *System, v *VAS) error {
	v.setTag(arch.ASIDFlush)
	return nil
}

type setModeCmd struct{ mode uint16 }

// SetMode changes a VAS's permission mode bits.
func SetMode(mode uint16) VASCmd { return setModeCmd{mode: mode} }

func (c setModeCmd) applyVAS(_ *System, v *VAS) error {
	v.mu.Lock()
	v.Mode = c.mode
	v.mu.Unlock()
	return nil
}

type setPermCmd struct{ perm arch.Perm }

// SetPerm changes a segment's maximum permissions.
func SetPerm(p arch.Perm) SegCmd { return setPermCmd{perm: p} }

func (c setPermCmd) applySeg(_ *System, s *Segment) error {
	s.setPerm(c.perm)
	return nil
}

type setLockableCmd struct{ v bool }

// SetLockable toggles a segment's lockable bit.
func SetLockable(v bool) SegCmd { return setLockableCmd{v: v} }

func (c setLockableCmd) applySeg(sys *System, s *Segment) error {
	s.mu.Lock()
	s.lockable = c.v
	s.mu.Unlock()
	// Any cached lock set may hold s; the command is rare: drop them all.
	sys.mu.Lock()
	defer sys.mu.Unlock()
	for _, v := range sys.vases {
		v.dropLockSet()
	}
	return nil
}

type cacheTranslationsCmd struct{}

// CacheTranslations builds a segment's cached translation subtree (§4.1: "a
// segment may contain a set of cached translations to accelerate attachment
// to an address space").
func CacheTranslations() SegCmd { return cacheTranslationsCmd{} }

func (cacheTranslationsCmd) applySeg(sys *System, s *Segment) error {
	return s.buildCache(sys.M.PM, sys.M.Observer().PTObs())
}
