package core

import (
	"fmt"

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

// SetTag requests a TLB tag (ASID) for a VAS; a free tag is taken from the
// system's pool (paper §4.4: the user passes hints to the kernel to request a
// tag). Applying it to an already-tagged VAS keeps the existing tag.
func SetTag() VASCmd { return setTagCmd{} }

func (setTagCmd) applyVAS(sys *System, v *VAS) error { return sys.retag(v, true) }

type clearTagCmd struct{}

// ClearTag reverts a VAS to the reserved flush tag. Its tag returns to the
// pool now if nothing is attached, else at the next SetTag or vas_destroy.
func ClearTag() VASCmd { return clearTagCmd{} }

func (clearTagCmd) applyVAS(sys *System, v *VAS) error { return sys.retag(v, false) }

// retag gives v a tag from the pool (on) or reverts it to the flush tag. A
// tag kept past ClearTag goes back through the pool, flushed, at the next
// SetTag: shootdowns while the VAS was untagged did not reach it.
func (sys *System) retag(v *VAS, on bool) error {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	switch {
	case v.destroyed:
		return fmt.Errorf("%w: vas %d", ErrNotFound, v.ID)
	case !on:
		v.tag = arch.ASIDFlush
		if len(v.atts) == 0 && v.attaching == 0 {
			sys.releaseTagLocked(v.held)
			v.held = arch.ASIDFlush
		}
	case v.tag == arch.ASIDFlush:
		sys.releaseTagLocked(v.held)
		tag, err := sys.takeTagLocked(v.held)
		if err != nil {
			return err
		}
		v.tag, v.held = tag, tag
	}
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
