package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/redis"
)

// applyImage rebuilds node n's warm standby — a copy of the shard's lockable
// store segment in its own globally named segment/VAS pair
// (redis.StandbyNames) — from a checkpointed segment image: tear down any
// previous standby (Restore semantics — replace, not merge), allocate a
// fresh segment and read/write VAS pair, copy the image's pages in through
// a write attachment, and validate the store root before declaring the
// standby warm. The standby lives in DRAM — it models a replica machine's
// RAM, and it must not itself be swept into the next checkpoint generation
// (which covers NVM segments only).
func (m *monitor) applyImage(n *node, img *core.SegmentImage) error {
	th := m.th
	if n.warm {
		n.warm = false
		if err := redis.DestroyNamed(th, n.standby); err != nil && !errors.Is(err, core.ErrNotFound) {
			return fmt.Errorf("standby teardown: %w", err)
		}
	}
	sid, err := th.SegAlloc(n.standby.Seg, redis.SegBase, img.Size, arch.PermRW, core.WithPageSize(img.PageSize))
	if err != nil {
		return fmt.Errorf("standby segment: %w", err)
	}
	vidW, err := th.VASCreate(n.standby.WriteVAS, 0o666)
	if err != nil {
		return err
	}
	if err := th.SegAttachVAS(vidW, sid, arch.PermRW); err != nil {
		return err
	}
	vidR, err := th.VASCreate(n.standby.ReadVAS, 0o666)
	if err != nil {
		return err
	}
	if err := th.SegAttachVAS(vidR, sid, arch.PermRead); err != nil {
		return err
	}
	h, err := th.VASAttach(vidW)
	if err != nil {
		return err
	}
	if err := th.VASSwitch(h); err != nil {
		return err
	}
	for idx, page := range img.Pages {
		base := redis.SegBase + arch.VirtAddr(idx*img.PageSize)
		// Each maximal run of non-zero words is one run of stores; zero words
		// are skipped (fresh frames read zero), as word-by-word stores did.
		zero := func(w int) bool { return binary.LittleEndian.Uint64(page[w*8:]) == 0 }
		for w, words := 0, len(page)/8; w < words; w++ {
			first := w
			for w < words && !zero(w) {
				w++
			}
			if w == first {
				continue
			}
			if _, err := th.StoreWords(base+arch.VirtAddr(first*8), page[first*8:w*8]); err != nil {
				_ = th.VASSwitch(core.PrimaryHandle)
				_ = th.VASDetach(h)
				return fmt.Errorf("standby page %d: %w", idx, err)
			}
		}
	}
	// Validate the rebuilt store root from inside the VAS, so a bad image
	// fails here (and degrades the node) instead of at first request.
	_, err = redis.OpenStore(th, redis.SegBase)
	if serr := th.VASSwitch(core.PrimaryHandle); err == nil {
		err = serr
	}
	if derr := th.VASDetach(h); err == nil {
		err = derr
	}
	if err != nil {
		return fmt.Errorf("standby validation: %w", err)
	}
	n.warm = true
	return nil
}
