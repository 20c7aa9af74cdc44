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
// store segment in its own globally named store instance
// (redis.StandbyNames) — from a checkpointed segment image: destroy the
// previous standby if there is one (Restore semantics — replace, not merge),
// then build the instance again with the image's pages stored in page order
// and the store root validated before the standby is declared warm. A failed
// build leaves no instance behind (redis.CreateInstance), so the next image
// applies cleanly. The standby lives in DRAM — it models a replica machine's
// RAM, and it must not itself be swept into the next checkpoint generation
// (which covers NVM segments only).
func (m *monitor) applyImage(n *node, img *core.SegmentImage) error {
	n.warm = false
	if err := redis.DestroyNamed(m.th, n.standby); err != nil && !errors.Is(err, core.ErrNotFound) {
		return fmt.Errorf("standby teardown: %w", err)
	}
	err := redis.CreateInstance(m.th, n.standby, img.Size, func() error {
		for idx := uint64(0); idx*img.PageSize < img.Size; idx++ {
			page := img.Pages[idx] // absent: never materialized, reads as zeros
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
				if _, err := m.th.StoreWords(base+arch.VirtAddr(first*8), page[first*8:w*8]); err != nil {
					return fmt.Errorf("page %d: %w", idx, err)
				}
			}
		}
		// Validate the rebuilt store root from inside the VAS, so a bad image
		// fails here (and degrades the node) instead of at first request.
		if _, err := redis.OpenStore(m.th, redis.SegBase); err != nil {
			return fmt.Errorf("validation: %w", err)
		}
		return nil
	}, core.WithPageSize(img.PageSize))
	if err != nil {
		return fmt.Errorf("standby: %w", err)
	}
	n.warm = true
	return nil
}
