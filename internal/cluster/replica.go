package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/redis"
)

// applyImage brings node n's warm standby — a copy of the shard's lockable
// store segment in its own globally named store instance
// (redis.StandbyNames) — up to a checkpointed segment image: the image's
// pages are stored in page order and the store root is validated before the
// standby is declared warm. A delta (over img.Base, which must be the
// generation ship recorded the standby as holding) is stored into the
// standing instance. A full image replaces it (Restore semantics — replace,
// not merge): the previous standby, if any, is destroyed and the instance
// built again around the same stores; a failed build leaves no instance
// behind (redis.CreateInstance). Any failure leaves the standby cold and
// holding no generation: a torn patch is never promoted, and the next ship is
// a full one. The standby lives in DRAM — it models a replica machine's RAM,
// and must not be swept into the next checkpoint generation (NVM only).
func (m *monitor) applyImage(n *node, img *core.SegmentImage) error {
	held := n.held
	n.warm, n.held = false, 0
	fresh := img.Base == 0
	fill := func() error {
		for i, idx := range img.Index {
			page := img.Page(i)
			base := redis.SegBase + arch.VirtAddr(idx*img.PageSize)
			// Each maximal run of non-zero words is one run of stores. Into fresh
			// frames zero words are skipped (they read zero already), as
			// word-by-word stores did; over a standing page every word is stored,
			// or one that went back to zero would keep its old value.
			zero := func(w int) bool { return fresh && binary.LittleEndian.Uint64(page[w*8:]) == 0 }
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
		// Validate the store root from inside the VAS, so a bad image fails
		// here (and degrades the node) instead of at first request.
		if _, err := redis.OpenStore(m.th, redis.SegBase); err != nil {
			return fmt.Errorf("validation: %w", err)
		}
		return nil
	}
	var err error
	switch {
	case fresh:
		if err := redis.DestroyNamed(m.th, n.standby); err != nil && !errors.Is(err, core.ErrNotFound) {
			return fmt.Errorf("standby teardown: %w", err)
		}
		err = redis.CreateInstance(m.th, n.standby, img.Size, fill, core.WithPageSize(img.PageSize))
	case img.Base != held:
		err = fmt.Errorf("delta over generation %d, holding %d", img.Base, held)
	default:
		err = redis.FillInstance(m.th, n.standby, fill)
	}
	if err != nil {
		return fmt.Errorf("standby: %w", err)
	}
	n.warm = true
	return nil
}
