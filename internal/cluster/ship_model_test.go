package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/fork"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
)

// The reference model of a ship's apply: monitor.applyImage as it stood when
// every ship was a full image — tear the standby down, build it again, store
// the non-zero words of every page. Kept verbatim but for the image's pages
// being a sorted list now (a page the old loop found absent from the map is
// one this loop never visits) so the differential below can hold the delta
// patch to it.
func refApplyImage(m *monitor, n *node, img *core.SegmentImage) error {
	n.warm = false
	if err := redis.DestroyNamed(m.th, n.standby); err != nil && !errors.Is(err, core.ErrNotFound) {
		return fmt.Errorf("standby teardown: %w", err)
	}
	err := redis.CreateInstance(m.th, n.standby, img.Size, func() error {
		for i, idx := range img.Index {
			page := img.Page(i)
			base := redis.SegBase + arch.VirtAddr(idx*img.PageSize)
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

// shipRig is a replicated node without the router around it: one process
// that is primary, fork engine and monitor at once, so a test decides when a
// fork is taken and what happens between it and the apply.
type shipRig struct {
	t     testing.TB
	sys   *core.System
	proc  *core.Process
	th    *core.Thread
	names redis.Names
	c     *redis.Client
	forks *fork.Engine
	mon   *monitor
	n     *node
	base  uint64 // bytes allocated before the rig
}

func newShipRig(t testing.TB, segSize uint64) *shipRig {
	t.Helper()
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	g := &shipRig{t: t, sys: sys, names: redis.ShardNames(0), base: sys.M.PM.AllocatedBytes()}
	var err error
	if g.proc, g.th, err = (&Router{sys: sys}).claimThread(); err != nil {
		t.Fatal(err)
	}
	if g.c, err = redis.NewClientNamed(g.th, segSize, g.names); err != nil {
		t.Fatal(err)
	}
	g.forks = fork.New(sys, nil)
	g.mon, g.n = &monitor{proc: g.proc, th: g.th}, &node{standby: redis.StandbyNames(0)}
	return g
}

// fork takes a view of the primary, as the node's CLUSTER.FORK handler does.
func (g *shipRig) fork() *fork.View {
	g.t.Helper()
	v, err := g.forks.Fork(g.th, 0, g.names.Seg)
	if err != nil {
		g.t.Fatal(err)
	}
	return v
}

// ship is monitor.ship from the fork on: extract for the generation the
// standby holds, apply, record what it holds now.
func (g *shipRig) ship() (*fork.View, *core.SegmentImage) {
	g.t.Helper()
	v := g.fork()
	img, err := g.forks.Image(v, g.n.held)
	if err == nil {
		err = g.mon.applyImage(g.n, img)
	}
	if err != nil {
		g.t.Fatalf("ship of generation %d: %v", v.Gen(), err)
	}
	g.n.held = v.Gen()
	return v, img
}

// segBytes reads a whole segment, one whose every page is materialized (a
// store instance's are, from its allocation on).
func (g *shipRig) segBytes(name string) []byte {
	g.t.Helper()
	img, err := g.sys.SegmentImageOf(name, 0, nil)
	if err != nil {
		g.t.Fatal(err)
	}
	if uint64(len(img.Data)) != img.Size {
		g.t.Fatalf("segment %s has %d of its %d bytes materialized", name, len(img.Data), img.Size)
	}
	return img.Data
}

// close takes everything down and checks that no frame stayed behind.
func (g *shipRig) close(more ...redis.Names) {
	g.t.Helper()
	if err := g.forks.Close(g.th); err != nil {
		g.t.Fatal(err)
	}
	if err := g.c.Close(); err != nil {
		g.t.Fatal(err)
	}
	for _, names := range append(more, g.n.standby, g.names) {
		if err := redis.DestroyNamed(g.th, names); err != nil && !errors.Is(err, core.ErrNotFound) {
			g.t.Fatal(err)
		}
	}
	g.proc.Exit()
	if err := g.sys.M.PM.CheckLeaks(g.base); err != nil {
		g.t.Fatalf("after the teardown: %v", err)
	}
}

// TestDeltaShipsMatchFullRebuild drives a replicated node through seeded
// rounds of SET, overwrite with a shorter value, DEL and — in a corner of the
// segment the heap never reaches — raw stores that later go back to zero, so
// that some rounds' only effect on a page is words turning non-zero → zero.
// Every round ends in a fork and a ship. After each one the standby's segment
// must equal, byte for byte, the frozen view it was shipped from and the
// standby the old full rebuild (refApplyImage) makes of that view's full
// image. Now and then a fork is taken that nobody ships (the next ship must
// be a full one) or fails half way (the next delta must cover its pages too);
// otherwise every ship after the first must be a delta.
func TestDeltaShipsMatchFullRebuild(t *testing.T) {
	const segSize, rounds, keys = 512 << 10, 1000, 40
	const pages = segSize / arch.PageSize
	g := newShipRig(t, segSize)
	ref := &node{standby: redis.Names{Seg: "ref.data", ReadVAS: "ref.read", WriteVAS: "ref.write"}}
	rng := rand.New(rand.NewSource(20))
	value := func(n int) []byte {
		v := make([]byte, n)
		for i := range v {
			v[i] = byte(rng.Intn(255) + 1)
		}
		return v
	}
	have := map[string]int{} // key → length of its value
	// The raw corner: the segment's last pages but one. scribbled holds the
	// pages with non-zero words in them.
	corner := func() uint64 { return pages - 2 - uint64(rng.Intn(6)) }
	scribbled := map[uint64]bool{}
	raw := func(page uint64, words []byte) {
		t.Helper()
		at := redis.SegBase + arch.VirtAddr(page*arch.PageSize+uint64(rng.Intn(32))*8*8)
		if err := redis.FillInstance(g.th, g.names, func() error {
			_, err := g.th.StoreWords(at, words)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

	var full, erased, maxDelta int
	wantFull := true
	for round := 0; round < rounds; round++ {
		erasing := uint64(0)
		for op, ops := 0, 1+rng.Intn(5); op < ops; op++ {
			key := fmt.Sprintf("key:%03d", rng.Intn(keys))
			var err error
			switch n, ok := have[key]; {
			case ok && rng.Intn(4) == 0:
				_, err = g.c.Del(key)
				delete(have, key)
			case ok && rng.Intn(2) == 0:
				have[key] = 1 + n/2
				err = g.c.Set(key, value(have[key]))
			default:
				have[key] = 8 + rng.Intn(1500)
				err = g.c.Set(key, value(have[key]))
			}
			if err != nil {
				t.Fatalf("round %d: %s: %v", round, key, err)
			}
		}
		switch rng.Intn(8) {
		case 0:
			p := corner()
			raw(p, value(8*(1+rng.Intn(8))))
			scribbled[p] = true
		case 1:
			for _, p := range slices.Sorted(maps.Keys(scribbled))[:min(1, len(scribbled))] { // the whole page back to zero
				if err := redis.FillInstance(g.th, g.names, func() error {
					_, err := g.th.StoreWords(redis.SegBase+arch.VirtAddr(p*arch.PageSize), make([]byte, arch.PageSize))
					return err
				}); err != nil {
					t.Fatal(err)
				}
				delete(scribbled, p)
				erasing = p
			}
		}
		switch rng.Intn(40) {
		case 0: // a view nobody extracts
			g.fork()
			wantFull = true
		case 1: // a fork that fails once the frames are frozen: its VAS name is taken
			taken, err := g.th.VASCreate(fmt.Sprintf("%s@fork%d.vas", g.names.Seg, g.n.held+1), 0o666)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.forks.Fork(g.th, 0, g.names.Seg); err == nil {
				t.Fatalf("round %d: fork into a taken VAS name succeeded", round)
			}
			if err := g.th.VASDestroy(taken); err != nil {
				t.Fatal(err)
			}
		}

		v, img := g.ship()
		if isFull := img.Base == 0; isFull != wantFull {
			t.Fatalf("round %d: image over generation %d, want a full one: %v", round, img.Base, wantFull)
		}
		if img.Base == 0 {
			full++
		} else if len(img.Index) > maxDelta {
			maxDelta = len(img.Index)
		}
		wantFull = false
		if erasing != 0 && img.Base != 0 {
			erased++
		}

		whole, err := g.forks.Image(v, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(whole.Index) != pages {
			t.Fatalf("round %d: the view's full image holds %d pages of %d", round, len(whole.Index), pages)
		}
		if c := whole.Data[(pages-8)*arch.PageSize : (pages-1)*arch.PageSize]; round == 0 && !bytes.Equal(c, make([]byte, len(c))) {
			t.Fatal("the store's heap reaches into the corner the raw stores use")
		}
		if err := refApplyImage(g.mon, ref, whole); err != nil {
			t.Fatalf("round %d: reference apply: %v", round, err)
		}
		standby := g.segBytes(g.n.standby.Seg)
		for _, other := range []struct {
			what  string
			bytes []byte
		}{{"the frozen view", whole.Data}, {"the reference rebuild", g.segBytes(ref.standby.Seg)}} {
			if bytes.Equal(standby, other.bytes) {
				continue
			}
			for p := 0; p < pages; p++ {
				if a, b := standby[p*arch.PageSize:][:arch.PageSize], other.bytes[p*arch.PageSize:][:arch.PageSize]; !bytes.Equal(a, b) {
					t.Fatalf("round %d (image over generation %d, %d pages): standby differs from %s at page %d",
						round, img.Base, len(img.Index), other.what, p)
				}
			}
		}
	}
	if full < 2 || full > rounds/10 || erased == 0 || maxDelta > pages/4 {
		t.Fatalf("%d full ships of %d, %d delta ships of an erased page, largest delta %d pages of %d: the generator missed a case",
			full, rounds, erased, maxDelta, pages)
	}
	// The standby is a working store holding what the primary holds.
	sc, err := redis.NewClientNamed(g.th, segSize, g.n.standby)
	if err != nil {
		t.Fatal(err)
	}
	for key, n := range have {
		if v, ok, err := sc.Get(key); err != nil || !ok || len(v) != n {
			t.Fatalf("GET %s from the standby: %d bytes, %v, %v; want %d", key, len(v), ok, err, n)
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	g.close(ref.standby)
}
