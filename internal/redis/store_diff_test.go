package redis

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"spacejmp/internal/core"
)

// TestStoreMatchesWordLoopModel runs one seeded stream of GET, MGET, SET and
// DEL — values of 0 to 5000 bytes, odd lengths, keys up to past the store's
// compare buffer, enough entries to rehash — through Run on one machine and
// through the word-loop model (model_store_test.go) on another. Every reply
// must be byte-equal, the two cores must have spent the same cycles after
// every command, and the store segments must hold the same bytes.
func TestStoreMatchesWordLoopModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		sysN, c := newClient(t)
		sysR, cr := newClient(t)
		sysN.EnableStats(0)
		sysR.EnableStats(0)
		if err := cr.th.VASSwitch(cr.readH); err != nil {
			t.Fatal(err)
		}
		rs, err := openRefStore(cr.th, SegBase)
		if err != nil {
			t.Fatal(err)
		}
		if err := cr.th.VASSwitch(core.PrimaryHandle); err != nil {
			t.Fatal(err)
		}
		ref := &refClient{th: cr.th, readH: cr.readH, writeH: cr.writeH, store: rs}
		// Opening the model's handle cost the second core a switch pair and
		// warmed its TLB; give the first core the same history.
		if err := c.th.VASSwitch(c.readH); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(c.th, SegBase); err != nil {
			t.Fatal(err)
		}
		if err := c.th.VASSwitch(core.PrimaryHandle); err != nil {
			t.Fatal(err)
		}
		if c.th.Core.Cycles() != ref.th.Core.Cycles() {
			t.Fatalf("cores start apart: %d vs %d", c.th.Core.Cycles(), ref.th.Core.Cycles())
		}

		rng := rand.New(rand.NewSource(seed))
		keys := make([]string, 700)
		for i := range keys {
			n := 1 + rng.Intn(40)
			if i%50 == 0 {
				n = 250 + rng.Intn(400) // around and past the 256-byte compare buffer
			}
			keys[i] = fmt.Sprintf("k%d:", i) + strings.Repeat("x", n)
		}
		key := func() string { return keys[rng.Intn(len(keys))] }
		value := func() string {
			n := rng.Intn(5001)
			if rng.Intn(3) == 0 {
				n = rng.Intn(64)
			}
			b := make([]byte, n)
			rng.Read(b)
			return string(b)
		}
		var sets, hits, nulls int
		for op := 0; op < 4000; op++ {
			var args []string
			switch r := rng.Intn(100); {
			case r < 45:
				args = []string{"SET", key(), value()}
				sets++
			case r < 75:
				args = []string{"GET", key()}
			case r < 85:
				args = []string{"MGET"}
				for n := 1 + rng.Intn(8); n > 0; n-- {
					args = append(args, key())
				}
			default:
				args = []string{"DEL", key()}
			}
			cmd := Lookup(args)
			got, want := Run(c, cmd, args), refRun(ref, cmd, args)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d op %d %s %.40q: reply %.60q, model %.60q", seed, op, args[0], args[1], got, want)
			}
			if g, w := c.th.Core.Cycles(), ref.th.Core.Cycles(); g != w {
				t.Fatalf("seed %d op %d %s %.40q: %d cycles, model %d", seed, op, args[0], args[1], g, w)
			}
			if cmd.Op == OpGet {
				if got[1] == '-' {
					nulls++
				} else {
					hits++
				}
			}
			if op%500 == 499 {
				compareStores(t, sysN, sysR, fmt.Sprintf("seed %d op %d", seed, op))
			}
		}
		compareStores(t, sysN, sysR, fmt.Sprintf("seed %d end", seed))
		// The walk over everything, which also reads through the helper.
		var walked [2]int
		if err := c.th.VASSwitch(c.readH); err != nil {
			t.Fatal(err)
		}
		if err := ref.th.VASSwitch(ref.readH); err != nil {
			t.Fatal(err)
		}
		sums := [2]map[string]string{{}, {}}
		if err := c.store.ForEach(func(k, v []byte) error { walked[0]++; sums[0][string(k)] = string(v); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := rs.ForEach(func(k, v []byte) error { walked[1]++; sums[1][string(k)] = string(v); return nil }); err != nil {
			t.Fatal(err)
		}
		if walked[0] != walked[1] || !reflect.DeepEqual(sums[0], sums[1]) || c.th.Core.Cycles() != ref.th.Core.Cycles() {
			t.Fatalf("seed %d ForEach: %d entries %d cycles, model %d entries %d cycles",
				seed, walked[0], c.th.Core.Cycles(), walked[1], ref.th.Core.Cycles())
		}
		if walked[0] <= 4*initialBuckets || hits == 0 || nulls == 0 {
			t.Errorf("seed %d exercised too little: %d entries (no rehash), %d hits, %d nulls, %d sets", seed, walked[0], hits, nulls, sets)
		}
	}
}

// compareStores checks what the two machines hold and have counted: the store
// segment byte for byte, cycles by category, TLB and per-tag counters.
func compareStores(t *testing.T, a, b *core.System, when string) {
	t.Helper()
	ia, err := a.SegmentImageOf(SegName, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.SegmentImageOf(SegName, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ia.Index, ib.Index) {
		t.Fatalf("%s: store segments differ (%d vs %d pages)", when, len(ia.Index), len(ib.Index))
	}
	for i, idx := range ia.Index {
		if !bytes.Equal(ia.Page(i), ib.Page(i)) {
			t.Fatalf("%s: store segments differ at page %d", when, idx)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if !reflect.DeepEqual(sa.Cycles, sb.Cycles) || sa.TLB != sb.TLB || !reflect.DeepEqual(sa.ASIDs, sb.ASIDs) ||
		sa.PT != sb.PT || sa.VM != sb.VM || !reflect.DeepEqual(sa.Cores, sb.Cores) {
		t.Fatalf("%s: counters differ\n%+v %+v %+v\n%+v %+v %+v", when, sa.Cycles, sa.TLB, sa.ASIDs, sb.Cycles, sb.TLB, sb.ASIDs)
	}
}
