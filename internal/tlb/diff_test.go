package tlb

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"spacejmp/internal/arch"
)

// An op stream is a byte string, four bytes per operation, so the seeded
// differential test and the fuzzer share one decoder:
//
//	b0 % 20   0-7 Insert, 8-13 Lookup, 14-15 TranslateRun, 16-17 FlushPage,
//	          18 FlushASID, 19 FlushAll
//	b1        bits 0-1 ASID, bits 2-3 page size (3 folds onto 4 KiB), bit 4 global,
//	          bit 5 narrows the page index to 10 bits so sets fill and hit;
//	          for a run, bit 6 asks for write permission and bit 7 stretches
//	          its length from 1-8 words to 1-505
//	b2, b3    page index
const opBytes = 4

func genOps(seed int64, n int) []byte {
	data := make([]byte, n*opBytes)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// pub strips the replacement state, which the two models keep differently.
func pub(e Entry) Entry {
	e.gen, e.used = 0, 0
	return e
}

// runOps drives the TLB and the scanning reference model with the same
// operations and fails on the first step where any return value, the
// statistics or the live-entry count differ.
func runOps(t *testing.T, cfg Config, data []byte) Stats {
	t.Helper()
	tl, ref := New(cfg), newRef(cfg)
	for step := 0; step+opBytes <= len(data); step += opBytes {
		b0, b1 := data[step], data[step+1]
		idx := uint64(data[step+2])<<8 | uint64(data[step+3])
		if b1&0x20 != 0 {
			idx &= 0x3ff
		}
		asid := arch.ASID(b1 & 3)
		ps := pageSizes[(b1>>2&3)%3]
		va := arch.VirtAddr(idx<<arch.PageShift | 0x18)
		switch k := b0 % 20; {
		case k < 8:
			// Large pages are folded into the 256 MiB window the lookups
			// probe (four 1 GiB pages reach past it), so sizes overlap.
			base := arch.VirtAddr(idx % max(256<<20/ps, 4) * ps)
			frame := arch.PhysAddr(idx*ps + 1<<40)
			global := b1&0x10 != 0
			gv, ge := tl.Insert(asid, base, frame, ps, arch.Perm(b0>>5), global)
			wv, we := ref.Insert(asid, base, frame, ps, arch.Perm(b0>>5), global)
			if gv != wv || ge != we {
				t.Fatalf("op %d Insert(asid %d, %v, %d, global %v) = (%d, %v), model (%d, %v)",
					step/opBytes, asid, base, ps, global, gv, ge, wv, we)
			}
		case k >= 14 && k < 16:
			need, n := arch.PermRead, 1+int(b0>>5)*(1+int(b1>>7)*63)
			if b1&0x40 != 0 {
				need = arch.PermRW
			}
			gpa, gok := tl.TranslateRun(asid, va, need, n)
			wpa, wok := ref.TranslateRun(asid, va, need, n)
			if gpa != wpa || gok != wok {
				t.Fatalf("op %d TranslateRun(asid %d, %v, %v, %d) = (%v, %v), model (%v, %v)",
					step/opBytes, asid, va, need, n, gpa, gok, wpa, wok)
			}
		case k < 16:
			ge, gok := tl.Lookup(asid, va)
			we, wok := ref.Lookup(asid, va)
			if gok != wok || pub(ge) != we {
				t.Fatalf("op %d Lookup(asid %d, %v) = (%+v, %v), model (%+v, %v)",
					step/opBytes, asid, va, pub(ge), gok, we, wok)
			}
		case k < 18:
			if g, w := tl.FlushPage(asid, va), ref.FlushPage(asid, va); g != w {
				t.Fatalf("op %d FlushPage(asid %d, %v) = %d, model %d", step/opBytes, asid, va, g, w)
			}
		case k == 18:
			if g, w := tl.FlushASID(asid), ref.FlushASID(asid); g != w {
				t.Fatalf("op %d FlushASID(%d) = %d, model %d", step/opBytes, asid, g, w)
			}
		default:
			if g, w := tl.FlushAll(), ref.FlushAll(); g != w {
				t.Fatalf("op %d FlushAll = %d, model %d", step/opBytes, g, w)
			}
		}
		if g, w := tl.Stats(), ref.stats; g != w {
			t.Fatalf("op %d stats %+v, model %+v", step/opBytes, g, w)
		}
		if g, w := tl.Live(), ref.Live(); g != w {
			t.Fatalf("op %d live %d, model %d", step/opBytes, g, w)
		}
		// Replacement state: both models stamp from a clock that every lookup
		// and insert advances, so each live entry carries the same stamp, and
		// with it every set has the same LRU order.
		if tl.tick != ref.tick {
			t.Fatalf("op %d clock %d, model %d", step/opBytes, tl.tick, ref.tick)
		}
		for si, set := range tl.sets {
			for i := range set {
				if e, w := &set[i], &ref.sets[si][i]; tl.live(e) != w.valid || (w.valid && e.used != w.used) {
					t.Fatalf("op %d set %d way %d: live %v used %d, model valid %v used %d",
						step/opBytes, si, i, tl.live(e), e.used, w.valid, w.used)
				}
			}
		}
	}
	return tl.Stats()
}

func TestDifferentialAgainstScanningModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ops  int
	}{
		{"16x4", Config{Sets: 16, Ways: 4}, 20000},
		{"default", DefaultConfig, 8000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				st := runOps(t, tc.cfg, genOps(seed, tc.ops))
				if st.Hits == 0 || st.Evictions == 0 || st.FlushedEntries == 0 {
					t.Errorf("seed %d exercised too little: %+v", seed, st)
				}
			}
		})
	}
}

func FuzzTLBModel(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(genOps(seed, 512))
	}
	// Inserts and runs over the same few pages: long runs that hit, runs
	// that find the permission short, runs after an eviction.
	runs := genOps(9, 512)
	for i := 0; i < len(runs); i += opBytes {
		runs[i] = runs[i]&^0x1f | []byte{0, 14, 15, 14}[i/opBytes%4]
		runs[i+1] |= 0x20
		runs[i+2] = 0
	}
	f.Add(runs)
	f.Fuzz(func(t *testing.T, data []byte) {
		runOps(t, Config{Sets: 16, Ways: 4}, data)
		runOps(t, Config{Sets: 2, Ways: 3}, data)
	})
}

// TestShootdownRace is the cross-core protocol under the race detector: the
// owner goroutine fills, probes and generation-flushes its TLB while a
// second goroutine changes "page-table entries" (a version per page) and
// shoots the old translations down with FlushPage or FlushASID. Once a
// shootdown has returned, the owner must never be served a translation older
// than the version it published — including across FlushAll generations.
func TestShootdownRace(t *testing.T) {
	const (
		pages = 64
		asid  = arch.ASID(1)
		iters = 20000
	)
	tl := New(Config{Sets: 16, Ways: 4})
	var (
		pte     [pages]sync.Mutex // held over "walk + fill" and over a PTE change
		version [pages]uint64     // guarded by pte
		floor   [pages]atomic.Uint64
		done    atomic.Bool
		wg      sync.WaitGroup
	)
	va := func(p int) arch.VirtAddr { return arch.VirtAddr(p << arch.PageShift) }
	bump := func(p int) uint64 {
		pte[p].Lock()
		defer pte[p].Unlock()
		version[p]++
		return version[p]
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		var vers [pages]uint64
		for !done.Load() {
			if rng.Intn(16) == 0 {
				for p := range vers {
					vers[p] = bump(p)
				}
				tl.FlushASID(asid)
				for p := range vers {
					floor[p].Store(vers[p])
				}
				continue
			}
			p := rng.Intn(pages)
			v := bump(p)
			tl.FlushPage(asid, va(p))
			floor[p].Store(v)
		}
	}()

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < iters; i++ {
		p := rng.Intn(pages)
		if i%97 == 0 {
			tl.FlushAll()
			continue
		}
		want := floor[p].Load()
		if i%3 == 0 {
			// The run-length reader: a run is served by one entry or not at all.
			if pa, ok := tl.TranslateRun(asid, va(p), arch.PermRead, 1+rng.Intn(64)); ok {
				if got := uint64(pa) >> arch.PageShift; got < want {
					t.Fatalf("page %d: run served version %d after the shootdown for version %d returned", p, got, want)
				}
				continue
			}
		}
		if e, ok := tl.Lookup(asid, va(p)); ok {
			if got := uint64(e.Frame) >> arch.PageShift; got < want {
				t.Fatalf("page %d: served version %d after the shootdown for version %d returned", p, got, want)
			}
			continue
		}
		pte[p].Lock()
		tl.Insert(asid, va(p), arch.PhysAddr(version[p]<<arch.PageShift), arch.PageSize, arch.PermRW, false)
		pte[p].Unlock()
	}
	done.Store(true)
	wg.Wait()
}
