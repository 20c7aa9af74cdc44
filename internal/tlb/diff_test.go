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
//	b0 % 20   0-7 Insert, 8-13 Lookup, 14-15 a run of lookups on one page,
//	          16-17 FlushPage, 18 FlushASID, 19 FlushAll
//	b1        bits 0-1 ASID, bits 2-3 page size (3 folds onto 4 KiB), bit 4 global,
//	          bit 5 narrows the page index to 10 bits so sets fill and hit;
//	          for a run, bit 6 asks for write permission and bit 7 stretches
//	          its length from 1-8 words to 1-505; for a FlushAll, bit 6 makes
//	          it the owner's (settled first, as a CR3 write) and not a remote one
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

// owner drives a TLB the way its core does (hw.Core): lookups go to an L0 of
// entry copies first, a copy that is still good serves them without a word to
// the TLB, and what it served is settled by the next Probe, Insert or CR3 write.
// The reference model is told of every lookup as it happens.
type owner struct {
	t      *testing.T
	tl     *TLB
	ref    *refTLB
	l0     map[l0Key]l0Copy
	n      uint64            // deferred hits
	last   map[*Entry]uint64 // position of the latest deferred hit each entry served
	served uint64            // lookups the L0 answered
}

type l0Key struct {
	asid arch.ASID
	page arch.VirtAddr // 4 KiB page
}

type l0Copy struct {
	e     *Entry
	epoch uint64
}

func (o *owner) deferred() []Touch {
	touched := make([]Touch, 0, len(o.last))
	for e, last := range o.last {
		touched = append(touched, Touch{E: e, Last: last})
	}
	return touched
}

func (o *owner) settled() { o.n, o.last = 0, map[*Entry]uint64{} }

// lookup is k lookups of consecutive words from va, all of which need need: an
// L0 hit if there is a good copy that allows it — which by the inclusion
// invariant the model's k lookups must then all hit, on that very entry — and
// otherwise one lookup through Probe, whose hit is copied.
func (o *owner) lookup(op int, asid arch.ASID, va arch.VirtAddr, need arch.Perm, k int) {
	key := l0Key{asid, arch.AlignDown(va, arch.PageSize)}
	if c, ok := o.l0[key]; ok && c.epoch == o.tl.Epoch() && c.e.Perm.Allows(need) {
		for i := 0; i < k; i++ {
			if we, wok := o.ref.Lookup(asid, va+arch.VirtAddr(8*i)); !wok || we != pub(*c.e) {
				o.t.Fatalf("op %d: L0 served (asid %d, %v) from %+v, model (%+v, %v)", op, asid, va, pub(*c.e), we, wok)
			}
		}
		o.n += uint64(k)
		o.last[c.e] = o.n
		o.served += uint64(k)
		return
	}
	epoch := o.tl.Epoch()
	e := o.tl.Probe(asid, va, o.n, o.deferred())
	o.settled()
	we, wok := o.ref.Lookup(asid, va)
	if (e != nil) != wok || (wok && pub(*e) != we) {
		o.t.Fatalf("op %d Probe(asid %d, %v) = %+v, model (%+v, %v)", op, asid, va, e, we, wok)
	}
	if e != nil {
		o.l0[key] = l0Copy{e, epoch}
	}
}

func (o *owner) insert(op int, asid arch.ASID, base arch.VirtAddr, frame arch.PhysAddr, ps uint64, perm arch.Perm, global bool) {
	o.tl.Settle(o.n, o.deferred())
	o.settled()
	epoch := o.tl.Epoch()
	e, was, ge := o.tl.Insert(asid, base, frame, ps, perm, global)
	wv, we := o.ref.Insert(asid, base, frame, ps, perm, global)
	if ge != we || (ge && was.ASID != wv) || (ge && was.PageSize == 0) {
		o.t.Fatalf("op %d Insert(asid %d, %v, %d, global %v) displaced (%+v, %v), model (%d, %v)",
			op, asid, base, ps, global, was, ge, wv, we)
	}
	for key, c := range o.l0 {
		if c.e == e {
			delete(o.l0, key)
		}
	}
	o.l0[l0Key{asid, base}] = l0Copy{e, epoch}
}

// runOps drives the TLB, through an owner with an L0, and the scanning
// reference model with the same operations and fails on the first step where
// any return value, the statistics, the live-entry count or the replacement
// state differ — the TLB's taken as what it holds plus what the owner still
// owes it, so a step is compared whether or not it settled.
func runOps(t *testing.T, cfg Config, data []byte) (Stats, uint64) {
	t.Helper()
	o := &owner{t: t, tl: New(cfg), ref: newRef(cfg), l0: map[l0Key]l0Copy{}}
	o.settled()
	tl, ref := o.tl, o.ref
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
			o.insert(step/opBytes, asid, base, arch.PhysAddr(idx*ps+1<<40), ps, arch.Perm(b0>>5), b1&0x10 != 0)
		case k >= 14 && k < 16:
			need, n := arch.PermRead, 1+int(b0>>5)*(1+int(b1>>7)*63)
			if b1&0x40 != 0 {
				need = arch.PermRW
			}
			o.lookup(step/opBytes, asid, va, need, n)
		case k < 16:
			o.lookup(step/opBytes, asid, va, 0, 1)
		case k < 18:
			if g, w := tl.FlushPage(asid, va), ref.FlushPage(asid, va); g != w {
				t.Fatalf("op %d FlushPage(asid %d, %v) = %d, model %d", step/opBytes, asid, va, g, w)
			}
		case k == 18:
			if g, w := tl.FlushASID(asid), ref.FlushASID(asid); g != w {
				t.Fatalf("op %d FlushASID(%d) = %d, model %d", step/opBytes, asid, g, w)
			}
		default:
			if b1&0x40 != 0 {
				tl.Settle(o.n, o.deferred())
				o.settled()
			}
			if g, w := tl.FlushAll(), ref.FlushAll(); g != w {
				t.Fatalf("op %d FlushAll = %d, model %d", step/opBytes, g, w)
			}
		}
		g := tl.Stats()
		g.Hits += o.n
		if w := ref.stats; g != w {
			t.Fatalf("op %d stats %+v (%d of the hits deferred), model %+v", step/opBytes, g, o.n, w)
		}
		if g, w := tl.Live(), ref.Live(); g != w {
			t.Fatalf("op %d live %d, model %d", step/opBytes, g, w)
		}
		// Replacement state: both models stamp from a clock that every lookup
		// and insert advances, so each live entry carries the same stamp, and
		// with it every set has the same LRU order.
		if tl.tick+o.n != ref.tick {
			t.Fatalf("op %d clock %d + %d deferred, model %d", step/opBytes, tl.tick, o.n, ref.tick)
		}
		for si, set := range tl.sets {
			for i := range set {
				e, w := &set[i], &ref.sets[si][i]
				used := e.used
				if last, ok := o.last[e]; ok {
					used = tl.tick + last
				}
				if tl.live(e) != w.valid || (w.valid && used != w.used) {
					t.Fatalf("op %d set %d way %d: live %v used %d, model valid %v used %d",
						step/opBytes, si, i, tl.live(e), used, w.valid, w.used)
				}
			}
		}
	}
	tl.Settle(o.n, o.deferred())
	if tl.tick != ref.tick || tl.Stats() != ref.stats {
		t.Fatalf("after the last settle: clock %d stats %+v, model %d %+v", tl.tick, tl.Stats(), ref.tick, ref.stats)
	}
	return tl.Stats(), o.served
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
				st, served := runOps(t, tc.cfg, genOps(seed, tc.ops))
				if st.Hits == 0 || st.Evictions == 0 || st.FlushedEntries == 0 || served == 0 || served == st.Hits {
					t.Errorf("seed %d exercised too little: %+v, %d hits served by the L0", seed, st, served)
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
// owner goroutine fills, probes and generation-flushes its TLB, serving what
// it can from an L0 of entry copies, while a second goroutine changes
// "page-table entries" (a version per page) and shoots the old translations
// down with FlushPage, FlushASID or FlushAll. Once a shootdown has returned,
// the owner must never be served a translation older than the version it
// published — from the TLB, across FlushAll generations, or from a copy made
// before the shootdown bumped the epoch.
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
			if r := rng.Intn(16); r < 2 {
				for p := range vers {
					vers[p] = bump(p)
				}
				if r == 0 {
					tl.FlushASID(asid)
				} else {
					tl.FlushAll()
				}
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

	// The owner's L0: one copy per page, the frame as it was when copied.
	type copied struct {
		e     *Entry
		frame arch.PhysAddr
		epoch uint64
	}
	var (
		l0      [pages]copied
		n       uint64
		last    = map[*Entry]uint64{}
		touched []Touch
		served  uint64
	)
	deferred := func() []Touch {
		touched = touched[:0]
		for e, at := range last {
			touched = append(touched, Touch{E: e, Last: at})
		}
		clear(last)
		return touched
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < iters; i++ {
		p := rng.Intn(pages)
		if i%97 == 0 {
			tl.Settle(n, deferred())
			n = 0
			tl.FlushAll()
			continue
		}
		want := floor[p].Load() // before the access begins
		if c := &l0[p]; c.e != nil && c.epoch == tl.Epoch() {
			if got := uint64(c.frame) >> arch.PageShift; got < want {
				t.Fatalf("page %d: L0 served version %d after the shootdown for version %d returned", p, got, want)
			}
			// One word, or the run-length reader's many, of this one entry.
			n += uint64(1 + rng.Intn(64)*(i%3/2))
			last[c.e] = n
			served++
			continue
		}
		epoch := tl.Epoch()
		e := tl.Probe(asid, va(p), n, deferred())
		n = 0
		if e != nil {
			if got := uint64(e.Frame) >> arch.PageShift; got < want {
				t.Fatalf("page %d: served version %d after the shootdown for version %d returned", p, got, want)
			}
			l0[p] = copied{e, e.Frame, epoch}
			continue
		}
		pte[p].Lock()
		e, _, _ = tl.Insert(asid, va(p), arch.PhysAddr(version[p]<<arch.PageShift), arch.PageSize, arch.PermRW, false)
		pte[p].Unlock()
		for q := range l0 {
			if l0[q].e == e {
				l0[q] = copied{}
			}
		}
		l0[p] = copied{e, e.Frame, epoch}
	}
	done.Store(true)
	wg.Wait()
	if served == 0 {
		t.Error("the L0 never served a hit")
	}
}
