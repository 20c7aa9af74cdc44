package stats

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"spacejmp/internal/arch"
)

// TestNilSafety: every recording and reading method must be a no-op on a nil
// receiver — this is the disabled fast path every component relies on.
func TestNilSafety(t *testing.T) {
	var s *Sink
	s.InstallClusterSlots(4)
	recordAll(s, 0)
	s.SetTracer(NewTracer(4))
	s.Trace(Event{Kind: EvVASSwitch})
	if s.Tracer() != nil || s.Core(0) != nil || s.PTObs() != nil || s.Snapshot() != nil {
		t.Error("nil sink returned non-nil sub-objects")
	}

	var c *CoreCounters
	c.AddCycles(CatData, 5)
	c.TLBHits(1, 1)
	c.TLBMiss(1)
	c.TLBEvict(1)
	c.Fault()
	c.CR3Load()
	if c.Cycles(CatData) != 0 {
		t.Error("nil CoreCounters recorded cycles")
	}

	var p *PTCounters
	p.TableAllocated()
	p.TableFreed()
	p.EntrySet()
	p.EntryCleared()
	p.Walk(4)

	var h *Hist
	h.Observe(7)
	if h.Snap().Count != 0 {
		t.Error("nil Hist recorded")
	}

	var tr *Tracer
	tr.Record(Event{Kind: EvFault})
	if tr.Events() != nil || tr.Recorded() != 0 || tr.Dropped() != 0 || tr.Count(EvFault) != 0 {
		t.Error("nil Tracer retained state")
	}

	var snap *Snapshot
	if snap.Delta(nil) != nil {
		t.Error("nil snapshot delta is non-nil")
	}
	// Dense makes every optional block readable, even from nothing.
	if d := snap.Dense(); d.Server.Busy != 0 || d.Cluster.Replication.Ships != 0 || d.Cluster.Overload.Shed != 0 {
		t.Errorf("dense form of a nil snapshot counted something: %+v", d)
	}
}

// TestConcurrentCounters hammers every counter family from many goroutines
// and verifies the snapshot totals are exact. Run under -race this also
// proves the recording paths are data-race free.
func TestConcurrentCounters(t *testing.T) {
	const workers = 8
	const perWorker = 1000
	s := NewSink(2)
	s.SetTracer(NewTracer(16))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cc := s.Core(w / 4) // each tag is recorded on both cores' shards
			for i := 0; i < perWorker; i++ {
				cc.AddCycles(CatWalk, 3)
				cc.TLBHits(arch.ASID(w%4), 1)
				cc.TLBMiss(arch.ASID(w % 4))
				cc.TLBEvict(1)
				s.PTObs().Walk(4)
				s.PTObs().EntrySet()
				s.NVMWrite(1, 8)
				s.Syscall(OpVASSwitch, uint64(i))
				s.LockWait(uint64(i))
				s.VASSwitch(w, w, uint64(i))
			}
		}(w)
	}
	wg.Wait()
	snap := s.Snapshot()
	const total = workers * perWorker
	if got := snap.Cycles[CatWalk.String()]; got != 3*total {
		t.Errorf("walk cycles = %d, want %d", got, 3*total)
	}
	if snap.TLB.Hits != total || snap.TLB.Misses != total || snap.TLB.Evictions != total {
		t.Errorf("tlb = %+v, want %d each", snap.TLB, total)
	}
	for asid := arch.ASID(0); asid < 4; asid++ {
		want := ASIDSnap{Hits: 2 * perWorker, Misses: 2 * perWorker}
		if asid == 1 {
			want.Evictions = total
		}
		if got := snap.ASIDs[asid]; got != want {
			t.Errorf("asid %d summed over cores = %+v, want %+v", asid, got, want)
		}
	}
	if snap.TLB.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", snap.TLB.HitRate())
	}
	if snap.PT.Walks != total || snap.PT.NodesTouched != 4*total || snap.PT.EntriesSet != total {
		t.Errorf("pt = %+v", snap.PT)
	}
	if snap.NVM.Writes != total || snap.NVM.WrittenBytes != 8*total {
		t.Errorf("nvm = %+v", snap.NVM)
	}
	if h := snap.Syscalls[OpVASSwitch.String()]; h.Count != total {
		t.Errorf("vas_switch latencies = %d, want %d", h.Count, total)
	}
	if snap.LockWaitNs.Count != total {
		t.Errorf("lock waits = %d, want %d", snap.LockWaitNs.Count, total)
	}
	// Per-kind trace counts survive ring overflow (capacity 16 << total).
	if got := s.Tracer().Count(EvVASSwitch); got != total {
		t.Errorf("traced switches = %d, want %d", got, total)
	}
	if snap.TraceRecorded != total || snap.TraceDropped != total-16 {
		t.Errorf("trace recorded/dropped = %d/%d", snap.TraceRecorded, snap.TraceDropped)
	}
}

// TestSnapshotImmutability: a snapshot must not change when the live sink
// keeps counting.
func TestSnapshotImmutability(t *testing.T) {
	s := NewSink(1)
	s.Core(0).AddCycles(CatData, 10)
	s.Core(0).TLBHits(2, 1)
	s.PTObs().Walk(4)
	before := s.Snapshot()
	buf, err := before.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate everything the snapshot covers.
	s.Core(0).AddCycles(CatData, 99)
	s.Core(0).TLBHits(2, 1)
	s.TLBFlush(7)
	s.PTObs().Walk(4)
	s.Syscall(OpSegAlloc, 123)
	after, err := before.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(after) {
		t.Errorf("snapshot changed under mutation:\nbefore %s\nafter  %s", buf, after)
	}
	if before.TLB.Hits != 1 || before.Cycles[CatData.String()] != 10 {
		t.Errorf("snapshot values wrong: %+v", before)
	}
}

// TestSnapshotDelta verifies counter-by-counter subtraction.
func TestSnapshotDelta(t *testing.T) {
	s := NewSink(1)
	s.Core(0).AddCycles(CatWalk, 5)
	s.Core(0).TLBMiss(1)
	s.Syscall(OpVASSwitch, 10)
	before := s.Snapshot()
	s.Core(0).AddCycles(CatWalk, 7)
	s.Core(0).TLBMiss(1)
	s.Core(0).TLBMiss(1)
	s.Syscall(OpVASSwitch, 20)
	d := s.Snapshot().Delta(before)
	if d.Cycles[CatWalk.String()] != 7 {
		t.Errorf("delta walk cycles = %d, want 7", d.Cycles[CatWalk.String()])
	}
	if d.TLB.Misses != 2 {
		t.Errorf("delta misses = %d, want 2", d.TLB.Misses)
	}
	h := d.Syscalls[OpVASSwitch.String()]
	if h.Count != 1 || h.Sum != 20 {
		t.Errorf("delta vas_switch hist = %+v, want count 1 sum 20", h)
	}
	// Delta against nil is the snapshot itself.
	if full := s.Snapshot().Delta(nil); full.TLB.Misses != 3 {
		t.Errorf("delta(nil) misses = %d, want 3", full.TLB.Misses)
	}

	// The three tagged fields carry the later value instead of subtracting:
	// a high-water mark, a point-in-time table and a label. Blocks and rows
	// the earlier snapshot lacks subtract as zero.
	s = NewSink(2)
	s.InstallClusterSlots(4)
	shard, srv := s.Server().Shards.Row(0), s.Server()
	StoreMax(&shard.QueueMax, 5)
	shard.Commands.Add(1)
	srv.Commands.Add(1)
	srv.LatencyNs.Observe(1)
	s.ClusterSlotMoved(2, 0, 1, 40, 4096, 0)
	before = s.Snapshot()
	StoreMax(&shard.QueueMax, 3)
	shard.Commands.Add(1)
	srv.Commands.Add(1)
	srv.LatencyNs.Observe(1)
	s.ClusterSlotMoved(3, 0, 1, 7, 512, 0)
	s.Tenant(1).Commands.Add(1)
	s.Tenant(1).Bytes.Add(9)
	after := s.Snapshot()
	d = after.Delta(before)
	if sh := d.Server.Shards[0]; sh.QueueMax != 5 || sh.Commands != 1 {
		t.Errorf("delta shard = %+v, want queue_max 5 carried and 1 command", sh)
	}
	if m := d.Cluster.Migration; m.SlotMoves != 1 || m.KeysMoved != 7 || m.SlotKeys[2] != 40 || m.SlotKeys[3] != 7 {
		t.Errorf("delta migration = %+v, want 1 move of 7 keys and both slot counts carried", m)
	}
	if d.Cores[1].ID != 1 {
		t.Errorf("delta core 1 has id %d", d.Cores[1].ID)
	}
	if before.Tenants != nil || len(d.Tenants) != 2 || d.Tenants[1] != (TenantSnap{Commands: 1, Bytes: 9}) {
		t.Errorf("delta tenants = %+v, want the later table whole", d.Tenants)
	}
	if d.Cluster.Replication != nil || after.Delta(after).Cluster.Migration == nil {
		t.Error("delta: an optional block is present exactly when the later snapshot has it")
	}
}

// TestCounterNames: a dotted JSON path reads one leaf, an absent block reads
// zero, a slice sums its rows, and a name the type does not have is an error
// whether or not the block is there.
func TestCounterNames(t *testing.T) {
	s := NewSink(1)
	s.Tenant(0).QuotaRejections.Add(2)
	s.Tenant(1).QuotaRejections.Add(3)
	s.Server().Commands.Add(4)
	snap := s.Snapshot()
	for path, want := range map[string]uint64{
		"server.commands":                4,
		"tenants.quota_rejections":       5,
		"cluster.replication.promotions": 0, // absent block
		"tlb.hits":                       0,
	} {
		if got, err := Counter(snap, path); err != nil || got != want {
			t.Errorf("Counter(%s) = %d, %v; want %d", path, got, err, want)
		}
	}
	for _, path := range []string{"cluster.replication.promotoins", "cluster.replication", "server.commands.x", "cycles_by_cat.walk", "cores.id", ""} {
		if _, err := Counter((*Snapshot)(nil), path); err == nil {
			t.Errorf("Counter(%q) on the type: no error", path)
		}
	}
}

// TestTraceRingOverflow: the ring keeps the newest capacity events in order,
// Recorded/Dropped account for the rest, and per-kind counts are exact.
func TestTraceRingOverflow(t *testing.T) {
	tr := NewTracer(8)
	const n = 20
	for i := 0; i < n; i++ {
		tr.Record(Event{Kind: EvVASSwitch, Core: 0, A: uint64(i)})
	}
	if tr.Recorded() != n {
		t.Errorf("recorded = %d, want %d", tr.Recorded(), n)
	}
	if tr.Dropped() != n-8 {
		t.Errorf("dropped = %d, want %d", tr.Dropped(), n-8)
	}
	ev := tr.Events()
	if len(ev) != 8 {
		t.Fatalf("retained %d events, want 8", len(ev))
	}
	for i, e := range ev {
		wantSeq := uint64(n - 8 + i + 1) // oldest retained first, 1-based seq
		if e.Seq != wantSeq || e.A != wantSeq-1 {
			t.Errorf("event %d: seq=%d a=%d, want seq=%d", i, e.Seq, e.A, wantSeq)
		}
	}
	if tr.Count(EvVASSwitch) != n || tr.Count(EvFault) != 0 {
		t.Errorf("counts = %d/%d", tr.Count(EvVASSwitch), tr.Count(EvFault))
	}
	// Events JSON-encode (the exporter path).
	if _, err := json.Marshal(ev); err != nil {
		t.Errorf("events not encodable: %v", err)
	}
}

// TestTracerBelowCapacity: no wrap, events in insertion order, zero dropped.
func TestTracerBelowCapacity(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Event{Kind: EvFault, Label: "a"})
	tr.Record(Event{Kind: EvSegAttach, A: 1, B: 2})
	if tr.Dropped() != 0 {
		t.Errorf("dropped = %d", tr.Dropped())
	}
	ev := tr.Events()
	if len(ev) != 2 || ev[0].Kind != EvFault || ev[1].Kind != EvSegAttach {
		t.Errorf("events = %+v", ev)
	}
	if ev[0].Seq != 1 || ev[1].Seq != 2 {
		t.Errorf("seqs = %d, %d", ev[0].Seq, ev[1].Seq)
	}
}

// TestHistQuantiles checks the log2 histogram's mean, max, and quantile
// upper bounds.
func TestHistQuantiles(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snap()
	if s.Count != 100 || s.Sum != 5050 || s.Max != 100 {
		t.Fatalf("hist = count %d sum %d max %d", s.Count, s.Sum, s.Max)
	}
	if s.Mean() != 50.5 {
		t.Errorf("mean = %v", s.Mean())
	}
	// The median observation is 50; its log2 bucket [32,64) reports 63.
	if q := s.Quantile(0.5); q != 63 {
		t.Errorf("p50 = %d, want 63", q)
	}
	// The top quantile is clamped to the observed max.
	if q := s.Quantile(1.0); q != 100 {
		t.Errorf("p100 = %d, want 100", q)
	}
	if q := s.Quantile(0.0); q > 1 {
		t.Errorf("p0 = %d, want ≤1", q)
	}

	var zeros Hist
	zeros.Observe(0)
	if q := zeros.Snap().Quantile(0.99); q != 0 {
		t.Errorf("all-zero p99 = %d", q)
	}
}

// TestObserveNIsNObserves: ObserveN(v, n) leaves the snapshot n calls to
// Observe(v) leave — count, sum, max and every bucket — on top of whatever
// the histogram held, and ObserveN(v, 0) records nothing, not even a max.
func TestObserveNIsNObserves(t *testing.T) {
	var batched, looped Hist
	for _, o := range []struct{ v, n uint64 }{
		{7, 3}, {0, 5}, {1 << 40, 2}, {100, 1}, {3, 16}, {1<<64 - 1, 3}, {9, 0}, {1 << 50, 0},
	} {
		batched.ObserveN(o.v, o.n)
		for range o.n {
			looped.Observe(o.v)
		}
		if g, w := batched.Snap(), looped.Snap(); !reflect.DeepEqual(g, w) {
			t.Fatalf("after ObserveN(%d, %d): %+v, %d Observes: %+v", o.v, o.n, g, o.n, w)
		}
	}
	var nilHist *Hist
	nilHist.ObserveN(1, 1)
}

// TestCatOpNames: every category and op has a distinct name (the snapshot
// keys), and out-of-range values don't panic.
func TestCatOpNames(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < NumCats; c++ {
		name := Cat(c).String()
		if name == "" || seen[name] {
			t.Errorf("cat %d name %q empty or duplicate", c, name)
		}
		seen[name] = true
	}
	for o := 0; o < NumOps; o++ {
		name := Op(o).String()
		if name == "" || seen[name] {
			t.Errorf("op %d name %q empty or duplicate", o, name)
		}
		seen[name] = true
	}
	_ = Cat(200).String()
	_ = Op(200).String()
	_ = EventKind(200).String()
}

// TestEventStringsUnchanged holds every kind's name and rendering to the
// strings the per-kind switch printed before the kinds became table rows, and
// the by-name lookup to String's inverse.
func TestEventStringsUnchanged(t *testing.T) {
	want := [NumEvents][2]string{
		{"vas-switch", "#7 vas-switch core=3 pid=11 handle=5"},
		{"seg-attach", "#7 seg-attach core=3 pid=11 vas=5 seg=9"},
		{"fault", "#7 fault lbl"},
		{"urpc-retry", "#7 urpc-retry core=3 seq=5 try=9"},
		{"conn-open", "#7 conn-open conn=5 shard=9"},
		{"conn-close", "#7 conn-close conn=5 commands=9"},
		{"remote-call", "#7 remote-call node=5 cycles=9"},
		{"node-state", "#7 node-state node=5 state=lbl"},
		{"checkpoint-ship", "#7 checkpoint-ship node=5 bytes=9"},
		{"promotion", "#7 promotion node=5 replayed=9 lost=lbl"},
		{"slot-move", "#7 slot-move slot=5 keys=9 lbl"},
		{"slot-move-failed", "#7 slot-move-failed slot=5 lbl"},
		{"node-added", "#7 node-added node=5"},
		{"node-removed", "#7 node-removed node=5"},
		{"fork", "#7 fork node=5 gen=9"},
		{"fork-release", "#7 fork-release node=5 gen=9"},
		{"fork-invalidate", "#7 fork-invalidate node=5 views=9 reason=lbl"},
		{"breaker-state", "#7 breaker-state node=5 lbl"},
	}
	for k, w := range want {
		kind := EventKind(k)
		if got := kind.String(); got != w[0] {
			t.Errorf("kind %d: name %q, want %q", k, got, w[0])
		}
		if back, ok := EventKindByName(w[0]); !ok || back != kind {
			t.Errorf("EventKindByName(%q) = %d, %v; want %d", w[0], back, ok, k)
		}
		e := Event{Seq: 7, Kind: kind, Core: 3, PID: 11, A: 5, B: 9, Label: "lbl"}
		if got := e.String(); got != w[1] {
			t.Errorf("kind %d: %q, want %q", k, got, w[1])
		}
	}
	for _, tc := range []struct {
		e    Event
		want string
	}{
		{Event{Seq: 7, Kind: EvPromotion, Core: 3, PID: 11, A: 5, B: 9}, "#7 promotion node=5 replayed=9"},
		{Event{Seq: 7, Kind: EvFault, Core: -1}, "#7 fault "},
		{Event{Seq: 1, Kind: EventKind(NumEvents), Label: "lbl"}, "#1 event(?)"},
		{Event{Seq: 1, Kind: 200}, "#1 event(?)"},
	} {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("%+v: %q, want %q", tc.e, got, tc.want)
		}
	}
	if k, ok := EventKindByName("event(?)"); ok {
		t.Errorf("EventKindByName of the out-of-range name = %d, want none", k)
	}
}

// TestCoreTotalsFromShard: a core's snapshot row is rebuilt from its shard —
// the categories' and tags' sums and the two event counts.
func TestCoreTotalsFromShard(t *testing.T) {
	s := NewSink(1)
	c := s.Core(0)
	c.AddCycles(CatData, 10)
	c.AddCycles(CatWalk, 5)
	c.TLBHits(3, 4)
	c.TLBHits(70, 2) // another chunk of tags
	c.TLBMiss(3)
	c.TLBMiss(0)
	c.Fault()
	c.CR3Load()
	c.CR3Load()
	got := s.Snapshot().Cores[0]
	c.Complete(&got)
	if got.Cycles != 15 || got.TLBHits != 6 || got.TLBMisses != 2 || got.Faults != 1 || got.CR3Loads != 2 {
		t.Errorf("row %+v, want 15 cycles, 6 hits, 2 misses, 1 fault, 2 CR3 loads", got)
	}
}
