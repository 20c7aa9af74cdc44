package redis

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/mspace"
)

func TestRESPRoundTrip(t *testing.T) {
	cmd := EncodeCommand("SET", "key:1", "hello")
	args, err := DecodeCommand(cmd)
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || args[0] != "SET" || args[2] != "hello" {
		t.Errorf("args = %v", args)
	}
	v, isNil, err := DecodeReply(EncodeBulk([]byte("world")))
	if err != nil || isNil || string(v) != "world" {
		t.Errorf("bulk reply: %q %v %v", v, isNil, err)
	}
	if _, isNil, _ := DecodeReply(EncodeBulk(nil)); !isNil {
		t.Error("null bulk not nil")
	}
	if _, _, err := DecodeReply(EncodeError("boom")); err == nil {
		t.Error("error reply not an error")
	}
	if v, _, err := DecodeReply(EncodeSimple("OK")); err != nil || string(v) != "OK" {
		t.Errorf("simple reply: %q %v", v, err)
	}
}

func TestRESPPropertyRoundTrip(t *testing.T) {
	f := func(parts []string) bool {
		if len(parts) == 0 {
			return true
		}
		for i := range parts {
			if len(parts[i]) > 64 {
				parts[i] = parts[i][:64]
			}
			// Bulk strings are length-prefixed: arbitrary bytes round-trip,
			// CR and LF included.
		}
		got, err := DecodeCommand(EncodeCommand(parts...))
		if err != nil || len(got) != len(parts) {
			return false
		}
		for i := range parts {
			if got[i] != parts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func newClient(t *testing.T) (*core.System, *Client) {
	t.Helper()
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		t.Fatal(err)
	}
	th, err := proc.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(th, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	return sys, c
}

func TestJmpSetGet(t *testing.T) {
	_, c := newClient(t)
	if err := c.Set("hello", []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("hello")
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if string(v) != "world" {
		t.Errorf("value = %q", v)
	}
	if _, ok, err := c.Get("missing"); err != nil || ok {
		t.Errorf("missing key: %v %v", ok, err)
	}
}

func TestJmpOverwriteAndDelete(t *testing.T) {
	_, c := newClient(t)
	if err := c.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	v, _, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v2-longer" {
		t.Errorf("after overwrite: %q", v)
	}
	found, err := c.Del("k")
	if err != nil || !found {
		t.Fatalf("del: %v %v", found, err)
	}
	if _, ok, _ := c.Get("k"); ok {
		t.Error("deleted key still present")
	}
	if found, _ := c.Del("k"); found {
		t.Error("double delete reported found")
	}
}

func TestSetStoreFullTypedError(t *testing.T) {
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		t.Fatal(err)
	}
	th, err := proc.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(th, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("keep", []byte("safe")); err != nil {
		t.Fatal(err)
	}
	var full error
	for i := 0; i < 1024 && full == nil; i++ {
		full = c.Set(fmt.Sprintf("fill:%d", i), make([]byte, 4096))
	}
	if full == nil {
		t.Fatal("store never filled")
	}
	// The sentinel chain must hold across layers: redis → core → mspace.
	if !errors.Is(full, ErrStoreFull) {
		t.Errorf("errors.Is(err, ErrStoreFull) false: %v", full)
	}
	if !errors.Is(full, core.ErrNoSpace) {
		t.Errorf("errors.Is(err, core.ErrNoSpace) false: %v", full)
	}
	if !errors.Is(full, mspace.ErrNoSpace) {
		t.Errorf("errors.Is(err, mspace.ErrNoSpace) false: %v", full)
	}
	// The failed SET must have released the exclusive lock and switched
	// back out — the client stays usable.
	if th.Current() != core.PrimaryHandle {
		t.Error("thread stranded outside the primary space after full SET")
	}
	if v, ok, err := c.Get("keep"); err != nil || !ok || string(v) != "safe" {
		t.Errorf("store unusable after full SET: %q %v %v", v, ok, err)
	}
}

func TestTwoClientProcessesShareData(t *testing.T) {
	sys, c1 := newClient(t)
	if err := c1.Set("shared", []byte("data")); err != nil {
		t.Fatal(err)
	}
	proc2, err := sys.NewProcess(core.Creds{UID: 2, GID: 1})
	if err != nil {
		t.Fatal(err)
	}
	th2, err := proc2.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewClient(th2, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := c2.Get("shared")
	if err != nil || !ok {
		t.Fatalf("second client get: %v %v", ok, err)
	}
	if string(v) != "data" {
		t.Errorf("second client sees %q", v)
	}
}

func TestRehashUnderLoad(t *testing.T) {
	_, c := newClient(t)
	// Push well past 4x the initial 64 buckets to force rehashes.
	for i := 0; i < 600; i++ {
		if err := c.Set(fmt.Sprintf("key:%d", i), []byte(fmt.Sprintf("val:%d", i))); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	for i := 0; i < 600; i++ {
		v, ok, err := c.Get(fmt.Sprintf("key:%d", i))
		if err != nil || !ok {
			t.Fatalf("get %d after rehash: %v %v", i, ok, err)
		}
		if string(v) != fmt.Sprintf("val:%d", i) {
			t.Errorf("key %d = %q", i, v)
		}
	}
}

func TestStorePropertyAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := kernel.New(hw.NewMachine(hw.SmallTest()))
		proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
		if err != nil {
			return false
		}
		th, err := proc.NewThread()
		if err != nil {
			return false
		}
		c, err := NewClient(th, 8<<20)
		if err != nil {
			return false
		}
		oracle := map[string][]byte{}
		for step := 0; step < 150; step++ {
			k := fmt.Sprintf("k%d", rng.Intn(30))
			switch rng.Intn(3) {
			case 0, 1:
				v := []byte(fmt.Sprintf("v%d", rng.Intn(1000)))
				if err := c.Set(k, v); err != nil {
					return false
				}
				oracle[k] = v
			case 2:
				found, err := c.Del(k)
				if err != nil {
					return false
				}
				_, want := oracle[k]
				if found != want {
					return false
				}
				delete(oracle, k)
			}
		}
		for k, want := range oracle {
			got, ok, err := c.Get(k)
			if err != nil || !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestBaselineServer(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	server := NewBaselineServer(m.Cores[3])
	client := NewBaselineClient(m.Cores[0], server)
	if err := client.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := client.Get("a")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if _, ok, _ := client.Get("zzz"); ok {
		t.Error("missing key found")
	}
	if server.core.Cycles() == 0 {
		t.Error("server core not charged")
	}
}

func TestFig10Shapes(t *testing.T) {
	costs, err := MeasureCosts(hw.M1(), false, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	costsTag, err := MeasureCosts(hw.M1(), true, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Single client: RedisJMP ~4x the socket baseline (paper: "by a
	// factor of 4x for GET and SET requests").
	jmp1 := costs.GetSeries([]int{1})[0].RPS
	base1 := costs.BaselineGetSeries([]int{1}, 1)[0].RPS
	ratio := jmp1 / base1
	if ratio < 2.5 || ratio > 6.5 {
		t.Errorf("GET speedup at 1 client = %.2fx, want ~4x", ratio)
	}
	// Tags help.
	if costsTag.JmpGet >= costs.JmpGet {
		t.Errorf("tags did not reduce GET cost: %.0f vs %.0f", costsTag.JmpGet, costs.JmpGet)
	}
	// At full utilization RedisJMP beats 6 separate Redis instances.
	clients := []int{1, 2, 4, 8, 12, 16, 32, 64, 100}
	jmp := costs.GetSeries(clients)
	six := costs.BaselineGetSeries(clients, 6)
	if jmp[len(jmp)-1].RPS <= six[len(six)-1].RPS {
		t.Errorf("RedisJMP at 100 clients (%.0f) not above Redis 6x (%.0f)",
			jmp[len(jmp)-1].RPS, six[len(six)-1].RPS)
	}
	// GET throughput rises with clients, but lock-line contention keeps
	// 12-client throughput below ~3x the single client (the paper's peak
	// is ~1.8x its single-client rate).
	if jmp[4].RPS < jmp[0].RPS*1.2 || jmp[4].RPS > jmp[0].RPS*3.5 {
		t.Errorf("GET scaling off: 1 client %.0f, 12 clients %.0f", jmp[0].RPS, jmp[4].RPS)
	}
	// SET throughput is lock-limited: more clients do not help much.
	sets := costs.SetSeries(clients)
	if sets[len(sets)-1].RPS > sets[1].RPS*1.5 {
		t.Errorf("SETs scaled despite the exclusive lock: %v", sets)
	}
	// Mixed workload: throughput falls as SET percentage rises.
	mix := costs.MixSeries(12, []int{0, 10, 50, 100})
	for i := 1; i < len(mix); i++ {
		if mix[i].RPS > mix[i-1].RPS {
			t.Errorf("throughput rose with more SETs: %v", mix)
		}
	}
	// Even at 10%% SETs RedisJMP stays above the file-based baseline.
	baseMix := costs.BaselineMixSeries(12, []int{10})
	if mix[1].RPS <= baseMix[0].RPS {
		t.Errorf("RedisJMP at 10%% SETs (%.0f) below baseline (%.0f)", mix[1].RPS, baseMix[0].RPS)
	}
}

func TestJmpMGet(t *testing.T) {
	_, c := newClient(t)
	for _, kv := range [][2]string{{"a", "va"}, {"b", "vb\r\n\x00"}, {"c", "vc"}} {
		if err := c.Set(kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := c.MGet([]string{"b", "missing", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("MGet returned %d values", len(vals))
	}
	if string(vals[0]) != "vb\r\n\x00" || vals[1] != nil || string(vals[2]) != "va" {
		t.Errorf("MGet = %q", vals)
	}
}

func TestShardNamesDisjoint(t *testing.T) {
	// Two shard stores in one system must not collide in the registries:
	// one process holding clients on both sees each shard's own data.
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Exit()
	th, err := proc.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	c0, err := NewClientNamed(th, 1<<20, ShardNames(0))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewClientNamed(th, 1<<20, ShardNames(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.Set("k", []byte("zero")); err != nil {
		t.Fatal(err)
	}
	if err := c1.Set("k", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := c0.Get("k"); string(v) != "zero" {
		t.Errorf("shard 0 sees %q", v)
	}
	if v, _, _ := c1.Get("k"); string(v) != "one" {
		t.Errorf("shard 1 sees %q", v)
	}
	for i, c := range []*Client{c0, c1} {
		if err := c.Close(); err != nil {
			t.Errorf("close %d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := DestroyNamed(th, ShardNames(i)); err != nil {
			t.Errorf("destroy shard %d: %v", i, err)
		}
	}
}

// TestFailedAttachLeavesNothingBehind fails one frame allocation at a time under
// a client attaching to a standing instance — at either VASAttach, in the
// scratch heap's SegAlloc, in the page tables of either SegAttachLocal, under
// OpenStore's first loads. Whichever step it was, the call takes down what it
// put up: the thread is back in its primary space, both handles are gone (the
// instance can be destroyed, which a leaked attachment forbids), the scratch
// heap is gone if this call allocated it and still there if it did not, and
// every frame is back.
func TestFailedAttachLeavesNothingBehind(t *testing.T) {
	for _, tc := range []struct {
		name       string
		preScratch bool // the scratch heap exists before the call
	}{{"scratch allocated by the call", false}, {"scratch found standing", true}} {
		t.Run(tc.name, func(t *testing.T) {
			m := hw.NewMachine(hw.SmallTest())
			reg := fault.New(1)
			m.SetFaults(reg)
			sys := kernel.New(m)
			proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer proc.Exit()
			th, err := proc.NewThread()
			if err != nil {
				t.Fatal(err)
			}
			empty := m.PM.AllocatedBytes()
			names := ShardNames(5)
			if err := (&Client{th: th, names: names}).bootstrap(1 << 20); err != nil {
				t.Fatal(err)
			}
			scratchName := ScratchName(names, proc.PID)
			if tc.preScratch {
				if _, err := th.SegAlloc(scratchName, ScratchBase, scratchSize, arch.PermRW); err != nil {
					t.Fatal(err)
				}
			}
			base := m.PM.AllocatedBytes()
			failed := 0
			for nth := uint64(1); ; nth++ {
				reg.Enable(fault.MemAlloc, fault.OnNth(nth))
				c, err := NewClientNamed(th, 1<<20, names)
				fired := reg.Fired(fault.MemAlloc) > 0
				reg.Disable(fault.MemAlloc)
				if err != nil {
					failed++
					if c != nil || th.Current() != core.PrimaryHandle {
						t.Fatalf("allocation %d failed the attach (%v): client %v, thread in handle %d", nth, err, c, th.Current())
					}
					if _, ferr := th.SegFind(scratchName); tc.preScratch != (ferr == nil) {
						t.Fatalf("allocation %d failed the attach (%v): scratch heap there before %v, SegFind after: %v", nth, err, tc.preScratch, ferr)
					}
				} else {
					if err := c.Set("k", []byte("v")); err != nil {
						t.Fatal(err)
					}
					// Close frees the scratch heap, whoever allocated it.
					for _, h := range []core.Handle{c.readH, c.writeH} {
						if err := th.VASDetach(h); err != nil {
							t.Fatal(err)
						}
					}
					if !tc.preScratch {
						if err := th.SegFree(c.scratch); err != nil {
							t.Fatal(err)
						}
					}
				}
				if lerr := m.PM.CheckLeaks(base); lerr != nil {
					t.Fatalf("allocation %d (attach: %v): %v", nth, err, lerr)
				}
				if !fired {
					break // nth is past the attach's last allocation
				}
			}
			if failed < 5 {
				t.Fatalf("only %d allocations failed an attach; the sweep did not reach both attachments, the scratch heap and its two mappings", failed)
			}
			if tc.preScratch {
				sid, err := th.SegFind(scratchName)
				if err != nil {
					t.Fatal(err)
				}
				if err := th.SegFree(sid); err != nil {
					t.Fatal(err)
				}
			}
			if err := DestroyNamed(th, names); err != nil {
				t.Fatalf("destroying the instance after %d failed attaches: %v", failed, err)
			}
			if err := m.PM.CheckLeaks(empty); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFailedBootstrapLeavesNothingBehind fails one frame allocation at a time
// under the first client's bootstrap — in the segment's population, at the
// page-table root of the temporary attachment, in the page tables CreateStore
// faults in. Whichever it was, the next client finds no half-built instance
// in its way: it bootstraps the store and works, and closing it and
// destroying the instance returns every frame. (A bootstrap that failed after
// its SegAlloc used to leave the segment, and usually both VASes, behind: the
// next client took them for a finished store and failed to open it.)
func TestFailedBootstrapLeavesNothingBehind(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(1)
	m.SetFaults(reg)
	sys := kernel.New(m)
	proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Exit()
	th, err := proc.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	base := m.PM.AllocatedBytes()
	names := ShardNames(3)
	failed := 0
	for nth := uint64(1); ; nth++ {
		reg.Enable(fault.MemAlloc, fault.OnNth(nth))
		err := (&Client{th: th, names: names}).bootstrap(1 << 20)
		fired := reg.Fired(fault.MemAlloc) > 0
		reg.Disable(fault.MemAlloc)
		if err != nil {
			failed++
			if _, err := th.SegFind(names.Seg); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("allocation %d failed the bootstrap and the segment is still there (SegFind: %v)", nth, err)
			}
		}
		c, cerr := NewClientNamed(th, 1<<20, names)
		if cerr != nil {
			t.Fatalf("allocation %d failed the bootstrap (%v); the next client: %v", nth, err, cerr)
		}
		if err := c.Set("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := c.Get("k"); err != nil || !ok || string(v) != "v" {
			t.Fatalf("GET after the bootstrap that followed a failed one: %q %v %v", v, ok, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := DestroyNamed(th, names); err != nil {
			t.Fatal(err)
		}
		if err := m.PM.CheckLeaks(base); err != nil {
			t.Fatalf("allocation %d: after the instance's teardown: %v", nth, err)
		}
		if !fired {
			break // nth is past the bootstrap's last allocation
		}
	}
	if failed < 3 {
		t.Fatalf("only %d allocations failed a bootstrap; the sweep did not reach the segment, the attachment and the page tables", failed)
	}
}
