package spacejmp_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spacejmp"
	"spacejmp/internal/mspace"
	"spacejmp/internal/urpc"
)

// must fails the example on err and otherwise returns v; check is must for a
// call that returns only an error.
func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// thread starts a process with the given credentials and returns its thread.
func thread(sys *spacejmp.System, uid, gid uint32) *spacejmp.Thread {
	return must(must(sys.NewProcess(spacejmp.Creds{UID: uid, GID: gid})).NewThread())
}

// vasWith creates VAS name holding a new segment of size bytes at base.
func vasWith(th *spacejmp.Thread, name string, base spacejmp.VirtAddr, size uint64) (spacejmp.VASID, spacejmp.SegID) {
	vid := must(th.VASCreate(name, 0o666))
	sid := must(th.SegAlloc(name+".seg", base, size, spacejmp.PermRW))
	check(th.SegAttachVAS(vid, sid, spacejmp.PermRW))
	return vid, sid
}

// Example_quickstart is the paper's Figure 4: one process creates a VAS and
// attaches a segment to it; another, in the same group, finds the VAS,
// attaches, switches in and uses the memory (*t = 42). Back in its primary
// address space the segment is not mapped.
func Example_quickstart() {
	sys := spacejmp.NewDragonFly(spacejmp.DefaultMachine())
	va := spacejmp.GlobalBase

	producer := thread(sys, 1000, 1000)
	vid := must(producer.VASCreate("v0", 0o660))
	sid := must(producer.SegAlloc("s0", va, 64<<20, spacejmp.PermRW))
	check(producer.SegAttachVAS(vid, sid, spacejmp.PermRW))
	fmt.Printf("created vas %d with segment %d at %v\n", vid, sid, va)

	consumer := thread(sys, 1001, 1000) // vas_find, vas_attach, vas_switch
	check(consumer.VASSwitch(must(consumer.VASAttach(must(consumer.VASFind("v0"))))))
	check(consumer.Store64(va, 42))
	fmt.Printf("inside vas \"v0\": *%v = %d\n", va, must(consumer.Load64(va)))

	check(consumer.VASSwitch(spacejmp.PrimaryHandle))
	_, err := consumer.Load64(va)
	fmt.Printf("back in the primary space, %v is unmapped: %v\n", va, err != nil)
	fmt.Printf("the consumer spent %d simulated cycles, switches included\n", consumer.Core.Cycles())
	// Output:
	// created vas 1 with segment 4 at va:0x800000000000
	// inside vas "v0": *va:0x800000000000 = 42
	// back in the primary space, va:0x800000000000 is unmapped: true
	// the consumer spent 3350 simulated cycles, switches included
}

// Example_sharing is RedisJMP's pattern (§5.3): clients share one lockable
// segment by switching into a common VAS, with no server process. A
// read-only attachment takes the segment lock shared, the writable one
// exclusively, so readers run together and a writer runs alone: the writer's
// increments are never lost, and no reader sees the counter go back.
func Example_sharing() {
	sys := spacejmp.NewDragonFly(spacejmp.DefaultMachine())
	boot, counter := thread(sys, 1, 100), spacejmp.GlobalBase
	sid := must(boot.SegAlloc("shared.data", counter, 1<<20, spacejmp.PermRW))
	for name, perm := range map[string]spacejmp.Perm{"shared.read": spacejmp.PermRead, "shared.write": spacejmp.PermRW} {
		check(boot.SegAttachVAS(must(boot.VASCreate(name, 0o666)), sid, perm))
	}
	// client switches uid into VAS name n times and runs body inside it.
	client := func(uid uint32, name string, n int, body func(th *spacejmp.Thread)) {
		th := thread(sys, uid, 100)
		h := must(th.VASAttach(must(th.VASFind(name))))
		for i := 0; i < n; i++ {
			check(th.VASSwitch(h))
			body(th)
			check(th.VASSwitch(spacejmp.PrimaryHandle))
		}
	}

	var wg sync.WaitGroup
	var fell atomic.Bool
	wg.Add(4)
	go func() {
		defer wg.Done()
		client(2, "shared.write", 100, func(th *spacejmp.Thread) {
			check(th.Store64(counter, must(th.Load64(counter))+1))
		})
	}()
	for r := uint32(0); r < 3; r++ {
		go func() {
			defer wg.Done()
			last := uint64(0)
			client(10+r, "shared.read", 200, func(th *spacejmp.Thread) {
				if v := must(th.Load64(counter)); v < last {
					fell.Store(true)
				} else {
					last = v
				}
			})
		}()
	}
	wg.Wait()
	client(3, "shared.write", 1, func(th *spacejmp.Thread) {
		fmt.Printf("final counter = %d\n", must(th.Load64(counter)))
	})
	fmt.Printf("readers only ever saw the counter rise: %v\n", !fell.Load())
	fmt.Printf("total vas_switch operations: %d\n", sys.Switches())
	// Output:
	// final counter = 100
	// readers only ever saw the counter rise: true
	// total vas_switch operations: 1402
}

// Example_largemem is GUPS's answer to too few VA bits (§5.2): each data
// window is a segment at the same virtual address in a VAS of its own, so one
// pointer reaches every window and the switch chooses which. Tagged VASes
// keep their TLB entries across the switches (§4.4).
func Example_largemem() {
	const windows, size, base = 8, 8 << 20, spacejmp.GlobalBase
	sys := spacejmp.NewDragonFly(spacejmp.DefaultMachine())
	sys.EnableStats(0)
	th := thread(sys, 1, 1)
	handles := make([]spacejmp.Handle, windows)
	for w := range handles {
		vid, _ := vasWith(th, fmt.Sprintf("window.%d", w), base, size)
		check(th.VASCtl(vid, spacejmp.SetTag()))
		handles[w] = must(th.VASAttach(vid))
	}
	fmt.Printf("%d windows x %d MiB through one fixed range at %v\n", windows, size>>20, base)
	for w, h := range handles {
		check(th.VASSwitch(h))
		check(th.Store64(base, uint64(0xAA00+w)))
	}
	for w, h := range handles {
		check(th.VASSwitch(h))
		fmt.Printf("window %d: %#x\n", w, must(th.Load64(base)))
	}
	fmt.Printf("switches=%d, TLB misses=%d\n", sys.Switches(), sys.Stats().Cores[th.Core.ID].TLBMisses)
	// Output:
	// 8 windows x 8 MiB through one fixed range at va:0x800000000000
	// window 0: 0xaa00
	// window 1: 0xaa01
	// window 2: 0xaa02
	// window 3: 0xaa03
	// window 4: 0xaa04
	// window 5: 0xaa05
	// window 6: 0xaa06
	// window 7: 0xaa07
	// switches=16, TLB misses=16
}

// Example_persistence builds a binary search tree of raw pointers in an NVM
// segment, with the heap (an mspace) inside the segment too. The builder
// exits; later processes, before and after a checkpoint, a power cycle and a
// restore, search the tree through the same pointers: no serialization, no
// swizzling (§2.2, §5.4, §7).
func Example_persistence() {
	const base, size = spacejmp.GlobalBase, 16 << 20
	cfg := spacejmp.DefaultMachine()
	cfg.Mem.NVMSuperblock = 1 << 20
	machine := spacejmp.NewMachine(cfg)
	sys := spacejmp.NewDragonFlyOn(machine)
	sys.SetSegmentTier(spacejmp.TierNVM)

	// A node is three words: key, left, right. The heap's first allocation
	// is the root slot, at the same address whoever opens the heap. find walks
	// from it to key's slot, or to the empty slot where key would go.
	th := thread(sys, 1, 1)
	vid, _ := vasWith(th, "bst", base, size)
	h := must(th.VASAttach(vid))
	check(th.VASSwitch(h))
	heap := must(mspace.NewVASAllocator(th).InitHeap(h, base, size))
	root := must(heap.Alloc(8))
	find := func(th *spacejmp.Thread, key uint64) (slot spacejmp.VirtAddr, found bool, depth int) {
		for slot = root; ; depth++ {
			node := spacejmp.VirtAddr(must(th.Load64(slot)))
			if node == 0 {
				return slot, false, depth
			}
			switch k := must(th.Load64(node)); {
			case k == key:
				return slot, true, depth
			case key < k:
				slot = node + 8
			default:
				slot = node + 16
			}
		}
	}
	keys := []uint64{50, 30, 70, 20, 40, 60, 80, 65, 75}
	for _, k := range keys {
		slot, _, _ := find(th, k)
		node := must(heap.Alloc(24)) // fresh from a new heap: left and right read 0
		check(th.Store64(node, k))
		check(th.Store64(slot, uint64(node)))
	}
	check(th.VASSwitch(spacejmp.PrimaryHandle))
	th.Proc.Exit()
	fmt.Printf("builder inserted %d keys and exited\n", len(keys))

	search := func(sys *spacejmp.System) {
		th := thread(sys, 2, 1)
		check(th.VASSwitch(must(th.VASAttach(must(th.VASFind("bst"))))))
		must(mspace.Open(th, base)) // the heap's state is in the segment too
		for _, probe := range []uint64{65, 33, 80} {
			_, found, depth := find(th, probe)
			fmt.Printf("key %d found=%v (depth %d)\n", probe, found, depth)
		}
	}
	search(sys)
	check(sys.Checkpoint())
	machine.PM.PowerCycle()
	rebooted := spacejmp.NewDragonFlyOn(machine)
	check(rebooted.Restore())
	fmt.Println("after a machine reboot:")
	search(rebooted)
	// Output:
	// builder inserted 9 keys and exited
	// key 65 found=true (depth 3)
	// key 33 found=false (depth 3)
	// key 80 found=true (depth 2)
	// after a machine reboot:
	// key 65 found=true (depth 3)
	// key 33 found=false (depth 3)
	// key 80 found=true (depth 2)
}

// Example_sandbox is §7's sandbox: a host holds a secret in one segment and
// runs an untrusted plugin in a VAS that maps only the plugin's arena. Inside
// the sandbox the secret's address is simply not mapped.
func Example_sandbox() {
	sys := spacejmp.NewDragonFly(spacejmp.DefaultMachine())
	th := thread(sys, 1, 1)
	secret, arena := spacejmp.GlobalBase, spacejmp.GlobalBase+1<<39 // a top-level page-table entry apart
	hostVAS, _ := vasWith(th, "host", secret, 1<<20)
	sandboxVAS, arenaSeg := vasWith(th, "sandbox", arena, 1<<20)
	check(th.SegAttachVAS(hostVAS, arenaSeg, spacejmp.PermRW))
	host, sandbox := must(th.VASAttach(hostVAS)), must(th.VASAttach(sandboxVAS))

	check(th.VASSwitch(host))
	check(th.Store64(secret, 0x5EC12E7))
	check(th.Store64(arena, 21)) // the plugin's input

	// The plugin does its work, then probes for the secret.
	check(th.VASSwitch(sandbox))
	check(th.Store64(arena+8, 2*must(th.Load64(arena))))
	_, err := th.Load64(secret)
	fmt.Printf("plugin: probing %v -> %v\n", secret, err)

	check(th.VASSwitch(host))
	fmt.Printf("host: plugin computed %d; secret is still %#x\n", must(th.Load64(arena+8)), must(th.Load64(secret)))
	// Output:
	// plugin: probing va:0x800000000000 -> vm: segmentation fault: read va:0x800000000000
	// host: plugin computed 42; secret is still 0x5ec12e7
}

// Example_faultinjection rehearses three recoveries with a deterministic
// fault registry attached to the machine:
//  1. a process crashes holding a segment's write lock: the reaper releases
//     the lock, wakes the blocked switcher and returns every frame;
//  2. power fails mid-checkpoint and tears an NVM write: Restore boots the
//     previous intact generation;
//  3. an RPC channel drops messages: Endpoint.Call retries until the reply
//     lands, running the handler once per call.
func Example_faultinjection() {
	const base = spacejmp.GlobalBase
	cfg := spacejmp.DefaultMachine()
	cfg.Mem.NVMSuperblock = 1 << 20
	machine := spacejmp.NewMachine(cfg)
	faults := spacejmp.NewFaults(42)
	machine.SetFaults(faults)
	sys := spacejmp.NewDragonFlyOn(machine)
	sys.SetSegmentTier(spacejmp.TierNVM)

	fmt.Println("1. a crash while holding a write lock")
	vid, sid := vasWith(thread(sys, 1, 1), "shared", base, 1<<20)
	seg := must(sys.SegByID(sid))
	// The waiter touches the segment once, so its page tables predate the
	// leak baseline.
	waiter := thread(sys, 2, 1)
	wh := must(waiter.VASAttach(vid))
	check(waiter.VASSwitch(wh))
	must(waiter.Load64(base))
	check(waiter.VASSwitch(spacejmp.PrimaryHandle))
	baseline := machine.PM.AllocatedBytes()

	victim := thread(sys, 3, 1)
	check(victim.VASSwitch(must(victim.VASAttach(vid)))) // takes the write lock
	check(victim.Store64(base, 0xC0FFEE))
	done := make(chan error)
	go func() { done <- waiter.VASSwitch(wh) }()
	for seg.LockContentions() < 1 {
		time.Sleep(time.Millisecond)
	}
	victim.Proc.Crash()
	check(<-done)
	fmt.Printf("waiter got the lock and read %#x\n", must(waiter.Load64(base)))
	check(waiter.VASSwitch(spacejmp.PrimaryHandle))
	fmt.Printf("every frame of the victim's returned: %v\n", machine.PM.CheckLeaks(baseline) == nil)
	_, err := victim.VASFind("shared")
	fmt.Printf("the victim's next syscall fails with ErrProcessDead: %v\n", errors.Is(err, spacejmp.ErrProcessDead))

	fmt.Println("2. power loss tears a checkpoint write")
	check(sys.Checkpoint())
	must(thread(sys, 4, 1).VASCreate("doomed", 0o600))
	faults.Enable(spacejmp.FaultMemWriteTorn, spacejmp.FaultOnNth(2)) // the commit header
	fmt.Printf("checkpoint B: %v\n", sys.Checkpoint())
	faults.Disable(spacejmp.FaultMemWriteTorn)
	machine.PM.PowerCycle()
	rebooted := spacejmp.NewDragonFlyOn(machine)
	check(rebooted.Restore())
	th := thread(rebooted, 5, 1)
	must(th.VASFind("shared"))
	_, err = th.VASFind("doomed")
	fmt.Printf("after reboot: checkpoint A restored, B invisible: %v\n", errors.Is(err, spacejmp.ErrNotFound))

	fmt.Println("3. RPC over a lossy channel")
	calls := 0
	ep := urpc.Connect(machine, 0, 1, 8, func(req []byte) []byte {
		calls++ // not idempotent: a second run would show here
		return []byte{req[0] + 1}
	})
	faults.Enable(spacejmp.FaultURPCDrop, spacejmp.FaultProbability(0.3))
	for i := byte(0); i < 20; i++ {
		if resp := must(ep.Call([]byte{i})); resp[0] != i+1 {
			panic(fmt.Sprintf("call %d answered %d", i, resp[0]))
		}
	}
	req, resp := ep.ChannelStats()
	fmt.Printf("20 calls, handler ran %d times; %d drops, %d retries\n", calls, req.Drops+resp.Drops, ep.Retries())
	faults.Enable(spacejmp.FaultURPCDrop, spacejmp.FaultAlways())
	_, err = ep.Call([]byte{0})
	fmt.Printf("dead channel: %v (ErrTimeout: %v)\n", err, errors.Is(err, urpc.ErrTimeout))
	// Output:
	// 1. a crash while holding a write lock
	// waiter got the lock and read 0xc0ffee
	// every frame of the victim's returned: true
	// the victim's next syscall fails with ErrProcessDead: true
	// 2. power loss tears a checkpoint write
	// checkpoint B: spacejmp: committing checkpoint header: mem: torn write (simulated power loss): [pa:0x80080000,+20)
	// after reboot: checkpoint A restored, B invisible: true
	// 3. RPC over a lossy channel
	// 20 calls, handler ran 20 times; 11 drops, 11 retries
	// dead channel: urpc: call timed out: seq 21 after 8 retries (ErrTimeout: true)
}
