// Largemem: address more memory than one virtual address range by placing
// data windows in separate address spaces and switching between them — the
// GUPS pattern (§5.2, "SpaceJMP solves the problem of insufficient VA bits
// by allowing a process to place data in multiple address spaces").
//
// Every window occupies the SAME virtual address in its own VAS, so the
// program's pointers into the current window are identical regardless of
// which window is active.
package main

import (
	"fmt"
	"log"

	"spacejmp"
)

const (
	windows    = 8
	windowSize = 8 << 20 // per-window bytes; scale at will
	windowBase = spacejmp.GlobalBase
)

func main() {
	sys := spacejmp.NewDragonFly(spacejmp.DefaultMachine())
	sys.EnableStats(0) // counts the MMU events read at the end
	proc, err := sys.NewProcess(spacejmp.Creds{UID: 1, GID: 1})
	if err != nil {
		log.Fatal(err)
	}
	th, err := proc.NewThread()
	if err != nil {
		log.Fatal(err)
	}

	// One VAS per window, each holding a window segment at windowBase.
	handles := make([]spacejmp.Handle, windows)
	for w := 0; w < windows; w++ {
		vid, err := th.VASCreate(fmt.Sprintf("window.%d", w), 0o600)
		if err != nil {
			log.Fatal(err)
		}
		sid, err := th.SegAlloc(fmt.Sprintf("window.seg.%d", w), windowBase, windowSize, spacejmp.PermRW)
		if err != nil {
			log.Fatal(err)
		}
		if err := th.SegAttachVAS(vid, sid, spacejmp.PermRW); err != nil {
			log.Fatal(err)
		}
		// Tag the VAS so switching retains TLB entries (§4.4).
		if err := th.VASCtl(vid, spacejmp.SetTag()); err != nil {
			log.Fatal(err)
		}
		if handles[w], err = th.VASAttach(vid); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%d windows x %d MiB = %d MiB addressable through one fixed range\n",
		windows, windowSize>>20, windows*windowSize>>20)

	// Write a signature at the same VA in every window...
	for w, h := range handles {
		if err := th.VASSwitch(h); err != nil {
			log.Fatal(err)
		}
		if err := th.Store64(windowBase, uint64(0xAA00+w)); err != nil {
			log.Fatal(err)
		}
	}
	// ...and read them back: same pointer, different data per VAS.
	for w, h := range handles {
		if err := th.VASSwitch(h); err != nil {
			log.Fatal(err)
		}
		v, err := th.Load64(windowBase)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("window %d: *%v = %#x\n", w, windowBase, v)
	}
	fmt.Printf("switches=%d, TLB misses=%d (tags keep translations across switches)\n",
		sys.Switches(), sys.Stats().Cores[th.Core.ID].TLBMisses)
}
