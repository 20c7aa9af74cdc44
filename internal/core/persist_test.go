package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/mem"
	"spacejmp/internal/tlb"
)

func persistentMachine() *hw.Machine {
	return hw.NewMachine(hw.MachineConfig{
		Name: "persist-test", Sockets: 1, CoresPerSocket: 2, GHz: 2.0,
		Mem: mem.Config{DRAMSize: 256 << 20, NVMSize: 128 << 20, NVMSuperblock: 1 << 20},
		TLB: tlb.Config{Sets: 16, Ways: 4}, Cost: hw.DefaultCost,
	})
}

func TestCheckpointRestoreAcrossPowerCycle(t *testing.T) {
	m := persistentMachine()
	sys := NewSystem(m, testPersonality{})
	sys.SetSegmentTier(mem.TierNVM)
	_, th := spawn(t, sys)

	vid, err := th.VASCreate("durable.vas", 0o660)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := th.SegAlloc("durable.seg", segBase(0), 1<<20, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := th.VASCtl(vid, SetTag()); err != nil {
		t.Fatal(err)
	}
	h, _ := th.VASAttach(vid)
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(segBase(0)+64, 0xD00DFEED); err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}

	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Reboot: DRAM dies, a fresh OS instance boots on the same machine.
	m.PM.PowerCycle()
	sys2 := NewSystem(m, testPersonality{})
	if err := sys2.Restore(); err != nil {
		t.Fatal(err)
	}

	p2, err := sys2.NewProcess(Creds{UID: 1000, GID: 1000})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := p2.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	found, err := t2.VASFind("durable.vas")
	if err != nil {
		t.Fatalf("restored VAS not findable: %v", err)
	}
	if found != vid {
		t.Errorf("restored VAS id = %d, want %d", found, vid)
	}
	h2, err := t2.VASAttach(found)
	if err != nil {
		t.Fatal(err)
	}
	if err := t2.VASSwitch(h2); err != nil {
		t.Fatal(err)
	}
	v, err := t2.Load64(segBase(0) + 64)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xD00DFEED {
		t.Errorf("data after reboot = %#x", v)
	}
	// The restored VAS kept its tag and the segment its properties.
	rv, _ := sys2.vas(found)
	if rv.Tag() == arch.ASIDFlush {
		t.Error("TLB tag lost across reboot")
	}
	rs, err := sys2.SegByID(sid)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Lockable() || rs.Perm() != arch.PermRW || rs.Base != segBase(0) {
		t.Errorf("segment properties lost: %+v", rs)
	}
	// And the restored system keeps allocating fresh, non-colliding IDs.
	nvid, err := t2.VASCreate("new.vas", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if nvid <= vid {
		t.Errorf("post-restore VAS id %d collides with restored id space", nvid)
	}
}

func TestDRAMSegmentsNotPersisted(t *testing.T) {
	m := persistentMachine()
	sys := NewSystem(m, testPersonality{})
	_, th := spawn(t, sys)
	vid, _ := th.VASCreate("mixed.vas", 0o660)
	// DRAM segment (default tier).
	dram, err := th.SegAlloc("volatile.seg", segBase(0), 1<<20, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SegAttachVAS(vid, dram, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	// NVM segment.
	sys.SetSegmentTier(mem.TierNVM)
	nvm, err := th.SegAlloc("durable.seg", segBase(1), 1<<20, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SegAttachVAS(vid, nvm, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.PM.PowerCycle()
	sys2 := NewSystem(m, testPersonality{})
	if err := sys2.Restore(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.SegByID(nvm); err != nil {
		t.Errorf("NVM segment not restored: %v", err)
	}
	if _, err := sys2.SegByID(dram); err == nil {
		t.Error("DRAM segment restored; its content died with the power")
	}
	v, err := sys2.vas(vid)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Mappings()) != 1 || v.Mappings()[0].Seg.ID != nvm {
		t.Errorf("restored VAS mappings = %+v", v.Mappings())
	}
}

func TestRestoreGuards(t *testing.T) {
	m := persistentMachine()
	sys := NewSystem(m, testPersonality{})
	// No checkpoint written yet: the typed error lets callers reformat.
	if err := sys.Restore(); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("restore without checkpoint: %v", err)
	}
	// A machine without a superblock cannot checkpoint.
	plain := NewSystem(hw.NewMachine(hw.SmallTest()), testPersonality{})
	if err := plain.Checkpoint(); err == nil {
		t.Error("checkpoint without superblock accepted")
	}
	// Restore into a non-empty system is refused.
	_, th := spawn(t, sys)
	if _, err := th.VASCreate("x", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Restore(); err == nil {
		t.Error("restore into live system accepted")
	}
}

func TestCheckpointIsIdempotentAndUpdatable(t *testing.T) {
	m := persistentMachine()
	sys := NewSystem(m, testPersonality{})
	sys.SetSegmentTier(mem.TierNVM)
	_, th := spawn(t, sys)
	if _, err := th.VASCreate("v1", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := th.VASCreate("v2", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err != nil { // overwrite with newer image
		t.Fatal(err)
	}
	m.PM.PowerCycle()
	sys2 := NewSystem(m, testPersonality{})
	if err := sys2.Restore(); err != nil {
		t.Fatal(err)
	}
	_, th2 := spawn(t, sys2)
	if _, err := th2.VASFind("v2"); err != nil {
		t.Errorf("second checkpoint not effective: %v", err)
	}
}

// checkpointWithVAS creates a system on m with one NVM-backed VAS named
// name and checkpoints it.
func checkpointWithVAS(t *testing.T, m *hw.Machine, name string) *System {
	t.Helper()
	sys := NewSystem(m, testPersonality{})
	sys.SetSegmentTier(mem.TierNVM)
	_, th := spawn(t, sys)
	if _, err := th.VASCreate(name, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// tornCheckpoint arms the torn-NVM-write point on the nth WriteAt of the
// next Checkpoint (1 = payload, 2 = commit header), runs a second
// checkpoint containing VAS "gen2", and verifies that after the implied
// power loss Restore boots the previous generation.
func tornCheckpoint(t *testing.T, nth uint64) {
	t.Helper()
	m := persistentMachine()
	reg := fault.New(7)
	m.SetFaults(reg)
	sys := checkpointWithVAS(t, m, "gen1")

	_, th := spawn(t, sys)
	if _, err := th.VASCreate("gen2", 0o600); err != nil {
		t.Fatal(err)
	}
	reg.Enable(fault.MemWriteTorn, fault.OnNth(nth))
	err := sys.Checkpoint()
	reg.Disable(fault.MemWriteTorn)
	if !errors.Is(err, mem.ErrTornWrite) {
		t.Fatalf("torn checkpoint returned %v, want ErrTornWrite", err)
	}

	// Power cut at the torn write: DRAM gone, NVM holds a half-written
	// generation plus the intact previous one.
	m.PM.PowerCycle()
	sys2 := NewSystem(m, testPersonality{})
	if err := sys2.Restore(); err != nil {
		t.Fatalf("restore after torn write: %v", err)
	}
	_, th2 := spawn(t, sys2)
	if _, err := th2.VASFind("gen1"); err != nil {
		t.Errorf("previous generation lost: %v", err)
	}
	if _, err := th2.VASFind("gen2"); !errors.Is(err, ErrNotFound) {
		t.Errorf("half-committed generation visible: %v", err)
	}
}

func TestTornPayloadWriteKeepsPreviousGeneration(t *testing.T) { tornCheckpoint(t, 1) }
func TestTornHeaderWriteKeepsPreviousGeneration(t *testing.T)  { tornCheckpoint(t, 2) }

func TestCheckpointAlternatesSlotsUnderRepeatedTearing(t *testing.T) {
	// Generations ping-pong between the two slots: tearing checkpoint N
	// never threatens checkpoint N-1, round after round.
	m := persistentMachine()
	reg := fault.New(3)
	m.SetFaults(reg)
	sys := checkpointWithVAS(t, m, "round0")
	_, th := spawn(t, sys)
	for round := 1; round <= 4; round++ {
		name := fmt.Sprintf("round%d", round)
		if _, err := th.VASCreate(name, 0o600); err != nil {
			t.Fatal(err)
		}
		reg.Enable(fault.MemWriteTorn, fault.OnNth(uint64(1+round%2)))
		if err := sys.Checkpoint(); !errors.Is(err, mem.ErrTornWrite) {
			t.Fatalf("round %d: %v", round, err)
		}
		reg.Disable(fault.MemWriteTorn)
		if err := sys.Checkpoint(); err != nil { // retry succeeds
			t.Fatalf("round %d retry: %v", round, err)
		}
	}
	m.PM.PowerCycle()
	sys2 := NewSystem(m, testPersonality{})
	if err := sys2.Restore(); err != nil {
		t.Fatal(err)
	}
	_, th2 := spawn(t, sys2)
	if _, err := th2.VASFind("round4"); err != nil {
		t.Errorf("newest retried generation not restored: %v", err)
	}
}

func TestRestoreCorruptCheckpoint(t *testing.T) {
	m := persistentMachine()
	sys := checkpointWithVAS(t, m, "v")
	_ = sys
	// Scribble over the committed payload: the header still carries the
	// magic, so this is damage, not fresh NVM.
	sbBase, sbSize := m.PM.Superblock()
	for i := 0; i < 2; i++ {
		slotBase := sbBase + arch.PhysAddr(uint64(i)*(sbSize/2))
		if err := m.PM.WriteAt(slotBase+40, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	m.PM.PowerCycle()
	sys2 := NewSystem(m, testPersonality{})
	if err := sys2.Restore(); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("restore of scribbled checkpoint: %v", err)
	}
}

func TestCheckpointSegmentRoundTrip(t *testing.T) {
	m := persistentMachine()
	sys := NewSystem(m, testPersonality{})
	sys.SetSegmentTier(mem.TierNVM)
	_, th := spawn(t, sys)

	vid, err := th.VASCreate("img.vas", 0o660)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := th.SegAlloc("img.seg", segBase(0), 1<<20, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SegAttachVAS(vid, sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	h, _ := th.VASAttach(vid)
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}
	// Touch two distinct pages so content survives round trip.
	if err := th.Store64(segBase(0)+8, 0xAABBCCDD); err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(segBase(0)+3*arch.PageSize+16, 0x11223344); err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(PrimaryHandle); err != nil {
		t.Fatal(err)
	}

	if _, err := sys.CheckpointSegment("img.seg"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("before any checkpoint: err = %v, want ErrNoCheckpoint", err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	img, err := sys.CheckpointSegment("img.seg")
	if err != nil {
		t.Fatal(err)
	}
	if img.Name != "img.seg" || img.Size != 1<<20 || !img.Lockable || img.Seq == 0 {
		t.Fatalf("image metadata = %+v", img)
	}
	if want := int((1 << 20) / arch.PageSize); len(img.Index) != want {
		t.Fatalf("image holds %d pages, want all %d backing pages", len(img.Index), want)
	}
	word := func(page []byte, off int) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(page[off+i]) << (8 * i)
		}
		return v
	}
	if p := img.Page(0); img.Index[0] != 0 || word(p, 8) != 0xAABBCCDD {
		t.Errorf("page 0 content wrong")
	}
	if p := img.Page(3); img.Index[3] != 3 || word(p, 16) != 0x11223344 {
		t.Errorf("page 3 content wrong")
	}

	if _, err := sys.CheckpointSegment("no.such.seg"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown segment: err = %v, want ErrNotFound", err)
	}
}

func TestCheckpointSegmentCorrupt(t *testing.T) {
	// Every checkpoint tears its header write (a custom policy firing on the
	// second WriteAt of each attempt), so no generation ever validates:
	// magic-but-invalid headers must surface as ErrCorruptCheckpoint, never
	// as a silent empty image.
	m := persistentMachine()
	reg := fault.New(3)
	m.SetFaults(reg)
	sys := NewSystem(m, testPersonality{})
	sys.SetSegmentTier(mem.TierNVM)
	_, th := spawn(t, sys)
	if _, err := th.VASCreate("corrupt.vas", 0o600); err != nil {
		t.Fatal(err)
	}
	// Hit 1 of each checkpoint is the payload write, hit 2 the commit
	// header: tearing every second write corrupts every header ever
	// committed, so no slot validates.
	reg.Enable(fault.MemWriteTorn, func(hit uint64, _ *rand.Rand) bool { return hit%2 == 0 })
	if err := sys.Checkpoint(); err == nil {
		t.Fatal("torn checkpoint reported success")
	}
	if _, err := sys.CheckpointSegment("corrupt.seg"); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
}
