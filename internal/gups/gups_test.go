package gups

import (
	"errors"
	"testing"

	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/mem"
	"spacejmp/internal/tlb"
	"spacejmp/internal/urpc"
)

// gupsMachine has enough cores for MP with several windows and enough
// memory for the windows.
func gupsMachine() *hw.Machine {
	cfg := hw.MachineConfig{
		Name: "gups-test", Sockets: 2, CoresPerSocket: 6, GHz: 2.3,
		// A small TLB keeps the paper's regime (window size well beyond
		// TLB reach) at test-friendly window sizes.
		Mem: mem.Config{DRAMSize: 2 << 30}, TLB: tlb.Config{Sets: 16, Ways: 4}, Cost: hw.DefaultCost,
	}
	return hw.NewMachine(cfg)
}

func smallCfg(windows int) Config {
	return Config{Windows: windows, WindowSize: 1 << 20, UpdateSet: 16, Visits: 64, Seed: 7}
}

func TestAllDesignsApplySameUpdateCount(t *testing.T) {
	cfg := smallCfg(4)
	m := gupsMachine()
	sys := kernel.New(m)
	rj, err := RunSpaceJMP(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := RunMAP(gupsMachine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := RunMP(gupsMachine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(cfg.Visits * cfg.UpdateSet)
	for _, r := range []Result{rj, rm, rp} {
		if r.Updates != want {
			t.Errorf("%s applied %d updates, want %d", r.Design, r.Updates, want)
		}
		if r.Cycles == 0 || r.MUPS <= 0 {
			t.Errorf("%s reported no work: %+v", r.Design, r)
		}
	}
}

func TestMAPCollapsesBeyondOneWindow(t *testing.T) {
	// Figure 8's headline: with one window all designs are fine; with
	// several, MAP pays page-table construction per switch and collapses.
	one, err := RunMAP(gupsMachine(), smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunMAP(gupsMachine(), smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if four.MUPS*4 > one.MUPS {
		t.Errorf("MAP with 4 windows (%.2f MUPS) not dramatically slower than 1 window (%.2f MUPS)",
			four.MUPS, one.MUPS)
	}
}

func TestSpaceJMPBeatsMAPOnManyWindows(t *testing.T) {
	cfg := smallCfg(4)
	sj, err := RunSpaceJMP(kernel.New(gupsMachine()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := RunMAP(gupsMachine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sj.MUPS <= mp.MUPS {
		t.Errorf("SpaceJMP (%.2f MUPS) did not beat MAP (%.2f MUPS) at 4 windows", sj.MUPS, mp.MUPS)
	}
}

func TestSpaceJMPAtLeastMatchesMP(t *testing.T) {
	// "The SpaceJMP implementation performs at least as well as the
	// multi-process implementation" (§5.2).
	cfg := smallCfg(4)
	sj, err := RunSpaceJMP(kernel.New(gupsMachine()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := RunMP(gupsMachine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sj.MUPS < mp.MUPS*0.95 {
		t.Errorf("SpaceJMP (%.2f MUPS) below MP (%.2f MUPS)", sj.MUPS, mp.MUPS)
	}
}

func TestTagsReduceTLBMisses(t *testing.T) {
	cfg := smallCfg(4)
	untagged, err := RunSpaceJMP(kernel.New(gupsMachine()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.UseTags = true
	tagged, err := RunSpaceJMP(kernel.New(gupsMachine()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tagged.TLBMisses >= untagged.TLBMisses {
		t.Errorf("tags did not reduce misses: %d vs %d", tagged.TLBMisses, untagged.TLBMisses)
	}
}

func TestSwitchCountTracksWindowChanges(t *testing.T) {
	cfg := smallCfg(4)
	r, err := RunSpaceJMP(kernel.New(gupsMachine()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One switch per window *change*: at 4 windows roughly 3/4 of visits
	// change windows; never more than one per visit.
	if r.Switches > uint64(cfg.Visits) || r.Switches < uint64(cfg.Visits)/2 {
		t.Errorf("switches = %d for %d visits over 4 windows", r.Switches, cfg.Visits)
	}
	one, err := RunSpaceJMP(kernel.New(gupsMachine()), smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if one.Switches > 1 {
		t.Errorf("1-window run performed %d switches, want at most the initial one", one.Switches)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := smallCfg(2)
	a, err := RunSpaceJMP(kernel.New(gupsMachine()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSpaceJMP(kernel.New(gupsMachine()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.TLBMisses != b.TLBMisses {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestRepeatedRunsOnOneSystem(t *testing.T) {
	// Teardown must leave the system reusable under the same names.
	sys := kernel.New(gupsMachine())
	for i := 0; i < 2; i++ {
		if _, err := RunSpaceJMP(sys, smallCfg(2)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestCountsPinned pins the TLB misses and faults every design reports over its
// measured section. Figure 8 prints MUPS only, and Figure 9 and the ablations
// SpaceJMP's misses only, so no golden holds the rest. MAP and MP ignore the
// tag setting; their rows with it on must read the same.
func TestCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		design         string
		windows        int
		tags           bool
		misses, faults uint64
	}{
		{"SpaceJMP", 1, false, 805, 0},
		{"SpaceJMP", 1, true, 795, 0},
		{"SpaceJMP", 4, false, 979, 0},
		{"SpaceJMP", 4, true, 940, 0},
		{"MAP", 1, false, 805, 0},
		{"MAP", 1, true, 805, 0},
		{"MAP", 4, false, 805, 0},
		{"MAP", 4, true, 805, 0},
		{"MP", 1, false, 795, 0},
		{"MP", 1, true, 795, 0},
		{"MP", 4, false, 766, 0},
		{"MP", 4, true, 766, 0},
	} {
		cfg := smallCfg(tc.windows)
		cfg.UseTags = tc.tags
		var r Result
		var err error
		switch tc.design {
		case "SpaceJMP":
			r, err = RunSpaceJMP(kernel.New(gupsMachine()), cfg)
		case "MAP":
			r, err = RunMAP(gupsMachine(), cfg)
		case "MP":
			r, err = RunMP(gupsMachine(), cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.TLBMisses != tc.misses || r.Faults != tc.faults {
			t.Errorf("%s, %d windows, tags %v: %d TLB misses, %d faults; want %d, %d",
				tc.design, tc.windows, tc.tags, r.TLBMisses, r.Faults, tc.misses, tc.faults)
		}
	}
}

func TestMPNeedsEnoughCores(t *testing.T) {
	if _, err := RunMP(gupsMachine(), smallCfg(100)); err == nil {
		t.Error("MP with more windows than cores accepted")
	}
}

func TestMPSurvivesMessageDrops(t *testing.T) {
	// The MP design on a lossy transport: the urpc retry/dedup protocol
	// absorbs dropped requests and responses, so the run completes with the
	// full update count — just slower than the loss-free run.
	cfg := smallCfg(3)
	clean, err := RunMP(gupsMachine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := gupsMachine()
	reg := fault.New(cfg.Seed)
	m.SetFaults(reg)
	reg.Enable(fault.URPCDrop, fault.Probability(0.2))
	lossy, err := RunMP(m, cfg)
	if err != nil {
		t.Fatalf("MP under 20%% drops: %v", err)
	}
	if lossy.Updates != clean.Updates {
		t.Errorf("lossy run applied %d updates, clean %d", lossy.Updates, clean.Updates)
	}
	if lossy.Cycles <= clean.Cycles {
		t.Errorf("lossy run (%d cycles) not slower than clean (%d): retries unbilled?",
			lossy.Cycles, clean.Cycles)
	}
}

func TestMPFailsCleanlyWhenChannelDead(t *testing.T) {
	cfg := smallCfg(2)
	m := gupsMachine()
	reg := fault.New(1)
	m.SetFaults(reg)
	reg.Enable(fault.URPCDrop, fault.Always())
	if _, err := RunMP(m, cfg); !errors.Is(err, urpc.ErrTimeout) {
		t.Errorf("MP on dead channel: %v, want urpc.ErrTimeout", err)
	}
}
