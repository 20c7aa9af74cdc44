package chaos

import (
	"bytes"
	"testing"
	"time"

	"spacejmp/internal/fault"
	"spacejmp/internal/server"
)

// TestScenarioLibrary runs every shipped scenario end to end — cluster,
// load, schedule, admin delta stream, invariants — and requires each to
// pass. This is the acceptance gate: a library scenario that stops holding
// its invariants is a regression in the stack, not in the scenario.
func TestScenarioLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario runs take seconds each")
	}
	for _, spec := range Library() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rep, err := Run(spec, Options{Admin: true})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !rep.Passed {
				var buf bytes.Buffer
				rep.WriteText(&buf)
				t.Fatalf("invariants failed:\n%s", buf.String())
			}
			if len(spec.Steps) > 0 && rep.DeltasObserved < len(spec.Steps) {
				t.Fatalf("streamed %d deltas, want at least one per step (%d)",
					rep.DeltasObserved, len(spec.Steps))
			}
		})
	}
}

// determinismSpec is built for reproducibility: a non-replicated cluster
// (no free-running probe loop), whole-run steps only, and points whose hit
// counts are functions of the fixed command stream — so the per-rule seeded
// RNG streams make the fired totals a pure function of (seed, spec).
func determinismSpec() *Spec {
	return &Spec{
		Name:        "determinism-probe",
		Description: "fixed seed, deterministic-hit-count points; totals must replay exactly",
		Seed:        7,
		Machine:     "small",
		Cluster:     ClusterSpec{Nodes: 3, Workers: 2, Locals: 2},
		Load: LoadSpec{LoadConfig: server.LoadConfig{
			Conns: 2, Pipeline: 2, Requests: 128,
			SetPercent: 30, Keys: 64,
		}},
		Steps: []Step{
			{Point: "urpc.delay", Policy: PolicySpec{Kind: "probability", P: 0.3}},
			{Point: "server.conn.stall", Policy: PolicySpec{Kind: "probability", P: 0.1}},
		},
		Invariants: Invariants{Counters: map[string]Bound{
			"cluster.local":  atLeast(1),
			"cluster.remote": atLeast(1),
		}, StepsMustFire: true},
	}
}

// TestScenarioDeterminism runs the same seeded scenario twice and requires
// identical per-step hit/fired totals and identical invariant outcomes —
// the property that turns a chaos run into a reproducible regression test.
func TestScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full scenario runs")
	}
	run := func() *Report {
		t.Helper()
		rep, err := Run(determinismSpec(), Options{})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if !rep.Passed {
			var buf bytes.Buffer
			rep.WriteText(&buf)
			t.Fatalf("invariants failed:\n%s", buf.String())
		}
		// Busy replies would perturb how many commands reach the urpc path;
		// the load here is sized to stay under the admission limit.
		if rep.Load.Busy != 0 {
			t.Fatalf("run saw %d busy replies; determinism needs an uncontended run", rep.Load.Busy)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		sa, sb := a.Steps[i], b.Steps[i]
		if sa.Hits != sb.Hits || sa.Fired != sb.Fired {
			t.Errorf("step %d (%s): run A %d/%d fired, run B %d/%d fired",
				i, sa.Point, sa.Fired, sa.Hits, sb.Fired, sb.Hits)
		}
		if sa.Fired == 0 {
			t.Errorf("step %d (%s): never fired; the comparison is vacuous", i, sa.Point)
		}
	}
	if len(a.Checks) != len(b.Checks) {
		t.Fatalf("check counts differ: %d vs %d", len(a.Checks), len(b.Checks))
	}
	for i := range a.Checks {
		if a.Checks[i].Name != b.Checks[i].Name || a.Checks[i].OK != b.Checks[i].OK {
			t.Errorf("check %q: run A ok=%v, run B ok=%v",
				a.Checks[i].Name, a.Checks[i].OK, b.Checks[i].OK)
		}
	}
	if a.Load.Commands != b.Load.Commands || a.Load.Mismatches != b.Load.Mismatches {
		t.Errorf("load totals differ: %d/%d commands, %d/%d mismatches",
			a.Load.Commands, b.Load.Commands, a.Load.Mismatches, b.Load.Mismatches)
	}
}

// TestScheduleTiming pins the schedule contract: zero-offset steps are
// armed before NewSchedule returns — before there is anything to start —
// windowed steps capture their counters at disarm, and Horizon reports the
// last event.
func TestScheduleTiming(t *testing.T) {
	steps := []Step{
		{Point: "urpc.delay", Policy: PolicySpec{Kind: "always"}},
		{Point: "urpc.drop", Policy: PolicySpec{Kind: "always"}, After: dur(30 * time.Millisecond), For: dur(40 * time.Millisecond)},
	}
	if got, want := Horizon(steps), 70*time.Millisecond; got != want {
		t.Fatalf("Horizon = %v, want %v", got, want)
	}

	reg := fault.New(1)
	run := NewSchedule(steps, reg, t.Logf)
	// Contract: the zero-offset rule is live before NewSchedule returns.
	if !reg.Fire("urpc.delay") {
		t.Fatal("zero-offset step not armed synchronously")
	}
	run.Start(nil) // no step operates on a router
	// Armed once: a second EnableAt would have reset the rule's counters
	// (and an every-nth rule's parity) mid-run.
	if hits, _ := reg.StatusAt("urpc.delay", fault.TargetAny); hits != 1 {
		t.Fatalf("zero-offset rule has %d hits after Start, want the 1 from before it: Start re-armed it", hits)
	}
	if reg.Fire("urpc.drop") {
		t.Fatal("windowed step armed before its offset")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !reg.Fire("urpc.drop") {
		if time.Now().After(deadline) {
			t.Fatal("windowed step never armed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := run.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	if reg.Fire("urpc.drop") {
		t.Fatal("windowed step still armed after its window")
	}
	if run.reports[1].Fired == 0 {
		t.Fatalf("windowed step report lost its counters: %+v", run.reports[1])
	}
	reports := run.Stop()
	if reports[0].Fired == 0 {
		t.Fatalf("whole-run step report not finalized: %+v", reports[0])
	}
}
