package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"spacejmp/internal/fault"
	"spacejmp/internal/server"
)

// TestBootArmsBeforeFirstShip is the boot order, pinned where getting it
// wrong was found: a cluster's monitor ships every replicated node once as it
// starts, so a whole-run rule armed after cluster.New races that ship — the
// standby is warmed by a checkpoint the scenario says can never validate, and
// is later promoted. Here every NVM write tears and nothing but the initial
// ship ever runs (hour-long tickers, no load): that one ship must have failed.
func TestBootArmsBeforeFirstShip(t *testing.T) {
	spec := &Spec{
		Name: "armed-before-first-ship", Seed: 1, Machine: "small",
		Cluster: ClusterSpec{
			Nodes: 2, Workers: 1, Locals: 1, Replicate: true, SegSize: 1 << 20,
			ShipInterval: dur(time.Hour), ProbeInterval: dur(time.Hour),
		},
		Steps: []Step{{Point: fault.MemWriteTorn, Policy: PolicySpec{Kind: "always"}}},
	}
	st, err := Boot(spec, Front{Addr: "127.0.0.1:0", TraceCap: 1024})
	if err != nil {
		t.Fatal(err)
	}
	repl := func() (ships, failures uint64) {
		r := st.Machine.Observer().Snapshot().Dense().Cluster.Replication
		return r.Ships, r.ShipFailures
	}
	waitUntil(10*time.Second, func() bool { ships, failures := repl(); return ships+failures >= 1 })
	if ships, failures := repl(); ships != 0 || failures != 1 {
		t.Errorf("the monitor's first ship: %d shipped, %d failed; want 0 and 1 — the rule was not armed when it ran", ships, failures)
	}
	points := st.Machine.Faults.Points()
	if len(points) != 1 || points[0].Name != fault.MemWriteTorn || points[0].Fired == 0 {
		t.Errorf("registry after boot: %+v; want the one torn-write rule, fired", points)
	}
	steps, shutdown, leak := st.Teardown()
	if shutdown != nil || leak != nil {
		t.Errorf("teardown: shutdown %v, leak %v", shutdown, leak)
	}
	// Boot-time hits are the step's: Start never armed the rule a second
	// time (which would have zeroed them).
	if len(steps) != 1 || steps[0].Fired != points[0].Fired {
		t.Errorf("step reports %+v, want the %d boot-time fires", steps, points[0].Fired)
	}
}

// TestLibraryDumpStable holds the scenario JSON surface — an input format —
// still: every library scenario, marshalled the way `spacejmp-chaos -all
// -dump` does, against the bytes it printed before the stack's plumbing
// moved, and back through ParseSpec.
func TestLibraryDumpStable(t *testing.T) {
	var got bytes.Buffer
	for _, s := range Library() {
		enc := json.NewEncoder(&got)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		one, _ := json.Marshal(s)
		if _, err := ParseSpec(one); err != nil {
			t.Errorf("%s: its own dump does not parse: %v", s.Name, err)
		}
	}
	want, err := os.ReadFile("testdata/library-dump.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(Library()); n != 12 {
		t.Errorf("library has %d scenarios, the golden was taken with 12", n)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("library dump differs from testdata/library-dump.golden.json (regenerate with `go run ./cmd/spacejmp-chaos -all -dump` only when a scenario is meant to change)")
	}
}

// TestQuiesceIsTheChecks: what Run waits for after the load is what it then
// judges, written once. A count only the cluster's own machinery reaches,
// after the load and the schedule have ended, passes; an exact count that can
// never be reached fails after one timeout — not one per invariant — with
// the judged check's text.
func TestQuiesceIsTheChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario runs")
	}
	defer func(d time.Duration) { quiesceTimeout = d }(quiesceTimeout)
	spec := func() *Spec {
		return &Spec{
			Name: "quiesce-probe", Seed: 3, Machine: "small",
			Cluster: ClusterSpec{Nodes: 2, Workers: 1, Locals: 1, Replicate: true, SegSize: 1 << 20},
			Load:    LoadSpec{LoadConfig: server.LoadConfig{Conns: 2, Pipeline: 4, Requests: 64, SetPercent: 50, Keys: 32}},
		}
	}

	// The kill is the schedule's last act, long after 128 commands are done;
	// the promotion it leads to is three default-cadence probe failures
	// (25ms apart, backing off) later, and nothing but the quiesce waits for it.
	late := spec()
	late.Steps = []Step{{Point: PointNodeKill, Target: intp(1), After: dur(400 * time.Millisecond)}}
	late.Invariants = Invariants{
		Promotions: u64(1), Degraded: intp(0), MaxLostUpdates: u64(0),
		MinTraceEvents: map[string]uint64{"promotion": 1},
	}
	quiesceTimeout = 10 * time.Second
	rep, err := Run(late, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		var buf bytes.Buffer
		rep.WriteText(&buf)
		t.Fatalf("a promotion that lands after the load and the schedule was not waited for:\n%s", buf.String())
	}

	never := spec()
	never.Invariants = Invariants{
		Promotions: u64(5), Degraded: intp(2), MinSlotMoves: 1,
		MinTraceEvents: map[string]uint64{"promotion": 5},
	}
	quiesceTimeout = 2 * time.Second
	start := time.Now()
	rep, err = Run(never, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 3*quiesceTimeout {
		t.Errorf("four unreachable invariants took %v to fail; one %v timeout was due", took, quiesceTimeout)
	}
	var failed []string
	for _, c := range rep.Failed() {
		failed = append(failed, c.Name+": "+c.Detail)
	}
	want := []string{
		"promotions: 0 promotions (want exactly 5)",
		"slot-moves: 0 slot migrations (min 1)",
		"degraded: 0 degraded ranges (want exactly 2)",
		"trace:promotion: 0 promotion events (min 5)",
	}
	if strings.Join(failed, "\n") != strings.Join(want, "\n") {
		t.Errorf("failed checks:\n%s\nwant:\n%s", strings.Join(failed, "\n"), strings.Join(want, "\n"))
	}
}
