package chaos

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"spacejmp/internal/fault"
)

// TestParseSpecValid round-trips a full-featured JSON scenario through the
// parser, including string durations and targeted steps.
func TestParseSpecValid(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "smoke",
		"seed": 9,
		"machine": "small",
		"cluster": {"nodes": 3, "workers": 2, "locals": 2, "replicate": true,
		            "ship_interval": "25ms", "probe_interval": 2000000},
		"load": {"conns": 4, "requests": 128, "reconnect": true},
		"steps": [
			{"point": "urpc.drop", "policy": {"kind": "always"}, "after": "25ms", "for": "100ms"},
			{"point": "cluster.node.crash", "target": 2, "policy": {"kind": "always"}, "after": "200ms"}
		],
		"invariants": {"steps_must_fire": true, "counters": {"trace.promotion": {"min": 1},
		               "tenants.quota_rejections": {"max": 0}, "load.busy": {"max_frac": 0.5}}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 9 || len(spec.Steps) != 2 {
		t.Fatalf("parsed spec = %+v", spec)
	}
	if got := time.Duration(spec.Steps[0].After); got != 25*time.Millisecond {
		t.Errorf("string duration: got %v", got)
	}
	if got := time.Duration(spec.Cluster.ProbeInterval); got != 2*time.Millisecond {
		t.Errorf("numeric duration: got %v", got)
	}
	if spec.Steps[1].target() != 2 {
		t.Errorf("target: got %d", spec.Steps[1].target())
	}
	// A node an add step brings is remote: it gives breakers their node.
	if _, err := ParseSpec([]byte(`{"name": "grow", "cluster": {"nodes": 1, "mode": "vas", "breakers": true},
		"steps": [{"point": "cluster.node.add"}]}`)); err != nil {
		t.Errorf("breakers over a co-resident node an add step joins: %v", err)
	}
}

// TestParseSpecErrors checks every malformed-scenario class maps to its
// typed error, so callers can errors.Is on the category.
func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want error
	}{
		{"missing name", `{"machine": "small"}`, ErrBadSpec},
		{"unknown machine", `{"name": "x", "machine": "M9"}`, ErrBadSpec},
		{"unknown field", `{"name": "x", "bogus": 1}`, ErrBadSpec},
		// Knobs that were removed with the code they configured are unknown
		// fields too: a scenario file still naming one must not run silently.
		{"removed queue_watermark", `{"name": "x", "cluster": {"replicate": true, "queue_watermark": 8}}`, ErrBadSpec},
		{"removed degraded_reads", `{"name": "x", "cluster": {"replicate": true, "degraded_reads": true}}`, ErrBadSpec},
		{"removed slots", `{"name": "x", "cluster": {"slots": 256}}`, ErrBadSpec},
		{"removed migration_delta_log", `{"name": "x", "cluster": {"migration_delta_log": 4096}}`, ErrBadSpec},
		{"removed auth", `{"name": "x", "load": {"tenants": 2, "auth": true}}`, ErrBadSpec},
		{"removed stale_check_every", `{"name": "x", "cluster": {"follower_reads": true}, "load": {"stale_reads": true, "stale_check_every": 8}}`, ErrBadSpec},
		{"trailing data", `{"name": "x"} {"name": "y"}`, ErrBadSpec},
		// A load mix out of range is refused, not quietly replaced.
		{"set percent past 100", `{"name": "x", "load": {"set_percent": 150}}`, ErrBadSpec},
		{"set and mget past 100", `{"name": "x", "load": {"set_percent": 60, "mget_percent": 50}}`, ErrBadSpec},
		// As is a negative load count, which would otherwise run on its default,
		{"negative load conns", `{"name": "x", "load": {"conns": -5}}`, ErrBadSpec},
		{"negative load tenants", `{"name": "x", "load": {"tenants": -2}}`, ErrBadSpec},
		// and cross-tenant probes with no second tenant to probe.
		{"cross checks on one tenant", `{"name": "x", "load": {"tenants": 1, "cross_check_every": 8}}`, ErrBadSpec},
		// So is a cluster's co-resident node count.
		{"locals past the node count", `{"name": "x", "cluster": {"nodes": 3, "locals": 5}}`, ErrBadSpec},
		{"locals past the default node count", `{"name": "x", "cluster": {"locals": 4}}`, ErrBadSpec},
		{"negative locals", `{"name": "x", "cluster": {"locals": -1}}`, ErrBadSpec},
		// And any negative count or period, which would otherwise run on its default.
		{"negative nodes", `{"name": "x", "cluster": {"nodes": -2}}`, ErrBadSpec},
		{"negative workers", `{"name": "x", "cluster": {"workers": -1}}`, ErrBadSpec},
		{"negative queue depth", `{"name": "x", "cluster": {"queue_depth": -5}}`, ErrBadSpec},
		{"negative ship every", `{"name": "x", "cluster": {"ship_every": -1}}`, ErrBadSpec},
		{"negative ship interval", `{"name": "x", "cluster": {"ship_interval": "-1s"}}`, ErrBadSpec},
		{"negative probe interval", `{"name": "x", "cluster": {"probe_interval": "-1ms"}}`, ErrBadSpec},
		{"negative probe threshold", `{"name": "x", "cluster": {"probe_threshold": -3}}`, ErrBadSpec},
		{"negative delta log", `{"name": "x", "cluster": {"delta_log": -1}}`, ErrBadSpec},
		{"unknown point", `{"name": "x", "steps": [{"point": "disk.on.fire", "policy": {"kind": "always"}}]}`, ErrUnknownPoint},
		{"missing policy", `{"name": "x", "steps": [{"point": "urpc.drop"}]}`, ErrBadPolicy},
		{"unknown policy", `{"name": "x", "steps": [{"point": "urpc.drop", "policy": {"kind": "sometimes"}}]}`, ErrBadPolicy},
		{"bad probability", `{"name": "x", "steps": [{"point": "urpc.drop", "policy": {"kind": "probability", "p": 1.5}}]}`, ErrBadPolicy},
		{"zero nth", `{"name": "x", "steps": [{"point": "urpc.drop", "policy": {"kind": "on-nth"}}]}`, ErrBadPolicy},
		{"unparseable duration", `{"name": "x", "steps": [{"point": "urpc.drop", "policy": {"kind": "always"}, "after": "soon"}]}`, ErrBadDuration},
		{"negative after", `{"name": "x", "steps": [{"point": "urpc.drop", "policy": {"kind": "always"}, "after": "-5ms"}]}`, ErrBadDuration},
		{"negative for", `{"name": "x", "steps": [{"point": "urpc.drop", "policy": {"kind": "always"}, "for": -1}]}`, ErrBadDuration},
		{"past horizon", `{"name": "x", "steps": [{"point": "urpc.drop", "policy": {"kind": "always"}, "after": "10h"}]}`, ErrBadDuration},
		{"target on untargeted point", `{"name": "x", "steps": [{"point": "urpc.drop", "target": 1, "policy": {"kind": "always"}}]}`, ErrBadTarget},
		{"target out of range", `{"name": "x", "steps": [{"point": "cluster.node.crash", "target": 7, "policy": {"kind": "always"}}]}`, ErrBadTarget},
		{"crash of local node", `{"name": "x", "steps": [{"point": "cluster.node.crash", "target": 0, "policy": {"kind": "always"}}]}`, ErrBadTarget},
		{"kill without target", `{"name": "x", "steps": [{"point": "cluster.node.kill"}]}`, ErrBadTarget},
		{"kill with policy", `{"name": "x", "steps": [{"point": "cluster.node.kill", "target": 2, "policy": {"kind": "probability", "p": 0.5}}]}`, ErrBadPolicy},
		{"kill with duration", `{"name": "x", "steps": [{"point": "cluster.node.kill", "target": 2, "for": "1s"}]}`, ErrBadDuration},
		{"overlapping windows", `{"name": "x", "steps": [
			{"point": "urpc.drop", "policy": {"kind": "always"}, "for": "0s"},
			{"point": "urpc.drop", "policy": {"kind": "always"}, "after": "50ms", "for": "50ms"}]}`, ErrOverlappingSteps},
		{"double kill", `{"name": "x", "steps": [
			{"point": "cluster.node.kill", "target": 2},
			{"point": "cluster.node.kill", "target": 2, "after": "100ms"}]}`, ErrOverlappingSteps},
		{"unknown trace kind", `{"name": "x", "invariants": {"counters": {"trace.warp-core-breach": {"min": 1}}}}`, ErrBadSpec},
		{"error frac out of range", `{"name": "x", "invariants": {"counters": {"load.errors": {"max_frac": 1.5}}}}`, ErrBadSpec},
		// A counter name is held to the type it reads, present or not.
		{"misspelled counter", `{"name": "x", "invariants": {"counters": {"cluster.replication.promotoins": {"eq": 0}}}}`, ErrBadSpec},
		{"misspelled load counter", `{"name": "x", "invariants": {"counters": {"load.mismatch": {"max": 0}}}}`, ErrBadSpec},
		{"block, not a counter", `{"name": "x", "invariants": {"counters": {"cluster.replication": {"min": 1}}}}`, ErrBadSpec},
		{"unknown health name", `{"name": "x", "invariants": {"counters": {"health.sick": {"eq": 0}}}}`, ErrBadSpec},
		{"bound of nothing", `{"name": "x", "invariants": {"counters": {"load.errors": {}}}}`, ErrBadSpec},
		{"removed per-counter invariant", `{"name": "x", "invariants": {"min_ships": 1}}`, ErrBadSpec},
		// A load failure is bounded at zero; only load.errors may be bounded otherwise.
		{"tolerated cross leaks", `{"name": "x", "invariants": {"counters": {"load.cross_leaks": {"max": 5}}}}`, ErrBadSpec},
		{"bounded mismatches", `{"name": "x", "invariants": {"counters": {"load.mismatches": {"min": 1}}}}`, ErrBadSpec},
		// spacejmp-server -breakers without -cluster.
		{"breakers with no remote node", `{"name": "x", "cluster": {"nodes": 1, "mode": "vas", "breakers": true}}`, ErrBadSpec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseSpec([]byte(tc.json))
			if err == nil {
				t.Fatalf("parsed without error: %+v", spec)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want category %v", err, tc.want)
			}
		})
	}
}

// TestSpecErrorLocatesStep checks the wrapper pinpoints the offending step.
func TestSpecErrorLocatesStep(t *testing.T) {
	spec := &Spec{Name: "x", Steps: []Step{
		{Point: fault.URPCDrop, Policy: PolicySpec{Kind: "always"}},
		{Point: "nope", Policy: PolicySpec{Kind: "always"}},
	}}
	err := spec.Validate()
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *SpecError", err)
	}
	if se.Step != 1 || !errors.Is(err, ErrUnknownPoint) {
		t.Fatalf("located step %d (%v), want step 1 unknown-point", se.Step, err)
	}
}

// TestNonOverlappingWindowsAllowed: sequential windows on one point are the
// supported way to express on/off patterns and must validate.
func TestNonOverlappingWindowsAllowed(t *testing.T) {
	spec := &Spec{Name: "x", Steps: []Step{
		{Point: fault.URPCDrop, Policy: PolicySpec{Kind: "always"}, After: dur(10 * time.Millisecond), For: dur(40 * time.Millisecond)},
		{Point: fault.URPCDrop, Policy: PolicySpec{Kind: "always"}, After: dur(50 * time.Millisecond), For: dur(40 * time.Millisecond)},
		// Same point, different target namespace: never conflicts.
		{Point: fault.ClusterProbeDrop, Target: intp(1), Policy: PolicySpec{Kind: "always"}},
		{Point: fault.ClusterProbeDrop, Target: intp(2), Policy: PolicySpec{Kind: "always"}},
	}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLibraryValidates: every shipped scenario must pass its own validator
// and survive a JSON round-trip (the scenarios double as example files).
func TestLibraryValidates(t *testing.T) {
	names := map[string]bool{}
	for _, spec := range Library() {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		if names[spec.Name] {
			t.Errorf("duplicate scenario name %q", spec.Name)
		}
		names[spec.Name] = true
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", spec.Name, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: round-trip: %v", spec.Name, err)
		}
		if back.Name != spec.Name || len(back.Steps) != len(spec.Steps) {
			t.Errorf("%s: round-trip changed the scenario", spec.Name)
		}
	}
	if _, ok := Lookup("rolling-node-kills"); !ok {
		t.Error("Lookup missed a library scenario")
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("Lookup invented a scenario")
	}
}

// FuzzParseSpec hammers the JSON scenario parser: whatever the bytes, it
// must return a typed error or a spec that validates — never panic — and
// an accepted spec must survive a marshal/re-parse round-trip.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range Library() {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name": "x"}`))
	f.Add([]byte(`{"name": "x", "steps": [{"point": "urpc.drop", "policy": {"kind": "always"}, "after": "-5ms"}]}`))
	f.Add([]byte(`{"name": "x", "steps": [{"point": "disk.on.fire"}]}`))
	f.Add([]byte(`{"name": "x", "steps": [{"point": "cluster.node.kill", "target": 99}]}`))
	f.Add([]byte(`{"name":"x","steps":[{"point":"urpc.drop","policy":{"kind":"always"},"for":"0s"},{"point":"urpc.drop","policy":{"kind":"always"},"after":"1ms"}]}`))
	f.Add([]byte(`{"name":"x","invariants":{"counters":{"tenants.quota_rejections":{"min":1,"max_frac":0.5},"load.commands":{"eq":0}}}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{}`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			if spec != nil {
				t.Fatalf("error %v alongside a non-nil spec", err)
			}
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("accepted spec fails its own validator: %v", verr)
		}
		out, merr := json.Marshal(spec)
		if merr != nil {
			t.Fatalf("accepted spec does not marshal: %v", merr)
		}
		if _, rerr := ParseSpec(out); rerr != nil {
			t.Fatalf("round-trip rejected: %v\ninput:  %q\noutput: %q", rerr, data, out)
		}
	})
}
