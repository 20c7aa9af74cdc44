// Package chaos is the declarative chaos-scenario layer over the clustered
// stack. A Scenario (Spec) is a timeline of steps, each arming one of the
// fault registry's named injection points with a trigger policy, a target,
// a start offset, and a duration — loadable from a Go struct or a JSON
// file. The Runner boots a clustered (optionally replicated) server, drives
// it with the closed-loop verifying load generator while the schedule plays
// out against the live registry, and then holds the run to the spec's bounds
// on named counters — of the stats snapshot, the load's result, the trace
// ring and the nodes' health — and to the checks every run must pass: zero
// verification failures, the schedule played, leak-free zero-goroutine
// teardown.
//
// Determinism is inherited from the seeded registry and the seeded load
// generator: the same seed and spec replay the same per-rule firing
// pattern, so a scenario that exposes a bug is a reproducible regression
// test, not a flake (the library in library.go is exactly that — every past
// failure mode of the cluster stack as one declarative file each).
package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"spacejmp/internal/cluster"
	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/server"
	"spacejmp/internal/tenant"
)

// Operator actions: instead of arming a registry rule, the step invokes one on
// the router at its start offset.
const (
	// PointNodeKill calls Router.KillNode on its target — an operator-style
	// hard kill, distinct from cluster.node.crash (which arms the node's
	// own handler to die on its next dispatch).
	PointNodeKill = "cluster.node.kill"
	// PointNodeAdd calls Router.AddNode (then rebalances slots onto the new
	// node); it takes no target — the new node's id is the next free one.
	PointNodeAdd = "cluster.node.add"
	// PointNodeRemove calls Router.RemoveNode on its target: drain every
	// owned slot to the remaining nodes, then decommission.
	PointNodeRemove = "cluster.node.remove"
	// PointSlotMigrate calls Router.MigrateSlot(Slot, Target): move one
	// placement slot to the target node while the cluster serves.
	PointSlotMigrate = "cluster.slot.migrate"
)

// stepKind is what a step on one point may name and what it does.
type stepKind struct {
	// act, set for an operator action, invokes it on the router and says what
	// happened; a step on any other point arms a fault-registry rule.
	act func(r *cluster.Router, st Step) (string, error)
	// target: the step names a node. A rule may (its components report their
	// node, so it fires there only); an action must.
	target bool
	remote bool // the target must be a remote node
	added  bool // the target may be a node an earlier add step creates
	slot   bool // the step names a slot, and must
	// once: the action's effect lasts the run (a killed node stays dead), so
	// like a rule left armed it holds its (point, target) to the end.
	once bool
}

// stepKinds is every point a step may name: the one table Validate, its
// overlap check, NewSchedule and Stop read.
var stepKinds = map[string]stepKind{
	fault.MemAlloc:         {},
	fault.MemWriteTorn:     {},
	fault.CoreSyscallCrash: {},
	fault.URPCDrop:         {},
	fault.URPCDelay:        {},
	fault.SrvAccept:        {},
	fault.SrvConnStall:     {},
	fault.SrvConnDrop:      {},
	fault.ClusterProbeDrop: {target: true},
	fault.ClusterNodeCrash: {target: true, remote: true},
	PointNodeKill: {target: true, remote: true, once: true, act: func(r *cluster.Router, st Step) (string, error) {
		return fmt.Sprintf("killed node %d", *st.Target), r.KillNode(*st.Target)
	}},
	// The whole operator action: bring the node up and move a fair share of
	// slots onto it under the live load.
	PointNodeAdd: {act: func(r *cluster.Router, _ Step) (string, error) {
		id, err := r.AddNode()
		if err == nil {
			_, err = r.RebalanceInto(id)
		}
		return fmt.Sprintf("added node %d", id), err
	}},
	PointNodeRemove: {target: true, remote: true, added: true, act: func(r *cluster.Router, st Step) (string, error) {
		return fmt.Sprintf("removed node %d", *st.Target), r.RemoveNode(*st.Target)
	}},
	PointSlotMigrate: {target: true, added: true, slot: true, act: func(r *cluster.Router, st Step) (string, error) {
		return fmt.Sprintf("migrated slot %d to node %d", *st.Slot, *st.Target), r.MigrateSlot(*st.Slot, *st.Target)
	}},
}

// MaxHorizon bounds how far into a run a step may reach (start offset plus
// duration); schedules are wall-clock timelines and an unbounded one would
// hang the runner.
const MaxHorizon = 5 * time.Minute

// Typed spec errors. Validation wraps them in a *SpecError carrying the
// step index and field, so errors.Is works on the category and the message
// still pinpoints the bad entry.
var (
	ErrBadSpec          = errors.New("chaos: bad scenario spec")
	ErrUnknownPoint     = errors.New("chaos: unknown fault point")
	ErrBadPolicy        = errors.New("chaos: bad trigger policy")
	ErrBadDuration      = errors.New("chaos: bad duration")
	ErrBadTarget        = errors.New("chaos: bad target")
	ErrOverlappingSteps = errors.New("chaos: overlapping steps")
)

// SpecError locates a validation failure: which step (-1 for spec-level
// problems), which field, and the typed category it wraps.
type SpecError struct {
	Step  int
	Field string
	Err   error
}

func (e *SpecError) Error() string {
	if e.Step < 0 {
		return fmt.Sprintf("%v: %s", e.Err, e.Field)
	}
	return fmt.Sprintf("%v: step %d, %s", e.Err, e.Step, e.Field)
}

func (e *SpecError) Unwrap() error { return e.Err }

func specErr(step int, field string, category error) error {
	return &SpecError{Step: step, Field: field, Err: category}
}

// Duration is a time.Duration that marshals as a human-readable string
// ("300ms") and unmarshals from either that form or a bare number of
// nanoseconds.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("%w: %q", ErrBadDuration, s)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("%w: %s", ErrBadDuration, bytes.TrimSpace(b))
	}
	*d = Duration(ns)
	return nil
}

// PolicySpec is a trigger policy in declarative form.
type PolicySpec struct {
	// Kind is one of: always, probability, on-nth, from-nth, every-nth.
	// Empty is allowed only on a cluster.node.kill step (kills have no
	// policy; they happen at their start offset).
	Kind string `json:"kind,omitempty"`
	// P is the per-hit firing probability for kind "probability".
	P float64 `json:"p,omitempty"`
	// N is the hit ordinal/stride for the *-nth kinds.
	N uint64 `json:"n,omitempty"`
}

// build compiles the declarative policy into a fault.Policy plus its
// introspection label.
func (p PolicySpec) build() (fault.Policy, string, error) {
	switch p.Kind {
	case "always":
		return fault.Always(), "always", nil
	case "probability":
		if p.P <= 0 || p.P > 1 {
			return nil, "", fmt.Errorf("%w: probability wants 0 < p <= 1, got %g", ErrBadPolicy, p.P)
		}
		return fault.Probability(p.P), fmt.Sprintf("p=%g", p.P), nil
	case "on-nth":
		if p.N < 1 {
			return nil, "", fmt.Errorf("%w: on-nth wants n >= 1", ErrBadPolicy)
		}
		return fault.OnNth(p.N), fmt.Sprintf("on-nth(%d)", p.N), nil
	case "from-nth":
		if p.N < 1 {
			return nil, "", fmt.Errorf("%w: from-nth wants n >= 1", ErrBadPolicy)
		}
		return fault.FromNth(p.N), fmt.Sprintf("from-nth(%d)", p.N), nil
	case "every-nth":
		if p.N < 1 {
			return nil, "", fmt.Errorf("%w: every-nth wants n >= 1", ErrBadPolicy)
		}
		return fault.EveryNth(p.N), fmt.Sprintf("every-nth(%d)", p.N), nil
	case "":
		return nil, "", fmt.Errorf("%w: missing kind", ErrBadPolicy)
	}
	return nil, "", fmt.Errorf("%w: unknown kind %q", ErrBadPolicy, p.Kind)
}

// Step is one scheduled disruption: arm Point with Policy for the window
// [After, After+For), scoped to Target when set. For of zero keeps the rule
// armed until the run ends. Operator-action steps (kill, add, remove, migrate)
// ignore Policy and For and invoke their action at After; a
// cluster.slot.migrate step names the slot to move in Slot and its
// destination node in Target.
type Step struct {
	Point  string     `json:"point"`
	Target *int       `json:"target,omitempty"`
	Slot   *int       `json:"slot,omitempty"`
	Policy PolicySpec `json:"policy,omitempty"`
	After  Duration   `json:"after,omitempty"`
	For    Duration   `json:"for,omitempty"`
}

func (s Step) target() int {
	if s.Target == nil {
		return fault.TargetAny
	}
	return *s.Target
}

// ClusterSpec sizes the cluster under test; zero values take the cluster
// package's defaults. It mirrors cluster.Config field by field so a
// scenario file can pin any knob a test can.
type ClusterSpec struct {
	Nodes          int      `json:"nodes,omitempty"`
	Workers        int      `json:"workers,omitempty"`
	Mode           string   `json:"mode,omitempty"`
	Locals         int      `json:"locals,omitempty"`
	QueueDepth     int      `json:"queue_depth,omitempty"`
	SegSize        uint64   `json:"seg_size,omitempty"`
	Replicate      bool     `json:"replicate,omitempty"`
	ShipEvery      int      `json:"ship_every,omitempty"`
	ShipInterval   Duration `json:"ship_interval,omitempty"`
	ProbeInterval  Duration `json:"probe_interval,omitempty"`
	ProbeThreshold int      `json:"probe_threshold,omitempty"`
	DeltaLog       int      `json:"delta_log,omitempty"`
	// FollowerReads routes READONLY-connection reads to frozen fork views
	// of replicated remote nodes, bounded by StaleBound (see
	// cluster.ReplicationConfig).
	FollowerReads bool     `json:"follower_reads,omitempty"`
	StaleBound    Duration `json:"stale_bound,omitempty"`
	// Overload protection (see cluster.OverloadConfig): per-remote-node
	// circuit breakers, under which READONLY reads degrade to frozen views.
	// Deadline stamps every command with a cycle budget derived from this
	// wall-time allowance and the machine's clock.
	Breakers         bool     `json:"breakers,omitempty"`
	BreakerThreshold int      `json:"breaker_threshold,omitempty"`
	BreakerCooldown  Duration `json:"breaker_cooldown,omitempty"`
	Deadline         Duration `json:"deadline,omitempty"`
}

// Config resolves the spec into the cluster.Config the booted cluster runs
// on, held to the cluster package's rules (cluster.Config.Validate) and with
// its defaults filled in — so node count and placement are asked of it, not
// re-derived. The replication knobs stay flat in the JSON surface (scenario
// files predate the nesting) but land in the nested ReplicationConfig.
func (c ClusterSpec) Config() (cluster.Config, error) {
	mode, err := cluster.ParseMode(c.Mode)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.Config{
		Nodes:      c.Nodes,
		Workers:    c.Workers,
		Mode:       mode,
		Locals:     c.Locals,
		QueueDepth: c.QueueDepth,
		SegSize:    c.SegSize,
		Replication: cluster.ReplicationConfig{
			Enabled:        c.Replicate,
			ShipEvery:      c.ShipEvery,
			ShipInterval:   time.Duration(c.ShipInterval),
			ProbeInterval:  time.Duration(c.ProbeInterval),
			ProbeThreshold: c.ProbeThreshold,
			DeltaLog:       c.DeltaLog,
			FollowerReads:  c.FollowerReads,
			StaleBound:     time.Duration(c.StaleBound),
		},
		Overload: cluster.OverloadConfig{
			Breakers:         c.Breakers,
			BreakerThreshold: c.BreakerThreshold,
			BreakerCooldown:  time.Duration(c.BreakerCooldown),
		},
	}
	return cfg.WithDefaults(), cfg.Validate()
}

// clusterConfig is Cluster.Config under the one rule that needs the steps too:
// breakers need a remote node, placed so or brought by an add step (AddNode's are).
func (s *Spec) clusterConfig() (cluster.Config, error) {
	cfg, err := s.Cluster.Config()
	if err == nil && cfg.Overload.Breakers && cfg.Mode.Local(cfg.Nodes-1, cfg) && // the last node is remote if any is
		!slices.ContainsFunc(s.Steps, func(st Step) bool { return st.Point == PointNodeAdd }) {
		err = errors.New("breakers need a remote node (every node is co-resident and no step adds one)")
	}
	return cfg, err
}

// LoadSpec parameterizes the verifying load: the load generator's own config
// (its JSON keys are declared there; the address, the seed and the deadline
// are not a scenario file's to set) with the one field whose file form
// differs — StaleBound, a duration string, stands in for the embedded
// nanosecond count. Zero values take the load generator's defaults.
type LoadSpec struct {
	server.LoadConfig
	StaleBound Duration `json:"stale_bound,omitempty"`
}

// Bound is what a run must show of one named counter; a field left out bounds
// nothing, and MaxFrac is relative to load.commands.
type Bound struct {
	Min     uint64   `json:"min,omitempty"`
	Max     *uint64  `json:"max,omitempty"`
	Eq      *uint64  `json:"eq,omitempty"`
	MaxFrac *float64 `json:"max_frac,omitempty"`
}

// Invariants are the assertions a run must satisfy. Counters bounds named
// counters, each resolved in one place (observed.value): a JSON path in
// stats.Snapshot ("cluster.replication.promotions"; a path through a slice
// sums its rows), load.<field> of the load's server.LoadResult, trace.<kind>
// for a trace event count, and health.degraded for the key ranges degraded at
// the end. Whatever a scenario bounds, a run fails on any load failure
// (server.LoadResult.Failures) — terminal errors included, unless the scenario
// bounds load.errors — and on the drain checks.
type Invariants struct {
	Counters map[string]Bound `json:"counters,omitempty"`
	// MaxP99, when set, bounds the load's end-to-end p99 command latency.
	// This is the write-stall invariant: a serving path that holds a node's
	// mutex across a checkpoint ship (instead of forking a frozen view and
	// shipping off-mutex) parks every concurrent command for the whole copy
	// and blows the tail; the bound keeps that regression out.
	MaxP99 Duration `json:"max_p99,omitempty"`
	// StepsMustFire requires every step to have fired at least once (for a
	// step of an operator action: the action succeeded).
	StepsMustFire bool `json:"steps_must_fire,omitempty"`
}

// Spec is one declarative chaos scenario.
type Spec struct {
	Name        string        `json:"name"`
	Description string        `json:"description,omitempty"`
	Seed        int64         `json:"seed,omitempty"`
	Machine     string        `json:"machine,omitempty"` // small (default), M1, M2, M3
	Cluster     ClusterSpec   `json:"cluster,omitempty"`
	Quotas      tenant.Quotas `json:"quotas,omitzero"` // every demo tenant's (load.tenants)
	Load        LoadSpec      `json:"load,omitempty"`
	Steps       []Step        `json:"steps,omitempty"`
	Invariants  Invariants    `json:"invariants,omitempty"`
}

// ParseSpec decodes and validates a JSON scenario. Unknown fields are
// rejected, so a typo'd knob fails loudly instead of silently running a
// different scenario than the file describes.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		if errors.Is(err, ErrBadDuration) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	// A second document in the stream is garbage, not a scenario.
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after scenario object", ErrBadSpec)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec top to bottom and returns the first problem as
// a *SpecError wrapping one of the typed categories above.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return specErr(-1, "name: required", ErrBadSpec)
	}
	if _, err := hw.NamedConfig(s.Machine); err != nil {
		return specErr(-1, fmt.Sprintf("machine: %v", err), ErrBadSpec)
	}
	clCfg, err := s.clusterConfig()
	if err != nil {
		return specErr(-1, fmt.Sprintf("cluster: %v", err), ErrBadSpec)
	}
	nodes := clCfg.Nodes
	localNode := func(i int) bool { return clCfg.Mode.Local(i, clCfg) }

	if err := s.Load.Check(); err != nil {
		return specErr(-1, err.Error(), ErrBadSpec)
	}
	if s.Load.StaleReads && !s.Cluster.FollowerReads {
		return specErr(-1, "load.stale_reads: requires cluster.follower_reads", ErrBadSpec)
	}
	if s.Load.StaleBound < 0 {
		return specErr(-1, fmt.Sprintf("load.stale_bound: negative (%v)", time.Duration(s.Load.StaleBound)), ErrBadDuration)
	}
	if s.Load.StaleBound != 0 && !s.Load.StaleReads {
		return specErr(-1, "load.stale_bound: needs load.stale_reads", ErrBadSpec)
	}
	if s.Cluster.Deadline < 0 {
		return specErr(-1, fmt.Sprintf("cluster.deadline: negative (%v)", time.Duration(s.Cluster.Deadline)), ErrBadDuration)
	}
	if s.Invariants.MaxP99 < 0 {
		return specErr(-1, fmt.Sprintf("invariants.max_p99: negative (%v)", time.Duration(s.Invariants.MaxP99)), ErrBadDuration)
	}

	for i, st := range s.Steps {
		k, ok := stepKinds[st.Point]
		if !ok {
			return specErr(i, fmt.Sprintf("point %q", st.Point), ErrUnknownPoint)
		}
		if st.After < 0 {
			return specErr(i, fmt.Sprintf("after: negative (%v)", time.Duration(st.After)), ErrBadDuration)
		}
		if st.For < 0 {
			return specErr(i, fmt.Sprintf("for: negative (%v)", time.Duration(st.For)), ErrBadDuration)
		}
		if end := time.Duration(st.After) + time.Duration(st.For); end > MaxHorizon {
			return specErr(i, fmt.Sprintf("after+for: %v exceeds the %v horizon", end, MaxHorizon), ErrBadDuration)
		}
		if k.act != nil {
			if st.Policy.Kind != "" && st.Policy.Kind != "always" {
				return specErr(i, fmt.Sprintf("policy: %s steps take none, got %q", st.Point, st.Policy.Kind), ErrBadPolicy)
			}
			if st.For != 0 {
				return specErr(i, "for: an operator action has no duration", ErrBadDuration)
			}
		} else if _, _, err := st.Policy.build(); err != nil {
			return specErr(i, err.Error(), ErrBadPolicy)
		}
		if st.Slot != nil && !k.slot {
			return specErr(i, fmt.Sprintf("slot: %s takes none", st.Point), ErrBadSpec)
		}
		switch {
		case st.Target == nil && k.target && k.act != nil:
			return specErr(i, fmt.Sprintf("target: %s requires one", st.Point), ErrBadTarget)
		case st.Target != nil && !k.target:
			return specErr(i, fmt.Sprintf("target: %s takes none", st.Point), ErrBadTarget)
		case st.Target != nil:
			// An add step assigns the next free id, so a target that may be an
			// added node ranges over one more id per add that runs first.
			maxNode := nodes
			for j, prior := range s.Steps {
				if k.added && prior.Point == PointNodeAdd &&
					(prior.After < st.After || (prior.After == st.After && j < i)) {
					maxNode++
				}
			}
			if t := *st.Target; t < 0 || t >= maxNode {
				return specErr(i, fmt.Sprintf("target: node %d out of range [0,%d)", t, maxNode), ErrBadTarget)
			} else if k.remote && t < nodes && localNode(t) {
				return specErr(i, fmt.Sprintf("target: node %d is co-resident; %s needs a remote node", t, st.Point), ErrBadTarget)
			}
		}
		if k.slot && st.Slot == nil {
			return specErr(i, fmt.Sprintf("slot: %s requires one", st.Point), ErrBadSpec)
		}
		if k.slot && (*st.Slot < 0 || *st.Slot >= cluster.NumSlots) {
			return specErr(i, fmt.Sprintf("slot: %d out of range [0,%d)", *st.Slot, cluster.NumSlots), ErrBadSpec)
		}
	}

	// Two live windows on the same (point, target) would fight over one
	// registry rule — the second arm resets the first's counters and the
	// first disarm kills the second's window — and a second kill of a node can
	// do nothing. Reject the ambiguity. The other actions are instantaneous
	// and own nothing: two adds, or a remove after an add, never collide.
	type key struct {
		point  string
		target int
	}
	byRule := map[key][]int{}
	for i, st := range s.Steps {
		if k := stepKinds[st.Point]; k.act == nil || k.once {
			rule := key{st.Point, st.target()}
			byRule[rule] = append(byRule[rule], i)
		}
	}
	for k, idxs := range byRule {
		sort.Slice(idxs, func(a, b int) bool { return s.Steps[idxs[a]].After < s.Steps[idxs[b]].After })
		for j := 0; j+1 < len(idxs); j++ {
			cur, next := s.Steps[idxs[j]], s.Steps[idxs[j+1]]
			if cur.For == 0 || time.Duration(cur.After)+time.Duration(cur.For) > time.Duration(next.After) {
				return specErr(idxs[j+1], fmt.Sprintf("point %q target %d: step %d still holds it", k.point, k.target, idxs[j]), ErrOverlappingSteps)
			}
		}
	}

	for _, name := range slices.Sorted(maps.Keys(s.Invariants.Counters)) {
		b := s.Invariants.Counters[name]
		if _, err := (observed{}).value(name); err != nil {
			return specErr(-1, fmt.Sprintf("invariants.counters: %v", err), ErrBadSpec)
		}
		if b == (Bound{}) {
			return specErr(-1, fmt.Sprintf("invariants.counters: %q bounds nothing", name), ErrBadSpec)
		}
		if load, ok := strings.CutPrefix(name, "load."); ok && load != "errors" {
			if _, fails := new(server.LoadResult).Failures()[load]; fails {
				return specErr(-1, fmt.Sprintf("invariants.counters: %q fails any run; there is no bound to tolerate it", name), ErrBadSpec)
			}
		}
		if f := b.MaxFrac; f != nil && !(*f >= 0 && *f <= 1) {
			return specErr(-1, fmt.Sprintf("invariants.counters: %q max_frac %g outside [0,1]", name, *f), ErrBadSpec)
		}
	}
	return nil
}
