// Package chaos is the declarative chaos-scenario layer over the clustered
// stack. A Scenario (Spec) is a timeline of steps, each arming one of the
// fault registry's named injection points with a trigger policy, a target,
// a start offset, and a duration — loadable from a Go struct or a JSON
// file. The Runner boots a clustered (optionally replicated) server, drives
// it with the closed-loop verifying load generator while the schedule plays
// out against the live registry, and then asserts the spec's declared
// invariants from the stats snapshot, the trace ring, and the drain checks:
// zero verification failures, bounded retryable-vs-terminal errors,
// expected promotion and degradation counts, leak-free zero-goroutine
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
	"sort"
	"time"

	"spacejmp/internal/cluster"
	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/server"
	"spacejmp/internal/stats"
)

// Schedule-only pseudo-points: instead of arming a registry rule, the step
// invokes an operator action on the router at its start offset.
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

// pseudoPoints are the schedule-only operator actions — they never touch
// the fault registry.
var pseudoPoints = map[string]bool{
	PointNodeKill:    true,
	PointNodeAdd:     true,
	PointNodeRemove:  true,
	PointSlotMigrate: true,
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
// armed until the run ends. Pseudo-point steps (kill, add, remove, migrate)
// ignore Policy and For and invoke their operator action at After; a
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

// targetedPoints are the injection points whose components report a target
// identity; a Target on any other point would silently never match, so
// validation rejects it.
var targetedPoints = map[string]bool{
	fault.ClusterProbeDrop: true,
	fault.ClusterNodeCrash: true,
	PointNodeKill:          true,
}

var knownPoints = map[string]bool{
	fault.MemAlloc:         true,
	fault.MemWriteTorn:     true,
	fault.CoreSyscallCrash: true,
	fault.URPCDrop:         true,
	fault.URPCDelay:        true,
	fault.SrvAccept:        true,
	fault.SrvConnStall:     true,
	fault.SrvConnDrop:      true,
	fault.ClusterProbeDrop: true,
	fault.ClusterNodeCrash: true,
	PointNodeKill:          true,
	PointNodeAdd:           true,
	PointNodeRemove:        true,
	PointSlotMigrate:       true,
}

// ClusterSpec sizes the cluster under test; zero values take the cluster
// package's defaults. It mirrors cluster.Config field by field so a
// scenario file can pin any knob a test can.
type ClusterSpec struct {
	Nodes             int      `json:"nodes,omitempty"`
	Workers           int      `json:"workers,omitempty"`
	Mode              string   `json:"mode,omitempty"`
	Locals            int      `json:"locals,omitempty"`
	QueueDepth        int      `json:"queue_depth,omitempty"`
	SegSize           uint64   `json:"seg_size,omitempty"`
	Replicate         bool     `json:"replicate,omitempty"`
	ShipEvery         int      `json:"ship_every,omitempty"`
	ShipInterval      Duration `json:"ship_interval,omitempty"`
	ProbeInterval     Duration `json:"probe_interval,omitempty"`
	ProbeThreshold    int      `json:"probe_threshold,omitempty"`
	DeltaLog          int      `json:"delta_log,omitempty"`
	MigrationDeltaLog int      `json:"migration_delta_log,omitempty"`
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
		Nodes:             c.Nodes,
		Workers:           c.Workers,
		Mode:              mode,
		Locals:            c.Locals,
		QueueDepth:        c.QueueDepth,
		SegSize:           c.SegSize,
		MigrationDeltaLog: c.MigrationDeltaLog,
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

// LoadSpec parameterizes the verifying load: the load generator's own config
// (its JSON keys are declared there; the address, the seed and the deadline
// are not a scenario file's to set) with the one field whose file form
// differs — StaleBound, a duration string, stands in for the embedded
// nanosecond count. Zero values take the load generator's defaults.
type LoadSpec struct {
	server.LoadConfig
	StaleBound Duration `json:"stale_bound,omitempty"`
}

// Invariants are the assertions a run must satisfy. Value fields of zero
// are strict bounds (MaxMismatches 0 = no mismatch tolerated — the usual
// chaos contract); pointer fields distinguish "unset" from "exactly zero".
type Invariants struct {
	// MaxMismatches bounds load-side verification failures (default 0).
	MaxMismatches uint64 `json:"max_mismatches,omitempty"`
	// MaxErrors bounds terminal error replies; when neither it nor
	// MaxErrorFrac is set, terminal errors must be zero.
	MaxErrors *uint64 `json:"max_errors,omitempty"`
	// MaxErrorFrac bounds terminal error replies as a fraction of commands.
	MaxErrorFrac *float64 `json:"max_error_frac,omitempty"`
	// MaxBusyFrac bounds retryable refusals (busy, shard timeouts) as a
	// fraction of commands; unset leaves them unbounded.
	MaxBusyFrac *float64 `json:"max_busy_frac,omitempty"`
	// Promotions, when set, is the exact standby-promotion count.
	Promotions *uint64 `json:"promotions,omitempty"`
	// MinShips is the minimum checkpoint generations shipped.
	MinShips uint64 `json:"min_ships,omitempty"`
	// MaxShipBytesPerShip, when nonzero, bounds the mean image payload of a
	// ship: a node's first ship moves its whole segment and every later one
	// the pages written since, so the mean climbs back to the segment size
	// only if ships stop being deltas.
	MaxShipBytesPerShip uint64 `json:"max_ship_bytes_per_ship,omitempty"`
	// MaxLostUpdates, when set, bounds updates lost across failover.
	MaxLostUpdates *uint64 `json:"max_lost_updates,omitempty"`
	// Degraded, when set, is the exact count of degraded key ranges at the
	// end of the run.
	Degraded *int `json:"degraded,omitempty"`
	// MinLocal / MinRemote are minimum command counts per serving path.
	MinLocal  uint64 `json:"min_local,omitempty"`
	MinRemote uint64 `json:"min_remote,omitempty"`
	// MinDisconnects is the minimum transport failures the load generator
	// must have survived (Reconnect runs).
	MinDisconnects uint64 `json:"min_disconnects,omitempty"`
	// MinSlotMoves is the minimum completed slot migrations.
	MinSlotMoves uint64 `json:"min_slot_moves,omitempty"`
	// SlotMoveFailures, when set, is the exact count of slot migrations that
	// aborted (source stayed authoritative).
	SlotMoveFailures *uint64 `json:"slot_move_failures,omitempty"`
	// MinCrossDenied is the minimum cross-tenant probes the load must have
	// seen denied with -NOPERM (tenant runs; proves the probes actually ran).
	// Any probe answered with data instead of a denial is a cross-view leak,
	// and leaks are always an invariant violation — there is no knob to
	// tolerate them.
	MinCrossDenied uint64 `json:"min_cross_denied,omitempty"`
	// MinStaleProbes is the minimum staleness probes the load must have
	// completed (stale-read runs; proves the bound was actually exercised,
	// the way MinCrossDenied proves tenant probes ran).
	MinStaleProbes uint64 `json:"min_stale_probes,omitempty"`
	// MinDegradedReads is the minimum reads served stale because the
	// primary was overloaded — the proof a brownout scenario actually
	// degraded gracefully instead of just erroring.
	MinDegradedReads uint64 `json:"min_degraded_reads,omitempty"`
	// MinBreakerOpens is the minimum circuit-breaker trips; pins that a
	// storm scenario actually drove a breaker open.
	MinBreakerOpens uint64 `json:"min_breaker_opens,omitempty"`
	// MaxP99, when set, bounds the load's end-to-end p99 command latency.
	// This is the write-stall invariant: a serving path that holds a node's
	// mutex across a checkpoint ship (instead of forking a frozen view and
	// shipping off-mutex) parks every concurrent command for the whole copy
	// and blows the tail; the bound keeps that regression out.
	MaxP99 Duration `json:"max_p99,omitempty"`
	// StepsMustFire requires every step to have fired at least once (for a
	// pseudo-point step: the operator action succeeded).
	StepsMustFire bool `json:"steps_must_fire,omitempty"`
	// MinTraceEvents maps trace event kind names ("promotion",
	// "checkpoint-ship", "node-state", ...) to minimum occurrence counts.
	MinTraceEvents map[string]uint64 `json:"min_trace_events,omitempty"`
}

// Spec is one declarative chaos scenario.
type Spec struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Seed        int64       `json:"seed,omitempty"`
	Machine     string      `json:"machine,omitempty"` // small (default), M1, M2, M3
	Cluster     ClusterSpec `json:"cluster,omitempty"`
	Load        LoadSpec    `json:"load,omitempty"`
	Steps       []Step      `json:"steps,omitempty"`
	Invariants  Invariants  `json:"invariants,omitempty"`
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
	clCfg, err := s.Cluster.Config()
	if err != nil {
		return specErr(-1, fmt.Sprintf("cluster: %v", err), ErrBadSpec)
	}
	nodes := clCfg.Nodes
	localNode := func(i int) bool { return clCfg.Mode.Local(i, clCfg) }

	if s.Load.Tenants < 0 {
		return specErr(-1, fmt.Sprintf("load.tenants: negative (%d)", s.Load.Tenants), ErrBadSpec)
	}
	if s.Load.Auth && s.Load.Tenants == 0 {
		return specErr(-1, "load.auth: requires load.tenants > 0", ErrBadSpec)
	}
	if s.Load.CrossCheckEvery > 0 && (!s.Load.Auth || s.Load.Tenants < 2) {
		return specErr(-1, "load.cross_check_every: probes need auth and at least two tenants", ErrBadSpec)
	}
	if s.Invariants.MinCrossDenied > 0 && (!s.Load.Auth || s.Load.Tenants < 2) {
		return specErr(-1, "invariants.min_cross_denied: needs auth and at least two tenants", ErrBadSpec)
	}
	if s.Load.StaleReads && !s.Cluster.FollowerReads {
		return specErr(-1, "load.stale_reads: requires cluster.follower_reads", ErrBadSpec)
	}
	if s.Load.StaleBound < 0 {
		return specErr(-1, fmt.Sprintf("load.stale_bound: negative (%v)", time.Duration(s.Load.StaleBound)), ErrBadDuration)
	}
	if (s.Load.StaleBound != 0 || s.Load.StaleCheckEvery != 0) && !s.Load.StaleReads {
		return specErr(-1, "load.stale_bound/stale_check_every: need load.stale_reads", ErrBadSpec)
	}
	if s.Invariants.MinStaleProbes > 0 && !s.Load.StaleReads {
		return specErr(-1, "invariants.min_stale_probes: needs load.stale_reads", ErrBadSpec)
	}
	if s.Cluster.Deadline < 0 {
		return specErr(-1, fmt.Sprintf("cluster.deadline: negative (%v)", time.Duration(s.Cluster.Deadline)), ErrBadDuration)
	}
	if s.Invariants.MinBreakerOpens > 0 && !s.Cluster.Breakers {
		return specErr(-1, "invariants.min_breaker_opens: needs cluster.breakers", ErrBadSpec)
	}
	if s.Invariants.MinDegradedReads > 0 && !s.Cluster.Breakers {
		return specErr(-1, "invariants.min_degraded_reads: needs cluster.breakers (an open breaker is what degrades reads)", ErrBadSpec)
	}
	if s.Invariants.MaxP99 < 0 {
		return specErr(-1, fmt.Sprintf("invariants.max_p99: negative (%v)", time.Duration(s.Invariants.MaxP99)), ErrBadDuration)
	}

	for i, st := range s.Steps {
		if !knownPoints[st.Point] {
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
		if pseudoPoints[st.Point] {
			if st.Policy.Kind != "" && st.Policy.Kind != "always" {
				return specErr(i, fmt.Sprintf("policy: %s steps take none, got %q", st.Point, st.Policy.Kind), ErrBadPolicy)
			}
			if st.For != 0 {
				return specErr(i, "for: an operator action has no duration", ErrBadDuration)
			}
		} else if _, _, err := st.Policy.build(); err != nil {
			return specErr(i, err.Error(), ErrBadPolicy)
		}
		if st.Slot != nil && st.Point != PointSlotMigrate {
			return specErr(i, fmt.Sprintf("slot: only %s takes one", PointSlotMigrate), ErrBadSpec)
		}
		switch st.Point {
		case PointNodeAdd:
			if st.Target != nil {
				return specErr(i, "target: cluster.node.add assigns the next free id; it takes no target", ErrBadTarget)
			}
			continue
		case PointNodeRemove, PointSlotMigrate:
			// The target may name a node an earlier add step creates: ids are
			// assigned in order, so the upper bound grows with each add that
			// runs before this step.
			if st.Target == nil {
				return specErr(i, fmt.Sprintf("target: %s requires one", st.Point), ErrBadTarget)
			}
			maxNode := nodes
			for j, prior := range s.Steps {
				if prior.Point == PointNodeAdd &&
					(prior.After < st.After || (prior.After == st.After && j < i)) {
					maxNode++
				}
			}
			t := *st.Target
			if t < 0 || t >= maxNode {
				return specErr(i, fmt.Sprintf("target: node %d out of range [0,%d) (counting earlier adds)", t, maxNode), ErrBadTarget)
			}
			if st.Point == PointNodeRemove && t < nodes && localNode(t) {
				return specErr(i, fmt.Sprintf("target: node %d is co-resident; it cannot be removed", t), ErrBadTarget)
			}
			if st.Point == PointSlotMigrate {
				if st.Slot == nil {
					return specErr(i, fmt.Sprintf("slot: %s requires one", PointSlotMigrate), ErrBadSpec)
				}
				if *st.Slot < 0 || *st.Slot >= cluster.NumSlots {
					return specErr(i, fmt.Sprintf("slot: %d out of range [0,%d)", *st.Slot, cluster.NumSlots), ErrBadSpec)
				}
			}
			continue
		case PointNodeKill:
			if st.Target == nil {
				return specErr(i, "target: cluster.node.kill requires one", ErrBadTarget)
			}
		}
		if st.Target != nil {
			if !targetedPoints[st.Point] {
				return specErr(i, fmt.Sprintf("target: point %q fires untargeted; a targeted rule would never match", st.Point), ErrBadTarget)
			}
			t := *st.Target
			if t < 0 || t >= nodes {
				return specErr(i, fmt.Sprintf("target: node %d out of range [0,%d)", t, nodes), ErrBadTarget)
			}
			if (st.Point == PointNodeKill || st.Point == fault.ClusterNodeCrash) && localNode(t) {
				return specErr(i, fmt.Sprintf("target: node %d is co-resident; only remote nodes can die", t), ErrBadTarget)
			}
		}
	}

	// Two live windows on the same (point, target) would fight over one
	// registry rule — the second arm resets the first's counters and the
	// first disarm kills the second's window. Reject the ambiguity.
	type key struct {
		point  string
		target int
	}
	byRule := map[key][]int{}
	for i, st := range s.Steps {
		if pseudoPoints[st.Point] && st.Point != PointNodeKill {
			// Operator actions are instantaneous and own no registry rule;
			// two adds (or a remove after an add) never collide. Kills keep
			// the double-kill rule below.
			continue
		}
		k := key{st.Point, st.target()}
		byRule[k] = append(byRule[k], i)
	}
	for k, idxs := range byRule {
		if len(idxs) < 2 {
			continue
		}
		sort.Slice(idxs, func(a, b int) bool { return s.Steps[idxs[a]].After < s.Steps[idxs[b]].After })
		for j := 0; j+1 < len(idxs); j++ {
			cur, next := s.Steps[idxs[j]], s.Steps[idxs[j+1]]
			if k.point == PointNodeKill {
				// Two kills of one node: the second can never do anything.
				return specErr(idxs[j+1], fmt.Sprintf("point %q target %d killed twice", k.point, k.target), ErrOverlappingSteps)
			}
			if cur.For == 0 || time.Duration(cur.After)+time.Duration(cur.For) > time.Duration(next.After) {
				return specErr(idxs[j+1], fmt.Sprintf("point %q target %d: window overlaps step %d", k.point, k.target, idxs[j]), ErrOverlappingSteps)
			}
		}
	}

	for name := range s.Invariants.MinTraceEvents {
		if _, ok := stats.EventKindByName(name); !ok {
			return specErr(-1, fmt.Sprintf("invariants.min_trace_events: unknown event kind %q", name), ErrBadSpec)
		}
	}
	if f := s.Invariants.MaxErrorFrac; f != nil && (*f < 0 || *f > 1) {
		return specErr(-1, fmt.Sprintf("invariants.max_error_frac: %g outside [0,1]", *f), ErrBadSpec)
	}
	if f := s.Invariants.MaxBusyFrac; f != nil && (*f < 0 || *f > 1) {
		return specErr(-1, fmt.Sprintf("invariants.max_busy_frac: %g outside [0,1]", *f), ErrBadSpec)
	}
	return nil
}
