package chaos

import (
	"time"

	"spacejmp/internal/server"
)

// The scenario library: each entry is a named, self-contained disruption
// pattern over the clustered stack with the invariants it must hold. They
// run in the chaos smoke script and via `spacejmp-chaos -scenario <name>`;
// the JSON form of any of them (spacejmp-chaos -scenario x -dump) is a
// starting point for hand-written scenario files.

func u64(v uint64) *uint64         { return &v }
func f64(v float64) *float64       { return &v }
func intp(v int) *int              { return &v }
func dur(d time.Duration) Duration { return Duration(d) }

// Library returns fresh copies of every built-in scenario.
func Library() []*Spec {
	return []*Spec{
		clusterBaseline(),
		rollingNodeKills(),
		partitionThenHeal(),
		slowReplica(),
		checkpointCorruptionStorm(),
		acceptPressureFlood(),
		elasticAddRemove(),
		migrationTargetKilled(),
		tenantIsolationUnderKill(),
		shipUnderLoad(),
		slowNodeBrownout(),
		partitionDuringMigration(),
	}
}

// Lookup returns the named built-in scenario.
func Lookup(name string) (*Spec, bool) {
	for _, s := range Library() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Names lists the built-in scenario names in library order.
func Names() []string {
	lib := Library()
	out := make([]string, len(lib))
	for i, s := range lib {
		out[i] = s.Name
	}
	return out
}

// clusterBaseline is the no-fault control: a mixed keyspace-sharded cluster
// must verify cleanly, exercise both serving paths, and drain leak-free.
// Every other scenario's invariants only mean something because this one
// holds with the chaos turned off.
func clusterBaseline() *Spec {
	return &Spec{
		Name:        "cluster-baseline",
		Description: "no faults: mixed GET/SET/MGET over both serving paths, clean drain",
		Machine:     "small",
		Cluster:     ClusterSpec{Nodes: 3, Workers: 2, Locals: 2},
		Load: LoadSpec{LoadConfig: server.LoadConfig{
			Conns: 8, Pipeline: 4, Requests: 128,
			SetPercent: 20, MGetPercent: 25, MGetKeys: 4,
			Keys: 256,
		}},
		Invariants: Invariants{
			MinLocal:  1,
			MinRemote: 1,
		},
	}
}

// rollingNodeKills crashes both remote replicated nodes in sequence; each
// kill must promote its warm standby with zero lost updates while the load
// keeps verifying. This is the failover smoke in declarative form.
func rollingNodeKills() *Spec {
	return &Spec{
		Name:        "rolling-node-kills",
		Description: "crash remote nodes 2 then 3; each standby promotes, no update lost",
		Machine:     "M1",
		Cluster: ClusterSpec{
			Nodes: 4, Workers: 2, Locals: 1,
			Replicate: true, SegSize: 1 << 20,
			ShipEvery: 8, ShipInterval: dur(25 * time.Millisecond),
			ProbeInterval: dur(2 * time.Millisecond), ProbeThreshold: 3,
			DeltaLog: 256,
		},
		Load: LoadSpec{LoadConfig: server.LoadConfig{
			Conns: 4, Pipeline: 4, Requests: 384,
			SetPercent: 25, MGetPercent: 20, Keys: 256,
		}},
		Steps: []Step{
			{Point: "cluster.node.crash", Target: intp(2), Policy: PolicySpec{Kind: "always"}, After: dur(150 * time.Millisecond)},
			{Point: "cluster.node.crash", Target: intp(3), Policy: PolicySpec{Kind: "always"}, After: dur(450 * time.Millisecond)},
		},
		Invariants: Invariants{
			Promotions:     u64(2),
			MinShips:       1,
			MaxLostUpdates: u64(0),
			MaxBusyFrac:    f64(0.5),
			Degraded:       intp(0),
			StepsMustFire:  true,
			MinTraceEvents: map[string]uint64{"promotion": 2},
		},
	}
}

// partitionThenHeal severs every urpc channel for a window mid-run, then
// heals it. During the partition remote commands time out as retryable
// -SHARDTIMEOUT refusals; after the heal the same keys must verify — a
// partition may slow the cluster down but must never corrupt it.
func partitionThenHeal() *Spec {
	return &Spec{
		Name:        "partition-then-heal",
		Description: "drop all urpc frames for 250ms, then heal; only retryable refusals allowed",
		Machine:     "small",
		Cluster:     ClusterSpec{Nodes: 3, Workers: 2, Locals: 2},
		// The load must still be running when the partition starts: steps
		// fire on the wall clock, so the request count is sized to the
		// serving path's host speed (≈ 2 000 commands in 25 ms).
		Load: LoadSpec{LoadConfig: server.LoadConfig{
			Conns: 4, Pipeline: 2, Requests: 4096,
			SetPercent: 20, Keys: 128,
		}},
		Steps: []Step{
			{Point: "urpc.drop", Policy: PolicySpec{Kind: "always"}, After: dur(25 * time.Millisecond), For: dur(250 * time.Millisecond)},
		},
		Invariants: Invariants{
			MinLocal:      1,
			MinRemote:     1,
			MaxBusyFrac:   f64(0.9),
			StepsMustFire: true,
		},
	}
}

// slowReplica delays roughly half of all urpc transfers for the whole run
// on a replicated cluster: checkpoint shipping and probing slow down but
// must neither trip a spurious promotion nor degrade a range.
func slowReplica() *Spec {
	return &Spec{
		Name:        "slow-replica",
		Description: "delay ~half of urpc transfers all run; shipping lags, nobody false-promotes",
		Machine:     "small",
		Cluster: ClusterSpec{
			Nodes: 3, Workers: 2, Locals: 2,
			Replicate: true, SegSize: 1 << 20,
			ShipEvery: 8, ShipInterval: dur(25 * time.Millisecond),
			ProbeInterval: dur(5 * time.Millisecond), ProbeThreshold: 3,
			DeltaLog: 256,
		},
		Load: LoadSpec{LoadConfig: server.LoadConfig{
			Conns: 4, Pipeline: 4, Requests: 256,
			SetPercent: 60, Keys: 256,
		}},
		Steps: []Step{
			{Point: "urpc.delay", Policy: PolicySpec{Kind: "probability", P: 0.5}},
		},
		Invariants: Invariants{
			MinShips:      1,
			Promotions:    u64(0),
			Degraded:      intp(0),
			StepsMustFire: true,
		},
	}
}

// checkpointCorruptionStorm tears every checkpoint header (the serving path
// never writes through the checkpoint's persistence hook, so client data is
// untouched), then crashes the replicated node: with no valid generation to
// promote from, the range must degrade — loudly, as terminal
// -SHARDDEGRADED errors — rather than serve stale data as fresh.
func checkpointCorruptionStorm() *Spec {
	return &Spec{
		Name:        "checkpoint-corruption-storm",
		Description: "tear every checkpoint header, then crash node 2: degrade, don't lie",
		Machine:     "small",
		Cluster: ClusterSpec{
			Nodes: 3, Workers: 2, Locals: 2,
			Replicate: true, SegSize: 1 << 20,
			ShipEvery: 4, ShipInterval: dur(25 * time.Millisecond),
			ProbeInterval: dur(2 * time.Millisecond), ProbeThreshold: 3,
			DeltaLog: 256,
		},
		Load: LoadSpec{LoadConfig: server.LoadConfig{
			Conns: 4, Pipeline: 4, Requests: 384,
			SetPercent: 40, Keys: 256,
		}},
		Steps: []Step{
			// Checkpoint writes are payload then header; every-nth(2) lands
			// on each header, so no shipped generation ever validates.
			{Point: "mem.write.torn", Policy: PolicySpec{Kind: "every-nth", N: 2}},
			{Point: "cluster.node.crash", Target: intp(2), Policy: PolicySpec{Kind: "always"}, After: dur(400 * time.Millisecond)},
		},
		Invariants: Invariants{
			Promotions:     u64(0),
			Degraded:       intp(1),
			MaxErrorFrac:   f64(0.9),
			StepsMustFire:  true,
			MinTraceEvents: map[string]uint64{"node-state": 1},
		},
	}
}

// elasticAddRemove is the elastic-membership exercise: grow the cluster by
// one node mid-run (the add step rebalances a fair share of slots onto it
// under the live verifying load), then drain and retire that same node. The
// load must verify cleanly throughout — a command racing a slot flip may
// only ever see a retryable -MOVED, never a wrong answer — and both
// membership changes must land in the trace.
//
// Core budget on the small (4-core) machine: worker on core 0, the one
// remote seed node on core 1, the migration engine claims core 2, and the
// added node takes core 3.
func elasticAddRemove() *Spec {
	return &Spec{
		Name:        "elastic-add-remove",
		Description: "add node 3 and rebalance onto it mid-load, then drain and remove it; everything verifies",
		Machine:     "small",
		Cluster:     ClusterSpec{Nodes: 3, Workers: 1, Locals: 2},
		Load: LoadSpec{LoadConfig: server.LoadConfig{
			Conns: 4, Pipeline: 4, Requests: 512,
			SetPercent: 30, Keys: 256,
		}},
		Steps: []Step{
			{Point: "cluster.node.add", After: dur(100 * time.Millisecond)},
			{Point: "cluster.node.remove", Target: intp(3), After: dur(700 * time.Millisecond)},
		},
		Invariants: Invariants{
			// Rebalance moves a fair share (256/4 = 64 slots) onto node 3;
			// the remove drains them all back out again.
			MinSlotMoves:  64,
			MaxBusyFrac:   f64(0.9),
			StepsMustFire: true,
			MinTraceEvents: map[string]uint64{
				"slot-move":    64,
				"node-added":   1,
				"node-removed": 1,
			},
		},
	}
}

// migrationTargetKilled points a slot migration at a node armed to crash:
// the copy fails mid-import, the migration must abort and roll back — the
// source stays authoritative and the load keeps verifying against it. The
// failed move is counted exactly once and traced. StepsMustFire stays off:
// the migrate step erroring out is this scenario's point.
//
// Core budget on the small (4-core) machine: worker on core 0, remote
// nodes 1 and 2 on cores 1-2, the migration engine claims core 3.
func migrationTargetKilled() *Spec {
	return &Spec{
		Name:        "migration-target-killed",
		Description: "migrate a slot into a crashing node: abort, roll back, source stays authoritative",
		Machine:     "small",
		Cluster:     ClusterSpec{Nodes: 3, Workers: 1, Locals: 1},
		Load: LoadSpec{LoadConfig: server.LoadConfig{
			Conns: 4, Pipeline: 2, Requests: 1024,
			SetPercent: 30, Keys: 128,
		}},
		Steps: []Step{
			// Node 2 dies on its next dispatch from 50ms on; the migration at
			// 150ms targets it — either the crash already landed (the target
			// is rejected as unserving) or the import itself trips it. Slot
			// 142 holds keys of the k%06d/128 keyspace (slot 4, the old
			// choice, holds none — an empty slot sends no import chunks, so
			// nothing tripped the crash once the fast load had drained), which
			// guarantees at least one CLUSTER.IMPORT dispatch at the target
			// even when the load finishes before the crash step arms.
			{Point: "cluster.node.crash", Target: intp(2), Policy: PolicySpec{Kind: "always"}, After: dur(50 * time.Millisecond)},
			{Point: "cluster.slot.migrate", Slot: intp(142), Target: intp(2), After: dur(150 * time.Millisecond)},
		},
		Invariants: Invariants{
			SlotMoveFailures: u64(1),
			// A third of the keyspace routes to the dead node for the rest of
			// the run; those commands surface as retryable refusals.
			MaxBusyFrac:  f64(0.95),
			MaxErrorFrac: f64(0.9),
			MinTraceEvents: map[string]uint64{
				"slot-move-failed": 1,
			},
		},
	}
}

// tenantIsolationUnderKill runs two authenticated tenants over a replicated
// cluster and hard-kills a remote primary mid-load. The standby must promote
// with zero lost updates while both tenant views keep verifying — and the
// capability boundary must hold through the failover: every cross-view probe
// is answered -NOPERM by the promoted standby exactly as by the primary it
// replaced. A single data reply to a probe (a cross-view leak) fails the
// run, no matter how chaotic the failover window was.
func tenantIsolationUnderKill() *Spec {
	return &Spec{
		Name:        "tenant-isolation-under-kill",
		Description: "two tenants, primary killed mid-run: standby promotes, views verify, probes stay denied",
		Machine:     "M1",
		Cluster: ClusterSpec{
			Nodes: 4, Workers: 2, Locals: 1,
			Replicate: true, SegSize: 1 << 20,
			ShipEvery: 8, ShipInterval: dur(25 * time.Millisecond),
			ProbeInterval: dur(2 * time.Millisecond), ProbeThreshold: 3,
			DeltaLog: 256,
		},
		Load: LoadSpec{LoadConfig: server.LoadConfig{
			Conns: 4, Pipeline: 4, Requests: 384,
			SetPercent: 25, MGetPercent: 20, Keys: 256,
			Tenants: 2, Auth: true, CrossCheckEvery: 16,
		}},
		Steps: []Step{
			{Point: PointNodeKill, Target: intp(2), After: dur(200 * time.Millisecond)},
		},
		Invariants: Invariants{
			Promotions:     u64(1),
			MinShips:       1,
			MaxLostUpdates: u64(0),
			MaxBusyFrac:    f64(0.5),
			Degraded:       intp(0),
			MinCrossDenied: 1,
			StepsMustFire:  true,
			MinTraceEvents: map[string]uint64{"promotion": 1},
		},
	}
}

// shipUnderLoad is the write-stall gate for fork-based checkpoint shipping:
// a write-heavy load hammers a replicated cluster whose aggressive ship
// cadence keeps forking frozen views and shipping them while the primary
// serves. The p99 bound is the regression tripwire — a ship that holds the
// node mutex for the segment copy (the pre-fork design) parks every
// concurrent write for the whole copy and blows the tail. The same run
// exercises follower reads end to end: every connection goes READONLY and
// the versioned staleness probes must never see a too-old value served
// silently.
func shipUnderLoad() *Spec {
	return &Spec{
		Name:        "ship-under-load",
		Description: "write-heavy load over constant fork-based ships: bounded p99, bounded-stale follower reads",
		Machine:     "small",
		Cluster: ClusterSpec{
			Nodes: 3, Workers: 1, Locals: 2,
			Replicate: true, SegSize: 1 << 20,
			ShipEvery: 4, ShipInterval: dur(25 * time.Millisecond),
			ProbeInterval: dur(5 * time.Millisecond), ProbeThreshold: 5,
			DeltaLog:      1024,
			FollowerReads: true, StaleBound: dur(250 * time.Millisecond),
		},
		Load: LoadSpec{LoadConfig: server.LoadConfig{
			Conns: 4, Pipeline: 4, Requests: 384,
			SetPercent: 60, Keys: 256,
			StaleReads: true, StaleCheckEvery: 8,
		}, StaleBound: dur(2 * time.Second)},
		Invariants: Invariants{
			MinShips: 4,
			// One full ship of the 1 MiB segment at boot, then deltas of the
			// few pages four small writes touch.
			MaxShipBytesPerShip: 512 << 10,
			Promotions:          u64(0),
			Degraded:            intp(0),
			MaxP99:              dur(500 * time.Millisecond),
			MinStaleProbes:      8,
			MinTraceEvents: map[string]uint64{
				"fork":            4,
				"checkpoint-ship": 4,
			},
		},
	}
}

// slowNodeBrownout is the overload-protection gate: node 2's health probes
// are dropped for a window mid-run while its data path stays healthy, and
// the probe threshold is parked out of reach so failover never triggers —
// the node is browned out, not dead. The monitor's probe failures feed the
// node's circuit breaker instead. The breaker is hair-trigger (threshold 1)
// because the healthy data path feeds it successes between probe ticks — a
// dropped probe must trip it while the load still runs, not after. While
// open, writes to node 2 shed fast with retryable -SHARDTIMEOUT and
// READONLY reads degrade to the node's frozen fork view (counted as
// degraded reads); the breaker recloses two ways — a write admitted as the
// half-open probe after the cooldown succeeds on the healthy data path, or
// the first successful monitor probe after the window — so open and close
// transitions both land in the trace ring, repeatedly, as the window keeps
// re-tripping it. The p99 bound is the brownout contract: one slow node
// must not drag the whole cluster's tail, because its writes fail fast and
// its reads never touch it. Commands carry a generous deadline budget so
// the budget-remaining histogram fills without a single -DEADLINE expected.
func slowNodeBrownout() *Spec {
	return &Spec{
		Name:        "slow-node-brownout",
		Description: "drop node 2's probes, not its data: breaker trips, writes shed, reads degrade to stale views, p99 stays bounded",
		Machine:     "small",
		Cluster: ClusterSpec{
			Nodes: 3, Workers: 1, Locals: 2,
			Replicate: true, SegSize: 1 << 20,
			ShipEvery: 4, ShipInterval: dur(25 * time.Millisecond),
			ProbeInterval: dur(2 * time.Millisecond),
			// Parked out of reach: the brownout must never promote.
			ProbeThreshold: 999,
			DeltaLog:       1024,
			FollowerReads:  true, StaleBound: dur(2 * time.Second),
			// A short cooldown so open→half-open→closed cycles happen while
			// the load still runs; the probe-drop window re-trips each time.
			Breakers: true, BreakerThreshold: 1, BreakerCooldown: dur(15 * time.Millisecond),
			Deadline: dur(250 * time.Millisecond),
		},
		// Sized so the load is still running well into the probe-drop
		// window (the one worker serves ≈ 4 000 commands in its first 50 ms):
		// reads can only degrade, and the breaker only cycle, under traffic.
		Load: LoadSpec{LoadConfig: server.LoadConfig{
			Conns: 4, Pipeline: 4, Requests: 4096,
			SetPercent: 30, MGetPercent: 10, MGetKeys: 4, Keys: 256,
			StaleReads: true, StaleCheckEvery: 8,
		}, StaleBound: dur(4 * time.Second)},
		Steps: []Step{
			{Point: "cluster.probe.drop", Target: intp(2), Policy: PolicySpec{Kind: "always"}, After: dur(50 * time.Millisecond), For: dur(300 * time.Millisecond)},
		},
		Invariants: Invariants{
			MinShips:         1,
			Promotions:       u64(0),
			Degraded:         intp(0),
			MinBreakerOpens:  1,
			MinDegradedReads: 8,
			MaxP99:           dur(500 * time.Millisecond),
			MinStaleProbes:   8,
			MaxBusyFrac:      f64(0.9),
			StepsMustFire:    true,
			MinTraceEvents: map[string]uint64{
				"breaker-state": 2, // at least one trip and one reclose
			},
		},
	}
}

// partitionDuringMigration is the ROADMAP's compound timeline: a probe-drop
// window declares node 2 dead (its standby promotes — a spurious promotion,
// the primary is alive but fenced) while a slot migration targeting that
// same node is in flight. The migration must abort cleanly (target not
// serving during promotion, source stays authoritative) or complete against
// whichever copy is authoritative when it lands — never half-apply — and
// the load must keep verifying through the race. StepsMustFire stays off:
// the migrate step aborting with an error is an acceptable outcome here.
//
// M1: worker core 0, remote replicated nodes 1-3 on cores 1-3, monitor and
// migration engine claim their own cores after that.
func partitionDuringMigration() *Spec {
	return &Spec{
		Name:        "partition-during-migration",
		Description: "probe-drop promotes node 2's standby while a migration targets it: abort or complete, never half-apply",
		Machine:     "M1",
		Cluster: ClusterSpec{
			Nodes: 4, Workers: 1, Locals: 1,
			Replicate: true, SegSize: 1 << 20,
			ShipEvery: 8, ShipInterval: dur(25 * time.Millisecond),
			ProbeInterval: dur(2 * time.Millisecond), ProbeThreshold: 3,
			DeltaLog: 1024,
		},
		Load: LoadSpec{LoadConfig: server.LoadConfig{
			Conns: 4, Pipeline: 2, Requests: 384,
			SetPercent: 30, Keys: 128,
		}},
		Steps: []Step{
			// Probes to node 2 vanish at 100ms; threshold 3 declares it dead
			// and promotes the standby a few probe ticks later. The migration
			// at 150ms moves slot 142 (which holds keys of the k%06d/128
			// keyspace) into node 2 — landing before, during, or after the
			// promotion depending on scheduling, all of which must be safe.
			{Point: "cluster.probe.drop", Target: intp(2), Policy: PolicySpec{Kind: "always"}, After: dur(100 * time.Millisecond), For: dur(300 * time.Millisecond)},
			{Point: "cluster.slot.migrate", Slot: intp(142), Target: intp(2), After: dur(150 * time.Millisecond)},
		},
		Invariants: Invariants{
			Promotions:     u64(1),
			MinShips:       1,
			MaxLostUpdates: u64(0),
			Degraded:       intp(0),
			MaxBusyFrac:    f64(0.9),
			MaxErrorFrac:   f64(0.5),
			MinTraceEvents: map[string]uint64{"promotion": 1},
		},
	}
}

// acceptPressureFlood refuses a chunk of accepts and randomly drops live
// connections while the load reconnects through it: the server must shed
// connections without ever corrupting a surviving one.
func acceptPressureFlood() *Spec {
	return &Spec{
		Name:        "accept-pressure-flood",
		Description: "refuse 40% of accepts and drop 2% of conns; reconnecting load still verifies",
		Machine:     "small",
		Cluster:     ClusterSpec{Nodes: 3, Workers: 2, Locals: 2},
		Load: LoadSpec{LoadConfig: server.LoadConfig{
			Conns: 8, Pipeline: 4, Requests: 128,
			SetPercent: 20, Keys: 256,
			Reconnect: true,
		}},
		Steps: []Step{
			{Point: "server.accept", Policy: PolicySpec{Kind: "probability", P: 0.4}},
			{Point: "server.conn.drop", Policy: PolicySpec{Kind: "probability", P: 0.02}},
		},
		Invariants: Invariants{
			MinDisconnects: 1,
			StepsMustFire:  true,
		},
	}
}
