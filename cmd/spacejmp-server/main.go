// Command spacejmp-server runs the RESP/TCP serving layer over the
// simulated SpaceJMP machine. The backend is always the cluster router. By
// default it fronts one co-resident node, so -workers workers serve every
// command by switching into one shared RedisJMP VAS (§5.3); with -cluster N
// the key space is hashed across N shard nodes, and each node is reached
// either on the shared-VAS fast path (co-resident) or over urpc cache-line
// channels (remote) — both sides of Figure 7 in one process, selected per
// node by -mode. Drive it with cmd/spacejmp-load or
// any RESP client (GET, SET, DEL, MGET, PING, ECHO, QUIT).
//
// Run it with -h for the flags.
//
// The overload-protection flags: -deadline stamps every command with a
// cycle budget (converted from wall time at the machine's clock; clients
// override per connection with the DEADLINE <ms> prefix command) that the
// router refuses to overspend — a remote hop it cannot afford answers a
// retryable -DEADLINE instead of queueing doomed work. -breakers arms a
// closed→open→half-open circuit breaker per remote cluster node: tripped
// by consecutive call/probe failures, an open breaker sheds writes fast
// with -SHARDTIMEOUT while READONLY reads degrade to the node's frozen fork
// view within the staleness bound.
//
// With -tenants N, the server runs multi-tenant: N demo tenants (ids t0..,
// secrets s0..) are registered, every connection must AUTH before touching
// data, each tenant works an isolated per-tenant view of the store, and
// cross-view access is answered -NOPERM unless a capability grant allows
// it. The -tenant-* flags set each tenant's quotas (0 = unlimited); the
// admin surface grows a /tenants endpoint with per-tenant usage and
// counters.
//
// With -admin, a plain HTTP surface serves /healthz, /stats (the live
// observability snapshot as JSON, including the armed fault rules),
// /stats/delta (long-poll delta stream), and /trace?n= (the newest
// trace-ring events) while the server runs; /stats carries a
// cluster_runtime block and /healthz turns 503 when a key range degrades.
// With -replicate, every remote cluster node gets a warm standby kept
// fresh by checkpoint shipping and a health monitor that fails its key
// range over on crash.
//
// With -scenario, the named chaos-library scenario (or a JSON scenario
// file) plays its step timeline against this server's live fault registry
// and router: only the steps are used — the server keeps its own
// -cluster/-machine shape and serves whatever clients connect, so
// invariants are not checked here (use cmd/spacejmp-chaos for a full
// self-contained run). It is also how an operator action is staged against
// a live server: a cluster.node.kill step crashes a node for a failover
// experiment, cluster.node.add grows the cluster by one node and rebalances
// a fair share of placement slots onto it, cluster.node.remove drains a
// node's slots to the rest of the cluster and retires it — all live, under
// whatever traffic clients are sending. The step outcomes are reported on
// drain.
//
// On SIGINT/SIGTERM the server drains gracefully — stops accepting,
// finishes in-flight commands, detaches every worker from the shared VASes
// (the kernel reaper verifies frame reclamation) — and dumps the stats
// snapshot, including per-shard counters and latency histograms, to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spacejmp/internal/chaos"
	"spacejmp/internal/cluster"
)

func main() {
	// The flags are a scenario spec's machine, cluster block, tenant count and
	// quotas, plus what only a binary knows; -scenario contributes its steps
	// and nothing else.
	var spec chaos.Spec
	var front chaos.Front
	cl := &spec.Cluster
	// What a 0 resolves to is the cluster package's to say.
	def := cluster.Config{Overload: cluster.OverloadConfig{Breakers: true}}.WithDefaults()
	rep, ov := def.Replication, def.Overload
	flag.StringVar(&front.Addr, "addr", "127.0.0.1:6379", "listen address")
	flag.IntVar(&cl.Workers, "workers", 2, "router workers (each claims one simulated core)")
	flag.IntVar(&cl.QueueDepth, "queue", 64, "per-worker queue depth (full queue replies busy)")
	flag.IntVar(&front.Pipeline, "pipeline", 32, "per-connection in-flight command cap")
	flag.Uint64Var(&cl.SegSize, "seg", 16<<20, "store segment bytes per node")
	flag.StringVar(&spec.Machine, "machine", "M1", "simulated machine: M1, M2, M3, small")
	flag.IntVar(&front.TraceCap, "trace", 4096, "trace ring capacity (0 disables tracing)")
	jsonOut := flag.Bool("json", false, "dump the final stats snapshot as JSON")
	flag.IntVar(&cl.Nodes, "cluster", 0, "shard the key space across n cluster nodes (0 = one co-resident node)")
	flag.StringVar(&cl.Mode, "mode", "auto", "cluster node placement: vas, urpc, or auto")
	flag.StringVar(&front.Admin, "admin", "", "HTTP admin address for /healthz, /stats, /trace (empty disables)")
	flag.BoolVar(&cl.Replicate, "replicate", false, "replicate remote cluster nodes to warm standbys with failover")
	flag.IntVar(&cl.ShipEvery, "ship-every", 0, "ship a node's checkpoint after this many writes (0 = default)")
	flag.BoolVar(&cl.FollowerReads, "follower-reads", false, "serve READONLY-connection reads from frozen fork views (needs -replicate)")
	flag.DurationVar((*time.Duration)(&cl.StaleBound), "stale-bound", 0, fmt.Sprintf("follower-read staleness bound; older views reply -STALE (0 = default %v)", rep.StaleBound))
	flag.DurationVar((*time.Duration)(&cl.ProbeInterval), "probe-interval", 0, fmt.Sprintf("health-monitor probe cadence (0 = default %v)", rep.ProbeInterval))
	flag.IntVar(&cl.ProbeThreshold, "probe-threshold", 0, fmt.Sprintf("consecutive probe failures that declare a node dead and promote its standby (0 = default %d; park high to brown out without failover)", rep.ProbeThreshold))
	scenario := flag.String("scenario", "", "play this chaos scenario's steps — faults, node kills, adds and removes — against the live server (library name or JSON file)")
	flag.Int64Var(&spec.Seed, "fault-seed", 1, "fault registry seed for -scenario runs")
	flag.IntVar(&spec.Load.Tenants, "tenants", 0, "serve n demo tenants (t0../s0..) behind AUTH with isolated views (0 = single-tenant)")
	flag.Uint64Var(&spec.Quotas.MaxBytes, "tenant-max-bytes", 0, "per-tenant stored-bytes quota (0 = unlimited)")
	flag.Uint64Var(&spec.Quotas.MaxKeys, "tenant-max-keys", 0, "per-tenant key-count quota (0 = unlimited)")
	flag.Float64Var(&spec.Quotas.Rate, "tenant-rate", 0, "per-tenant command rate limit per second (0 = unlimited)")
	flag.DurationVar((*time.Duration)(&cl.Deadline), "deadline", 0, "default per-command deadline budget, converted to cycles at the machine's clock (0 = none; clients override with DEADLINE <ms>)")
	flag.BoolVar(&cl.Breakers, "breakers", false, "arm a circuit breaker per remote cluster node (needs -cluster)")
	flag.IntVar(&cl.BreakerThreshold, "breaker-threshold", 0, fmt.Sprintf("consecutive failures that trip a breaker (0 = default %d)", ov.BreakerThreshold))
	flag.DurationVar((*time.Duration)(&cl.BreakerCooldown), "breaker-cooldown", 0, fmt.Sprintf("open-breaker fail-fast window before a half-open probe (0 = default %v)", ov.BreakerCooldown))
	flag.Parse()

	if cl.Nodes == 0 {
		// No -cluster is the paper's single RedisJMP store: a cluster of one
		// co-resident node, served on the VAS-switch path whatever -mode says.
		cl.Nodes, cl.Mode = 1, string(cluster.ModeVAS)
	}
	if *scenario != "" {
		played, err := loadScenario(*scenario)
		if err != nil {
			fatal(err)
		}
		spec.Steps = played.Steps
		fmt.Fprintf(os.Stderr, "spacejmp-server: playing scenario %s (%d steps, seed %d)\n",
			played.Name, len(spec.Steps), spec.Seed)
	}
	front.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "spacejmp-server: "+format+"\n", args...)
	}
	st, err := chaos.Boot(&spec, front)
	if err != nil {
		fatal(err)
	}
	if st.Tenants != nil {
		fmt.Fprintf(os.Stderr, "spacejmp-server: %s\n", st.Tenants)
	}
	fmt.Fprintf(os.Stderr, "spacejmp-server: listening on %s (%s, queue %d, pipeline %d)\n",
		st.Server.Addr(), st.Machine.Cfg.Name, cl.QueueDepth, front.Pipeline)
	fmt.Fprint(os.Stderr, st.Router.String())
	if st.Admin != nil {
		fmt.Fprintf(os.Stderr, "spacejmp-server: admin on http://%s (/healthz /stats /trace)\n", st.Admin)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	<-sigs
	fmt.Fprintln(os.Stderr, "spacejmp-server: draining...")
	reports, shutdownErr, leakErr := st.Teardown()
	for _, r := range reports {
		line := fmt.Sprintf("spacejmp-server: scenario step %d: %s fired %d/%d", r.Step, r.Point, r.Fired, r.Hits)
		if r.Err != "" {
			line += " err=" + r.Err
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if shutdownErr != nil {
		fmt.Fprintf(os.Stderr, "spacejmp-server: shutdown: %v\n", shutdownErr)
	}
	if leakErr != nil {
		fmt.Fprintf(os.Stderr, "spacejmp-server: leak check: %v\n", leakErr)
	} else {
		fmt.Fprintln(os.Stderr, "spacejmp-server: all simulated frames reclaimed")
	}

	snap := st.Sys.Stats()
	if snap == nil {
		return
	}
	if *jsonOut {
		if b, err := snap.JSON(); err == nil {
			os.Stderr.Write(append(b, '\n'))
		}
		return
	}
	snap.WriteText(os.Stderr)
}

// loadScenario resolves a -scenario argument: a library name first, then a
// JSON scenario file.
func loadScenario(arg string) (*chaos.Spec, error) {
	if spec, ok := chaos.Lookup(arg); ok {
		return spec, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: not a library scenario (have %v) and %w",
			arg, chaos.Names(), err)
	}
	return chaos.ParseSpec(data)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spacejmp-server: %v\n", err)
	os.Exit(1)
}
