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
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spacejmp/internal/chaos"
	"spacejmp/internal/cluster"
	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/overload"
	"spacejmp/internal/server"
	"spacejmp/internal/tenant"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6379", "listen address")
	workers := flag.Int("workers", 2, "router workers (each claims one simulated core)")
	queue := flag.Int("queue", 64, "per-worker queue depth (full queue replies busy)")
	pipeline := flag.Int("pipeline", 32, "per-connection in-flight command cap")
	segSize := flag.Uint64("seg", 16<<20, "store segment bytes per node")
	machine := flag.String("machine", "M1", "simulated machine: M1, M2, M3, small")
	traceCap := flag.Int("trace", 4096, "trace ring capacity (0 disables tracing)")
	jsonOut := flag.Bool("json", false, "dump the final stats snapshot as JSON")
	clusterN := flag.Int("cluster", 0, "shard the key space across n cluster nodes (0 = one co-resident node)")
	modeFlag := flag.String("mode", "auto", "cluster node placement: vas, urpc, or auto")
	adminAddr := flag.String("admin", "", "HTTP admin address for /healthz, /stats, /trace (empty disables)")
	replicate := flag.Bool("replicate", false, "replicate remote cluster nodes to warm standbys with failover")
	shipEvery := flag.Int("ship-every", 0, "ship a node's checkpoint after this many writes (0 = default)")
	followerReads := flag.Bool("follower-reads", false, "serve READONLY-connection reads from frozen fork views (needs -replicate)")
	staleBound := flag.Duration("stale-bound", 0, "follower-read staleness bound; older views reply -STALE (0 = default 500ms)")
	probeInterval := flag.Duration("probe-interval", 0, "health-monitor probe cadence (0 = default 25ms)")
	probeThreshold := flag.Int("probe-threshold", 0, "consecutive probe failures that declare a node dead and promote its standby (0 = default 3; park high to brown out without failover)")
	scenario := flag.String("scenario", "", "play this chaos scenario's steps — faults, node kills, adds and removes — against the live server (library name or JSON file)")
	faultSeed := flag.Int64("fault-seed", 1, "fault registry seed for -scenario runs")
	tenantsN := flag.Int("tenants", 0, "serve n demo tenants (t0../s0..) behind AUTH with isolated views (0 = single-tenant)")
	tenantMaxBytes := flag.Uint64("tenant-max-bytes", 0, "per-tenant stored-bytes quota (0 = unlimited)")
	tenantMaxKeys := flag.Uint64("tenant-max-keys", 0, "per-tenant key-count quota (0 = unlimited)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant command rate limit per second (0 = unlimited)")
	deadline := flag.Duration("deadline", 0, "default per-command deadline budget, converted to cycles at the machine's clock (0 = none; clients override with DEADLINE <ms>)")
	breakers := flag.Bool("breakers", false, "arm a circuit breaker per remote cluster node (needs -cluster)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive failures that trip a breaker (0 = default 5)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker fail-fast window before a half-open probe (0 = default 100ms)")
	flag.Parse()

	cfg, err := hw.NamedConfig(*machine)
	if err != nil {
		fatal(err)
	}
	var spec *chaos.Spec
	if *scenario != "" {
		if spec, err = loadScenario(*scenario); err != nil {
			fatal(err)
		}
	}
	if *followerReads && !*replicate {
		fatal(fmt.Errorf("-follower-reads requires -replicate (frozen fork views ride the replication engine)"))
	}
	if *breakers && *clusterN <= 0 {
		fatal(fmt.Errorf("-breakers requires -cluster"))
	}
	// No -cluster is the paper's single RedisJMP store: a cluster of one
	// co-resident node, served on the VAS-switch path whatever -mode says.
	nodes, modeName := *clusterN, *modeFlag
	if nodes <= 0 {
		nodes, modeName = 1, string(cluster.ModeVAS)
	}
	mode, err := cluster.ParseMode(modeName)
	if err != nil {
		fatal(err)
	}
	if *replicate {
		// Replication rides NVM checkpoint generations; give machines
		// configured without persistent memory enough to hold them.
		if cfg.Mem.NVMSize == 0 {
			cfg.Mem.NVMSize = 256 << 20
		}
		if cfg.Mem.NVMSuperblock == 0 {
			cfg.Mem.NVMSuperblock = 64 << 20
		}
	}
	m := hw.NewMachine(cfg)
	reg := fault.New(*faultSeed)
	m.SetFaults(reg)
	sys := kernel.New(m)
	sys.EnableStats(*traceCap)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	base := m.PM.AllocatedBytes()
	var tenants *tenant.Registry
	if *tenantsN > 0 {
		tenants, err = tenant.NewDemo(*tenantsN, tenant.Config{Nodes: nodes, Stats: m.Observer()},
			tenant.Quotas{MaxBytes: *tenantMaxBytes, MaxKeys: *tenantMaxKeys, Rate: *tenantRate})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "spacejmp-server: %s\n", tenants)
	}
	srvCfg := server.Config{
		PipelineDepth: *pipeline,
		Tenants:       tenants,
		// Wall-clock deadlines become cycle budgets at the machine's clock;
		// the same rate converts each client DEADLINE <ms> override.
		CyclesPerMilli: uint64(cfg.GHz * 1e6),
	}
	if *deadline > 0 {
		srvCfg.DeadlineCycles = overload.Cycles(*deadline, cfg.GHz)
	}
	router, err := cluster.New(sys, cluster.Config{
		Nodes:      nodes,
		Workers:    *workers,
		Mode:       mode,
		QueueDepth: *queue,
		SegSize:    *segSize,
		Replication: cluster.ReplicationConfig{
			Enabled:        *replicate,
			ShipEvery:      *shipEvery,
			FollowerReads:  *followerReads,
			StaleBound:     *staleBound,
			ProbeInterval:  *probeInterval,
			ProbeThreshold: *probeThreshold,
		},
		Overload: cluster.OverloadConfig{
			Breakers:         *breakers,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
		},
	})
	if err != nil {
		fatal(err)
	}
	srv := server.NewWithBackend(sys, ln, srvCfg, router)
	fmt.Fprintf(os.Stderr, "spacejmp-server: listening on %s (%s, queue %d, pipeline %d)\n",
		srv.Addr(), cfg.Name, *queue, *pipeline)
	fmt.Fprint(os.Stderr, router.String())

	var admin *http.Server
	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fatal(fmt.Errorf("admin: %w", err))
		}
		admin = &http.Server{Handler: server.AdminHandler(sys, router, tenants)}
		go admin.Serve(aln)
		fmt.Fprintf(os.Stderr, "spacejmp-server: admin on http://%s (/healthz /stats /trace)\n",
			aln.Addr())
	}

	var sched *chaos.ScheduleRun
	schedCtx, schedCancel := context.WithCancel(context.Background())
	defer schedCancel()
	if spec != nil {
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "spacejmp-server: "+format+"\n", args...)
		}
		fmt.Fprintf(os.Stderr, "spacejmp-server: playing scenario %s (%d steps, seed %d)\n",
			spec.Name, len(spec.Steps), *faultSeed)
		sched = chaos.StartSchedule(schedCtx, spec.Steps, reg, chaos.RouterOps(router), logf)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	<-sigs
	fmt.Fprintln(os.Stderr, "spacejmp-server: draining...")
	if sched != nil {
		schedCancel()
		reports, _ := sched.Wait(context.Background())
		chaos.FinalizeReports(reg, spec.Steps, reports)
		for _, r := range reports {
			line := fmt.Sprintf("spacejmp-server: scenario step %d: %s fired %d/%d", r.Step, r.Point, r.Fired, r.Hits)
			if r.Err != "" {
				line += " err=" + r.Err
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if err := srv.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "spacejmp-server: shutdown: %v\n", err)
	}
	if admin != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		admin.Shutdown(ctx)
		cancel()
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		fmt.Fprintf(os.Stderr, "spacejmp-server: leak check: %v\n", err)
	} else {
		fmt.Fprintln(os.Stderr, "spacejmp-server: all simulated frames reclaimed")
	}

	snap := sys.Stats()
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
