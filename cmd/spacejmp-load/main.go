// Command spacejmp-load is a closed-loop RESP load generator for
// cmd/spacejmp-server: N connections each keep a fixed pipeline of mixed
// GET/SET/MGET commands in flight, values are deterministic binary bytes
// (embedded CRLF included) so every reply is verified element by element,
// and per-command latency percentiles are reported at the end. It doubles
// as the integration harness the serving-layer and cluster tests run
// in-process. Against a -cluster server, MGETs fan out across shard nodes,
// so -mget is the knob that exercises the multi-key VAS-vs-urpc contrast.
//
// Usage:
//
//	spacejmp-load [-addr host:port] [-conns n] [-pipeline n] [-n requests]
//	              [-set-percent p] [-mget p] [-mget-keys n]
//	              [-keys n] [-value bytes] [-seed s] [-reconnect]
//	              [-tenants n] [-cross-check n]
//	              [-stale-reads] [-stale-bound d] [-deadline d]
//
// With -reconnect, a connection that loses its transport (a chaos scenario
// dropping conns, a server mid-failover) redials and works through its
// remaining quota instead of failing the run; survived disconnects are
// reported alongside the verification counters.
//
// With -tenants N, the load runs multi-tenant against a server booted
// with the same -tenants N: connection i authenticates as demo tenant
// t(i%N) and works that tenant's view, values verified against the
// tenant-qualified key so views never silently alias. With two or more
// tenants, every -cross-check'th command probes another tenant's view; the
// only correct reply is -NOPERM, and any data reply is reported (and fails
// the run) as a cross-view leak.
//
// With -stale-reads, every connection opts into follower reads (READONLY)
// against a cluster server running with -follower-reads, and makes every 8th
// command a versioned staleness probe: each probe GET must return either
// a version no older than -stale-bound or the typed -STALE refusal. A stale
// version served silently is a staleness-bound violation and fails the run.
// Set -stale-bound to the server's bound plus shipping slack.
package main

import (
	"flag"
	"fmt"
	"os"

	"spacejmp/internal/server"
)

func main() {
	cfg := server.LoadConfig{}
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:6379", "server address")
	flag.IntVar(&cfg.Conns, "conns", 64, "concurrent connections")
	flag.IntVar(&cfg.Pipeline, "pipeline", 8, "commands in flight per connection")
	flag.IntVar(&cfg.Requests, "n", 1024, "commands per connection")
	flag.IntVar(&cfg.SetPercent, "set-percent", 20, "percentage of SETs in the mix")
	flag.IntVar(&cfg.MGetPercent, "mget", 0, "percentage of MGETs in the mix (carved from the GET share)")
	flag.IntVar(&cfg.MGetKeys, "mget-keys", 4, "keys per MGET")
	flag.IntVar(&cfg.Keys, "keys", 512, "keyspace size")
	flag.IntVar(&cfg.ValueSize, "value", 64, "value size in bytes")
	flag.Int64Var(&cfg.Seed, "seed", 1, "per-connection PRNG seed base")
	flag.BoolVar(&cfg.Reconnect, "reconnect", false, "redial on transport failure instead of aborting the run")
	flag.IntVar(&cfg.Tenants, "tenants", 0, "spread connections across n demo tenants, each AUTHed as its tenant")
	flag.IntVar(&cfg.CrossCheckEvery, "cross-check", 0, "probe another tenant's view every n commands (0 = default 32; needs 2+ tenants)")
	flag.BoolVar(&cfg.StaleReads, "stale-reads", false, "opt connections into follower reads (READONLY) and verify the staleness bound with versioned probes")
	flag.DurationVar(&cfg.StaleBound, "stale-bound", 0, "verifying staleness bound for probe GETs (0 = default 1s; set to server bound plus slack)")
	flag.DurationVar(&cfg.Deadline, "deadline", 0, "stamp every command with this deadline budget (DEADLINE prefix command; 0 = server default)")
	flag.Parse()

	res, err := server.RunLoad(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spacejmp-load: %v\n", err)
		os.Exit(1)
	}
	res.WriteText(os.Stdout, "")
	for _, n := range res.Failures() {
		if n > 0 {
			os.Exit(1)
		}
	}
}
