#!/bin/sh
# Chaos smoke test: build spacejmp-chaos once and run the library scenarios
# that guard the cluster's headline behaviours, each with its invariant
# checks. Every run also streams its own /stats/delta long-poll and requires
# at least one delta per scenario step, so the admin surface is exercised on
# every smoke. What would fail where is said beside each scenario.
set -e

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/spacejmp-chaos" ./cmd/spacejmp-chaos
chaos="$tmp/spacejmp-chaos"

# A 3-node cluster in auto mode (shared-VAS fast path and urpc channels both
# live) under the verifying load generator's MGET-heavy mix over real TCP:
# commands served on BOTH paths (min_local/min_remote), zero mismatches, zero
# terminal errors, a leak-free zero-goroutine drain. A routing bug that
# silently sends everything local would pass a plain load test and fail here.
echo "chaos-smoke: cluster-baseline"
"$chaos" -scenario cluster-baseline -quiet

# A replicated 4-node cluster whose two remote shard nodes crash in sequence
# mid-load: exactly two standby promotions (seen in both the counters and the
# trace ring), at least one checkpoint ship, zero lost updates, zero degraded
# ranges, zero verification failures. A monitor that never ships, or a router
# that keeps serving a dead primary, fails here though a load test would pass.
echo "chaos-smoke: rolling-node-kills"
"$chaos" -scenario rolling-node-kills -quiet

# Every urpc frame is dropped for a 250ms window: during it remote commands
# may only fail as retryable refusals, and after the heal the same keys must
# still verify. The scenario is dumped with -dump and re-run via -spec, so the
# declarative JSON file format itself is exercised, not just the Go structs.
echo "chaos-smoke: partition-then-heal (via JSON spec file)"
"$chaos" -scenario partition-then-heal -dump > "$tmp/partition.json"
"$chaos" -spec "$tmp/partition.json" -quiet

# A node joins mid-run, a fair share of placement slots migrates onto it under
# verifying load, then the same node is drained and retired: every command
# must verify, with only retryable -MOVED refusals allowed around the flips.
# Round-tripped through JSON too, which exercises the declarative surface of
# the pseudo-points cluster.node.add, cluster.node.remove, cluster.slot.migrate.
echo "chaos-smoke: elastic-add-remove (via JSON spec file)"
"$chaos" -scenario elastic-add-remove -dump > "$tmp/elastic.json"
"$chaos" -spec "$tmp/elastic.json" -quiet

# A slot migration pointed at a crashing node must abort and roll back,
# leaving the source authoritative and the failure counted exactly once.
echo "chaos-smoke: migration-target-killed"
"$chaos" -scenario migration-target-killed -quiet

echo "chaos-smoke: OK"
