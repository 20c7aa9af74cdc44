#!/bin/sh
# Overload-protection smoke test against the real binaries: boot a
# replicated cluster with per-node circuit breakers armed, follower reads
# on, and a hair-trigger breaker threshold, then play a probe-drop window
# against node 2 (its data path stays healthy — a brownout, not a crash;
# the probe threshold is parked out of reach so failover never fires)
# while the verifying load generator runs every connection READONLY with a
# per-command deadline budget. The load must stay clean — retryable
# -SHARDTIMEOUT/-DEADLINE refusals are backpressure, not failures — and
# afterwards /stats must show the overload machinery actually ran: breaker
# trips AND recloses, writes shed fast, and reads degraded to bounded-stale
# frozen views instead of queueing behind the browned-out node.
set -e

cd "$(dirname "$0")/.."

. scripts/lib.sh

# Steps-only scenario for the live server: drop node 2's health probes for
# a long window. The server plays only a scenario's steps; its shape is the
# flags below, stated once.
cat >"$tmp/brownout.json" <<'EOF'
{
  "name": "brownout-smoke",
  "description": "probe-drop window against node 2 for the smoke script",
  "steps": [
    {
      "point": "cluster.probe.drop",
      "target": 2,
      "policy": {"kind": "always"},
      "after": "200ms",
      "for": "10s"
    }
  ]
}
EOF

boot_server brownout-smoke \
    -machine small -workers 1 -cluster 3 -seg 1048576 \
    -replicate -ship-every 4 -follower-reads -stale-bound 2s \
    -breakers -breaker-threshold 1 -breaker-cooldown 25ms \
    -probe-interval 5ms -probe-threshold 100000 \
    -deadline 250ms -scenario "$tmp/brownout.json"

# The verifying run spans the probe-drop window: READONLY connections with
# versioned staleness probes (so degraded reads are bound-checked, not just
# counted) and a generous per-command deadline budget on every command.
"$tmp/spacejmp-load" -addr "$addr" -conns 4 -pipeline 4 -n 8192 \
    -set-percent 30 -keys 256 -value 64 \
    -stale-reads -stale-bound 4s -stale-check 8 \
    -deadline 250ms \
    >"$tmp/load.out"
cat "$tmp/load.out"
probes=$(sed -n 's/.*probes  \([0-9]*\).*/\1/p' "$tmp/load.out")
if [ -z "$probes" ] || [ "$probes" -eq 0 ]; then
    echo "brownout-smoke: no staleness probes ran" >&2
    exit 1
fi
violations=$(sed -n 's/.*violations  \([0-9]*\).*/\1/p' "$tmp/load.out")
if [ -z "$violations" ] || [ "$violations" -ne 0 ]; then
    echo "brownout-smoke: staleness-bound violations: ${violations:-unparsed}" >&2
    exit 1
fi

# The brownout must never promote: the node is slow, not dead.
curl -sf "http://$admin/healthz" | grep -q '"status":"ok"' || {
    echo "brownout-smoke: /healthz not ok (spurious failover?)" >&2; exit 1; }

# /stats must show the whole overload story: the breaker tripped AND
# reclosed under live traffic, open-breaker writes were shed fast, and
# reads degraded to stale views instead of queueing behind node 2.
curl -sf "http://$admin/stats" >"$tmp/stats.json"
grep -q '"breaker_opens": *[1-9]' "$tmp/stats.json" || {
    echo "brownout-smoke: /stats shows no breaker trips" >&2; exit 1; }
grep -q '"breaker_closes": *[1-9]' "$tmp/stats.json" || {
    echo "brownout-smoke: /stats shows no breaker recloses" >&2; exit 1; }
grep -q '"shed": *[1-9]' "$tmp/stats.json" || {
    echo "brownout-smoke: /stats shows no shed dispatches" >&2; exit 1; }
grep -q '"degraded_reads": *[1-9]' "$tmp/stats.json" || {
    echo "brownout-smoke: /stats shows no degraded reads" >&2; exit 1; }

stop_server
echo "brownout-smoke: OK"
