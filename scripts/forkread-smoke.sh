#!/bin/sh
# Fork/follower-read smoke test against the real binaries: boot a
# replicated cluster server with follower reads enabled and an aggressive
# ship cadence, then drive the load generator in -stale-reads mode — every
# connection goes READONLY and interleaves versioned staleness probes, so
# the run exits nonzero if a follower ever silently serves a value older
# than the bound. The write-heavy mix keeps checkpoint ships (and thus
# frozen-view forks) happening under live traffic the whole run. Afterwards
# the admin surface must show the fork machinery actually ran: forked
# views, follower-served reads, and off-mutex ship timings in /stats — and
# that only each node's first ship moved its whole segment.
set -e

cd "$(dirname "$0")/.."

. scripts/lib.sh

boot_server forkread-smoke \
    -machine small -workers 1 -cluster 3 -seg 1048576 \
    -replicate -ship-every 4 -follower-reads -stale-bound 250ms

# The verifying run: exits nonzero on any mismatch, error, or a staleness-
# bound violation (a too-old version served without -STALE). The probe
# counter proves the bound was actually exercised, not just not violated.
"$tmp/spacejmp-load" -addr "$addr" -conns 4 -pipeline 4 -n 384 \
    -set-percent 60 -keys 256 -value 64 \
    -stale-reads -stale-bound 2s -stale-check 8 \
    >"$tmp/load.out"
cat "$tmp/load.out"
probes=$(sed -n 's/.*probes  \([0-9]*\).*/\1/p' "$tmp/load.out")
if [ -z "$probes" ] || [ "$probes" -eq 0 ]; then
    echo "forkread-smoke: no staleness probes ran" >&2
    exit 1
fi
violations=$(sed -n 's/.*violations  \([0-9]*\).*/\1/p' "$tmp/load.out")
if [ -z "$violations" ] || [ "$violations" -ne 0 ]; then
    echo "forkread-smoke: staleness-bound violations: ${violations:-unparsed}" >&2
    exit 1
fi

# The admin surface must agree that shipping went through frozen forks and
# reads were served from them.
curl -sf "http://$admin/healthz" | grep -q '"status":"ok"' || {
    echo "forkread-smoke: /healthz not ok" >&2; exit 1; }
curl -sf "http://$admin/stats" >"$tmp/stats.json"
grep -q '"forks": *[1-9]' "$tmp/stats.json" || {
    echo "forkread-smoke: /stats shows no frozen-view forks" >&2; exit 1; }
grep -q '"follower_reads": *[1-9]' "$tmp/stats.json" || {
    echo "forkread-smoke: /stats shows no follower-served reads" >&2; exit 1; }
grep -q '"ships": *[1-9]' "$tmp/stats.json" || {
    echo "forkread-smoke: /stats shows no checkpoint ships" >&2; exit 1; }
# Ships are deltas: each replicated node got its whole segment once, at boot,
# and every ship since patched the standing standby — full_ships stays at the
# number of replicated nodes while ships grows past it.
replicated=$(curl -sf "http://$admin/topology" | grep -c '"replicated": *true' || true)
ships=$(sed -n 's/.*"ships": *\([0-9]*\).*/\1/p' "$tmp/stats.json" | head -n 1)
full=$(sed -n 's/.*"full_ships": *\([0-9]*\).*/\1/p' "$tmp/stats.json" | head -n 1)
if [ "$replicated" -lt 1 ] || [ "${full:-0}" -ne "$replicated" ] || [ "${ships:-0}" -le "$full" ]; then
    echo "forkread-smoke: ${ships:-?} ships, ${full:-?} of them full, $replicated replicated nodes: want one full ship per node and more ships than that" >&2
    exit 1
fi

stop_server
echo "forkread-smoke: OK"
