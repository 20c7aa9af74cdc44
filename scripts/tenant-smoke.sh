#!/bin/sh
# Multi-tenant smoke test against the real binaries: boot spacejmp-server
# with two demo tenants and a small per-tenant key quota, drive the load
# generator in tenant mode (every connection AUTHs, values are verified
# against the tenant-qualified key, and periodic probes GET the other
# tenant's view), then read the admin surface. The run passes only if the
# cross-view probes were denied with -NOPERM (the load generator exits
# nonzero on any leak), the key quota produced rejections once the
# keyspace outgrew it, and those rejections are visible as nonzero
# quota_rejections in /stats and /tenants.
set -e

cd "$(dirname "$0")/.."

. scripts/lib.sh

boot_server tenant-smoke \
    -machine small -workers 2 -tenants 2 -tenant-max-keys 24

# Phase 1: both views inside quota. Exits nonzero on any mismatch, error,
# or cross-view leak; the probe counter proves isolation was actually hit.
"$tmp/spacejmp-load" -addr "$addr" -conns 4 -pipeline 4 -n 192 \
    -set-percent 40 -keys 16 -value 32 -tenants 2 -auth -cross-check 8 \
    >"$tmp/load1.out"
cat "$tmp/load1.out"
denied=$(sed -n 's/.*cross-denied  \([0-9]*\).*/\1/p' "$tmp/load1.out")
if [ -z "$denied" ] || [ "$denied" -eq 0 ]; then
    echo "tenant-smoke: no cross-view probes were denied" >&2
    exit 1
fi

# Phase 2: a keyspace four times the quota. Rejections are admission
# answers, not errors, so the run still verifies clean — but the counter
# must move.
"$tmp/spacejmp-load" -addr "$addr" -conns 4 -pipeline 4 -n 192 \
    -set-percent 40 -keys 96 -value 32 -tenants 2 -auth -cross-check 8 \
    >"$tmp/load2.out"
cat "$tmp/load2.out"
rejected=$(sed -n 's/.*quota-rejected  \([0-9]*\).*/\1/p' "$tmp/load2.out")
if [ -z "$rejected" ] || [ "$rejected" -eq 0 ]; then
    echo "tenant-smoke: quota never rejected anything" >&2
    exit 1
fi

# The admin surface must agree: per-tenant blocks in /stats carry the
# rejections, and /tenants lists both views with their usage.
curl -sf "http://$admin/healthz" | grep -q '"status":"ok"' || {
    echo "tenant-smoke: /healthz not ok" >&2; exit 1; }
curl -sf "http://$admin/stats" >"$tmp/stats.json"
grep -q '"quota_rejections": *[1-9]' "$tmp/stats.json" || {
    echo "tenant-smoke: /stats shows no quota rejections" >&2; exit 1; }
curl -sf "http://$admin/tenants" >"$tmp/tenants.json"
grep -q '"t0"' "$tmp/tenants.json" && grep -q '"t1"' "$tmp/tenants.json" || {
    echo "tenant-smoke: /tenants missing a demo tenant" >&2; exit 1; }
grep -q '"quota_rejections": *[1-9]' "$tmp/tenants.json" || {
    echo "tenant-smoke: /tenants shows no quota rejections" >&2; exit 1; }

stop_server
echo "tenant-smoke: OK"
