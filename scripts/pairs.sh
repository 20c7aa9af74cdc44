#!/usr/bin/env bash
# Interleaved pairs: the repo benchmark on a parent ref and on this checkout,
# run alternately so that drift on the host falls on both sides alike.
#
#   scripts/pairs.sh REF N [workload...]
#
# REF is any git ref (its committed files are what run); N is the number of
# pairs per workload; the workloads default to every one BENCHMARK.json
# declares. Each pair runs `bash bench/run.sh -workload W -seed S -seconds T`,
# T being BENCHMARK.json's run_seconds, once on each side, the side that goes
# first swapped from pair to pair, and keeps the last line of each run: its
# JSON result. With TRACE=1 each side also runs `-trace 1`, whose per-layer
# metrics join that pair's record.
#
# Printed per workload and metric: the median and quartiles of each side, the
# change of the medians, and how many pairs point each way by the metric's
# direction in BENCHMARK.json. The same, with every run, is written as JSON to
# OUT. Environment: SEED (1), TRACE (0), OUT (BENCH.json).
# REF's copy is extracted with git archive into a temporary directory under
# TMPDIR and removed on exit; nothing under bench/ is changed.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 REF N [workload...]" >&2
    exit 2
fi
ref=$1 pairs=$2
shift 2
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seed=${SEED:-1} trace=${TRACE:-0} out=${OUT:-BENCH.json}
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")
case $out in /*) ;; *) out="$root/$out" ;; esac
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c 'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' "$root/BENCHMARK.json")
fi

refsha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
headsha=$(git -C "$root" rev-parse HEAD)
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    headsha="$headsha+changes"
fi
tmp=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$refsha" | tar -x -C "$tmp/ref"
runs="$tmp/runs.jsonl"

# run SIDE DIR W PAIR: one side's record of a pair, appended to runs.
run() {
    local side=$1 dir=$2 w=$3 pair=$4 line traced=null
    echo "pair $pair/$pairs $w: $side" >&2
    line=$(cd "$dir" && bash bench/run.sh -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 | tail -n 1) || true
    if [ "$trace" = 1 ]; then
        traced=$(cd "$dir" && bash bench/run.sh -workload "$w" -seed "$seed" -seconds "$seconds" -trace 1 | tail -n 1) || true
    fi
    printf '{"side":"%s","workload":"%s","pair":%d,"run":%s,"traced":%s}\n' \
        "$side" "$w" "$pair" "${line:-null}" "${traced:-null}" >>"$runs"
}

for w in "${workloads[@]}"; do
    for ((p = 1; p <= pairs; p++)); do
        if ((p % 2)); then
            run ref "$tmp/ref" "$w" "$p"
            run head "$root" "$w" "$p"
        else
            run head "$root" "$w" "$p"
            run ref "$tmp/ref" "$w" "$p"
        fi
    done
done

python3 - "$root/BENCHMARK.json" "$runs" "$out" "$refsha" "$headsha" "$seed" "$seconds" "$pairs" <<'EOF'
import json, statistics, sys

bench, runs, out, refsha, headsha, seed, seconds, pairs = sys.argv[1:]
decl = json.load(open(bench))
better = {m["name"]: m["better"] for m in decl["end_to_end"] + decl["per_layer"]}
units = {m["name"]: m["unit"] for m in decl["end_to_end"] + decl["per_layer"]}

# recs[workload][pair][side] = {metric: value}; a failed or incorrect run is None.
recs, order = {}, []
for line in open(runs):
    r = json.loads(line)
    vals = None
    for res in (r["run"], r["traced"]):
        if res is None:
            continue
        if not res.get("correct"):
            vals = None
            break
        vals = vals or {}
        vals.update({k: v["value"] for k, v in res["metrics"].items()})
    if r["workload"] not in recs:
        order.append(r["workload"])
    recs.setdefault(r["workload"], {}).setdefault(r["pair"], {})[r["side"]] = vals

def spread(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

result = {"ref": refsha, "head": headsha, "seed": int(seed), "seconds": int(seconds),
          "pairs": int(pairs), "workloads": {}}
for w in order:
    byPair = recs[w]
    failed = {s: sum(1 for p in byPair.values() if p.get(s) is None) for s in ("ref", "head")}
    whole = [p for p in byPair.values() if p.get("ref") and p.get("head")]
    names = sorted({k for p in whole for k in p["ref"]} & {k for p in whole for k in p["head"]},
                   key=lambda k: (k not in better, list(better).index(k) if k in better else k))
    print(f"\n== {w}: {len(whole)} whole pairs (failed runs: ref {failed['ref']}, head {failed['head']}) ==")
    print(f"{'metric':36} {'ref median':>14} {'[q1, q3]':>25} {'head median':>14} {'[q1, q3]':>25} {'change':>8}  head better/worse/equal")
    rows = {}
    for k in names:
        ref = [p["ref"][k] for p in whole if k in p["ref"] and k in p["head"]]
        head = [p["head"][k] for p in whole if k in p["ref"] and k in p["head"]]
        if not ref:
            continue
        (rq1, rmed, rq3), (hq1, hmed, hq3) = spread(ref), spread(head)
        sign = {"higher": 1, "lower": -1}.get(better.get(k), 0)
        up = sum(1 for a, b in zip(ref, head) if sign * (b - a) > 0)
        down = sum(1 for a, b in zip(ref, head) if sign * (b - a) < 0)
        change = (hmed - rmed) / abs(rmed) if rmed else 0.0
        rows[k] = {"unit": units.get(k, ""), "better": better.get(k, ""),
                   "ref": {"median": rmed, "q1": rq1, "q3": rq3, "runs": ref},
                   "head": {"median": hmed, "q1": hq1, "q3": hq3, "runs": head},
                   "change": change, "head_better": up, "head_worse": down}
        dirs = f"{up}/{down}/{len(ref) - up - down}" if sign else "-"
        print(f"{k:36} {rmed:14.6g} {f'[{rq1:.6g}, {rq3:.6g}]':>25} {hmed:14.6g} {f'[{hq1:.6g}, {hq3:.6g}]':>25} {change:+8.2%}  {dirs}")
    result["workloads"][w] = {"failed_runs": failed, "metrics": rows}
with open(out, "w") as f:
    json.dump(result, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"\nwritten: {out}")
EOF
