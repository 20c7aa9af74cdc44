#!/bin/sh
# Tier-1 gate: everything a change must pass before merging.
# Run from the repo root: ./scripts/check.sh
set -e

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== layering gates =="
# The slot-table is the single placement authority: nobody outside the
# placement implementation may hash a key straight onto a node count.
offenders=$(grep -rn "fnv" --include='*.go' ./internal/cluster ./internal/server ./internal/chaos || true)
if [ -n "$offenders" ]; then
    echo "direct key hashing outside the placement implementation:" >&2
    echo "$offenders" >&2
    exit 1
fi

# Store construction in the serving layers goes through NewClientNamed so
# every shard carries its node's namespace (and a tenant view is just a
# prefix inside it). A bare redis.NewClient would silently collapse all
# nodes onto the default store names.
offenders=$(grep -rn "redis\.NewClient(" --include='*.go' ./internal/server ./internal/cluster || true)
if [ -n "$offenders" ]; then
    echo "direct redis.NewClient in serving code (use NewClientNamed):" >&2
    echo "$offenders" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== size budgets (non-test Go lines, counted as the benchmark's repo.nontest_go_loc; document bytes) =="
# What the tree may weigh. A PR that needs more raises the number here, in
# the same diff, so lines and prose are spent knowingly and not by accretion.
budget_loc=26250
budget_design=45000
budget_readme=25600
budget_skill=15000
loc=$(find . -name '.?*' -prune -o -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)
over=
check_budget() {
    echo "$1 $2 (budget $3)"
    [ "$2" -le "$3" ] || over="$over $1"
}
check_budget nontest_go_loc "$loc" $budget_loc
check_budget DESIGN.md "$(wc -c <DESIGN.md)" $budget_design
check_budget README.md "$(wc -c <README.md)" $budget_readme
check_budget SKILL.md "$(wc -c <.claude/skills/verify/SKILL.md)" $budget_skill
if [ -n "$over" ]; then
    echo "over budget:$over" >&2
    exit 1
fi

echo "== simulated-clock golden (paper figures, -quick) =="
# The figure tables are functions of the modelled machine alone, so a change
# to the host side of the simulator must reproduce them byte for byte. The
# counters table is left out: its lock-wait-ns line is wall-clock. When a
# change to the *modelled* system moves a figure, regenerate the file with
# this command and say so in EXPERIMENTS.md.
go run ./cmd/spacejmp-bench -quick table2 fig1 fig6 fig7 fig8 fig9 fig10a fig10b fig10c fig11 fig12 ablations |
    diff -u testdata/figures-quick.golden - || {
    echo "simulated-clock figures differ from testdata/figures-quick.golden" >&2
    exit 1
}

echo "== flag surface golden (spacejmp-server, spacejmp-load, spacejmp-chaos -h) =="
# The three binaries' options are an interface: a change that says it adds or
# removes none must leave this diff empty. When one is meant to move,
# regenerate the file with the command in the parentheses and say why in
# CHANGES.md.
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/spacejmp-server ./cmd/spacejmp-load ./cmd/spacejmp-chaos
(cd "$bin" && { ./spacejmp-server -h; ./spacejmp-load -h; ./spacejmp-chaos -h; } 2>&1) |
    diff -u testdata/flags.golden - || {
    echo "command-line flags differ from testdata/flags.golden" >&2
    exit 1
}

echo "== go test -race =="
go test -race ./...

echo "== flake gate (timer-driven packages, the connection loop, and the fork engine, COW chain and attach/switch paths under them, 10 runs each) =="
go test -count=10 ./internal/cluster ./internal/chaos ./internal/server ./internal/fork ./internal/vm ./internal/core
# Run alone is where a stack that boots its cluster before arming the whole-run
# fault rules shows; the package-level runs above under-sample it.
go test -count=20 -run 'TestScenarioLibrary/checkpoint-corruption-storm$' ./internal/chaos
# The L0's protocol with remote flushes and with snapshots of a live machine.
go test -race -count=5 ./internal/tlb ./internal/hw ./internal/stats

echo "== benchmark module (compiles against this tree, short tests) =="
(cd bench && go vet ./... && go test -short ./...)

echo "== bench smoke (the wire-path, stats, L0-hit, run-length, store, batch, ship and fork rungs of the ladder still run) =="
go test -run '^$' -bench 'ReadCommand|DecodeCommand|Call|RouterExec(Local|Remote)|RouterExecRun|RouterMGet|SnapshotDelta|Load64Hit|LoadWords|StoreWords|JmpGet|JmpSet|ApplyImage|ShipDelta|ForkSteadyState' -benchtime 100x \
    ./internal/redis ./internal/urpc ./internal/cluster ./internal/stats ./internal/hw ./internal/fork

echo "== fuzz smoke (RESP parser against the reference reader) =="
go test -run Fuzz -fuzz=FuzzReadCommand -fuzztime=10s ./internal/redis

echo "== fuzz smoke (chaos scenario parser) =="
go test -run Fuzz -fuzz=FuzzParseSpec -fuzztime=10s ./internal/chaos

echo "== fuzz smoke (tenant admission) =="
go test -run Fuzz -fuzz=FuzzAuthCommand -fuzztime=10s ./internal/server

echo "== fuzz smoke (TLB against the scanning reference model) =="
go test -run Fuzz -fuzz=FuzzTLBModel -fuzztime=10s ./internal/tlb

echo "== chaos smoke (baseline, node kills, partition, elastic add/remove, failed migration) =="
./scripts/chaos-smoke.sh

echo "== tenant smoke (AUTH, cross-view denial, quotas in /stats) =="
./scripts/tenant-smoke.sh

echo "== forkread smoke (fork-based ships + bounded-stale follower reads) =="
./scripts/forkread-smoke.sh

echo "== brownout smoke (breaker trips, writes shed, reads degrade to stale views) =="
./scripts/brownout-smoke.sh

echo "OK"
