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
budget_loc=25461
budget_design=48219
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

echo "== checked examples (every // Output:, three runs) =="
# go test runs an example once whatever -count says, so the repeat is a loop:
# an example whose output varies run to run fails one of the three.
for _ in 1 2 3; do
    go test -count=1 -run '^Example' . ./internal/chaos
done

echo "== flake gate (timer-driven packages, the connection loop, and the fork engine, COW chain and attach/switch paths under them, 10 runs each) =="
go test -count=10 ./internal/cluster ./internal/chaos ./internal/server ./internal/fork ./internal/vm ./internal/core
# Run alone is where a stack that boots its cluster before arming the whole-run
# fault rules shows; the package-level runs above under-sample it.
go test -count=20 -run 'TestScenarioLibrary/checkpoint-corruption-storm$' ./internal/chaos
# The L0's protocol with remote flushes and with snapshots of a live machine;
# the unlocked owner side of the TLB; a switch reading a process's death flag
# without its mutex; tags reused from the pool (core's TestReusedTagsIsolate
# and friends), and the serving stack tagged and never out of tags.
go test -race -count=5 ./internal/tlb ./internal/hw ./internal/core ./internal/stats
go test -race -count=5 -run 'TestStackRunsTagged|TestStackNeverRunsOutOfTags' ./internal/cluster
# The batch path: the plan against what no rule may move, and against the
# per-command model: runs, MGET parts joining them, and the prefix published
# while the batch goes on; the arena a node keeps across frames (node state
# under its mutex), a response appended behind what dst holds, endpoints
# connected on first use while PendingFrames reads every agent's set, values
# and slot moves larger than a urpc ring; two workers' writes to one node
# recorded in the order its store applied them, and warm ships, one whose
# apply failed, then a kill, losing no acknowledged write; warm ships writing no
# checkpoint; a write in flight across a promotion; slot copies onto and off a
# replicated node in its log, a removal waiting out the monitor's ship, a
# write on a migrating slot that timed out recopied onto the target; arguments
# that own their memory, and a connection's reply chunk reused fill after fill
# with no backend touching a batch past its last Answered; a plan that pins
# nothing of a finished batch, each node's steps together; a stretch's remote
# runs in flight together on the worker's clock, and the split-phase call under
# loss and a budget.
go test -race -count=5 -run 'TestRemoteRunsOverlap|TestPostIsCallSplitAtTheTurn|TestSubmittedArgsOwnTheirMemory|TestConnectionReusesItsReplyChunk|TestPlanMatchesTheRule|TestPlanPinsNothingOfAFinishedBatch|TestPlanKeepsKeyOrder|TestBatchMatchesPerCommand|TestRunOfOneIsTheOldCommand|TestRepliesGoOutInArrivalOrder|TestMGetMatchesModel|TestNodeKeepsItsArena|TestCallBudgetAppendsBehindDst|TestFirstUseConnectsUnderPendingFrames|TestValuesLargerThanTheRing|TestMigrateSlotWithALargeValue|TestDeltaLogKeepsTheStoresOrder|TestFailedApplyThenKillServesEveryWrite|TestWarmShipsWriteNoCheckpoint|TestWriteInFlightAcrossPromotionSurvives|TestSlotMovedOntoAReplicatedNodeSurvivesItsKill|TestDeleteSurvivesItsSlotMovingOffAndBack|TestRemoveNodeWaitsOutTheMonitor|TestTimedOutWriteOnAMigratingSlotReachesTheTarget' ./internal/cluster ./internal/urpc
# A fill's requests are one slab the reader, the writer and the workers share,
# reused fill after fill; a load's connections all count into one result.
go test -race -count=5 -run 'TestFillIsOneBatch|TestPartialCommandWaitsForTheNextFill|TestRepliesGoOutAsTheBackendAnswers|TestPipelineDepthBoundsWhatIsInFlight|TestBackendTakesAPrefix|TestPipelineIsOneFillAndOneWrite|TestLoadCountsEachLie|TestLoadCommandStreamsPinned' ./internal/server

echo "== benchmark module (compiles against this tree, short tests) =="
(cd bench && go vet ./... && go test -short ./...)

echo "== bench smoke and rungs golden (the wire-path, stats, L0-hit, TLB-miss, switch, run-length, store, batch, ship and fork rungs of the ladder) =="
# The rungs' simulated metrics, like the figures, are functions of the modelled
# machine alone and repeat for any GOMAXPROCS (the -N suffix is cut): a host-side
# change must leave this diff empty. Host metrics (ns/op, B/op, allocs/op) stay
# out. When a change to the modelled system moves a rung, regenerate the file
# from these two commands and say so in EXPERIMENTS.md.
go test -run '^$' -bench 'ReadCommand|DecodeCommand|Call|RouterExec(Local|Remote)|RouterExecRun|RouterExecBatch|RouterMGet|SnapshotDelta|Load64Hit|Load64Miss|VASSwitchPair|LoadWords|StoreWords|JmpGet|JmpSet|ApplyImage|ShipDelta|ForkSteadyState' -benchtime 100x \
    ./internal/redis ./internal/urpc ./internal/cluster ./internal/stats ./internal/hw ./internal/core ./internal/fork >"$bin/rungs.out" || {
    cat "$bin/rungs.out" >&2
    exit 1
}
awk '/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    row = ""
    for (i = 3; i < NF; i += 2)
        if ($(i + 1) ~ /^(sim-cycles\/op|cycles\/cmd|switches\/cmd|frames\/cmd|pages\/op|data-pages)$/)
            row = row "\t" $i " " $(i + 1)
    if (row != "")
        print name row
}' "$bin/rungs.out" | diff -u testdata/rungs.golden - || {
    echo "simulated rung metrics differ from testdata/rungs.golden" >&2
    exit 1
}

echo "== fuzz smoke (RESP parser against the reference reader) =="
go test -run Fuzz -fuzz=FuzzReadCommand -fuzztime=10s ./internal/redis

echo "== fuzz smoke (chaos scenario parser) =="
go test -run Fuzz -fuzz=FuzzParseSpec -fuzztime=10s ./internal/chaos

echo "== fuzz smoke (tenant admission) =="
go test -run Fuzz -fuzz=FuzzAuthCommand -fuzztime=10s ./internal/server

echo "== fuzz smoke (TLB against the scanning reference model) =="
go test -run Fuzz -fuzz=FuzzTLBModel -fuzztime=10s ./internal/tlb

echo "== serving smoke (the real binaries: a library scenario against spacejmp-server, spacejmp-load verifies, clean drain) =="
# The binaries' own loop: boot, serve, verify, drain on SIGINT. -scenario is
# only its plumbing (the window may close before the load connects); what a
# scenario must show is its bounds, judged by TestScenarioLibrary.
"$bin/spacejmp-server" -addr 127.0.0.1:0 -machine small -cluster 3 -scenario partition-then-heal 2>"$bin/srv.log" &
srv=$!
addr=
for _ in $(seq 100); do
    addr=$(sed -n 's/.*listening on \([^ ]*\) .*/\1/p' "$bin/srv.log") && [ -n "$addr" ] && break
    sleep 0.1
done
"$bin/spacejmp-load" -addr "$addr" -conns 4 -pipeline 4 -n 1024 -mget 20 || { kill $srv; cat "$bin/srv.log" >&2; exit 1; }
kill -INT $srv && wait $srv
grep -q "all simulated frames reclaimed" "$bin/srv.log" || { cat "$bin/srv.log" >&2; exit 1; }

echo "OK"
