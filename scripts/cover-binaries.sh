#!/bin/sh
# cover-binaries: integration coverage of every binary and example. Each
# main package is built with -cover -coverpkg=./..., the legs below run
# the way CI and the docs run them with one GOCOVERDIR, and the merged
# counters are reported: the share of statements some binary reached,
# then every function no binary entered ("file:line: name").
#
# It is a report, not a gate: it fails only when a leg fails, never on
# the share. cmd/benchjson and cmd/benchcompare are not run (they drive
# `go test -bench`, not the program), so their packages are absent. The
# live worker and loadtest legs are scripts/loadtest-smoke.sh, run with
# GOFLAGS set so that it builds them instrumented; its worker runs FlowCon
# on the paced engine at debug level, so the run log is reached too.
set -eu

root=$(pwd)
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

bin="$dir/bin"
mkdir -p "$bin" "$dir/cov" "$dir/log" "$dir/run"
for pkg in cmd/flowcon-sim examples/quickstart examples/custommodel examples/fixedsched \
    examples/randomsched examples/faulttolerance examples/livemode bench; do
    go build -cover -coverpkg=./... -o "$bin/$(basename "$pkg")" "./$pkg"
done

# Counters are written only when a process exits cleanly, so every leg
# must run to its own end; one cut off by a timeout reports nothing.
export GOCOVERDIR="$dir/cov"
cd "$dir/run"
leg() {
    name=$1
    shift
    start=$(date +%s)
    if ! "$@" >"$dir/log/$name.log" 2>&1; then
        echo "leg $name failed: $*"
        tail -n 40 "$dir/log/$name.log"
        exit 1
    fi
    echo "leg $name ok ($(($(date +%s) - start))s)"
}

leg sim-all "$bin/flowcon-sim" all
leg sim-csv "$bin/flowcon-sim" -csv csv all
leg sim-scenarios "$bin/flowcon-sim" -scenario all -seeds 2 -trace-out spans.jsonl -record rec
leg sim-shaped "$bin/flowcon-sim" -scenario all -seeds 1 -rebalance -migration-cost 3
leg sim-mega "$bin/flowcon-sim" -scenario megacluster-smoke,chaos-megacluster -seeds 1
trace=$(ls rec/*.jsonl | head -n 1)
leg sim-replay "$bin/flowcon-sim" -replay "$trace" -workers 4
leg sim-list "$bin/flowcon-sim" -scenario-list
for ex in quickstart custommodel fixedsched randomsched faulttolerance livemode; do
    leg "$ex" "$bin/$ex"
done
leg bench "$bin/bench" -quick

# loadtest-smoke.sh builds from the repo root and waits for the worker's
# clean exit after its SIGTERM, so the worker's counters flush too.
cd "$root"
leg live env GOFLAGS="-cover -coverpkg=./..." ./scripts/loadtest-smoke.sh

go tool covdata textfmt -i="$dir/cov" -o "$dir/cover.txt"
go tool cover -func="$dir/cover.txt" >"$dir/func.txt"
echo "reached: $(awk '/^total:/ {print $NF}' "$dir/func.txt") of statements"
echo "functions no binary entered:"
awk '$NF == "0.0%" {print $1, $2}' "$dir/func.txt" | sed "s|^repro/||"
