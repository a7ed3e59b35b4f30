#!/bin/sh
# Same-runner benchmark regression gate.
#
# ns/op numbers are only comparable when recorded on the same machine, so
# CI must not diff a runner's fresh numbers against the committed
# BENCH_sim.json (that baseline documents the trajectory on whatever box
# recorded it). Instead this script records BOTH the merge-base's numbers
# and the working tree's numbers on the current machine, then gates the
# delta with cmd/benchcompare.
#
# Environment:
#   BENCHTIME  per-benchmark budget passed to benchjson (default 0.3s)
#   BASE_REF   ref to diff against (default origin/main)
set -eu

BENCHTIME="${BENCHTIME:-0.3s}"
BASE_REF="${BASE_REF:-origin/main}"

base=$(git merge-base HEAD "$BASE_REF" 2>/dev/null || true)
if [ -z "$base" ]; then
    echo "bench-compare-base: no merge base with $BASE_REF (shallow clone?); skipping gate"
    exit 0
fi
if [ "$(git rev-parse HEAD)" = "$base" ] && git diff --quiet HEAD -- ':!BENCH_sim.json'; then
    echo "bench-compare-base: working tree matches merge base $base; nothing to compare"
    exit 0
fi

dir=$(mktemp -d)
cleanup() {
    git worktree remove --force "$dir/base" >/dev/null 2>&1 || true
    rm -rf "$dir"
}
trap cleanup EXIT

git worktree add --detach "$dir/base" "$base" >/dev/null 2>&1
echo "bench-compare-base: recording merge-base $base on this machine..."
if ! (cd "$dir/base" && go run ./cmd/benchjson -benchtime "$BENCHTIME" -out "$dir/base.json"); then
    echo "bench-compare-base: merge base cannot self-benchmark; skipping gate"
    exit 0
fi
echo "bench-compare-base: recording working tree..."
go run ./cmd/benchjson -benchtime "$BENCHTIME" -out "$dir/head.json"
go run ./cmd/benchcompare -old "$dir/base.json" -new "$dir/head.json"
