#!/bin/sh
# Output-parity check against the merge base.
#
# Simulations are deterministic, so a change that claims "same behaviour,
# less code" can be held to it byte for byte: this script builds
# cmd/flowcon-sim at the merge base and from the working tree, runs every
# target below through both binaries, and compares stdout+stderr with cmp.
# It prints identical/DIFF per target (with the diff) and exits non-zero
# on any DIFF. It is not part of `make ci`: a PR that declares an output
# change must still be able to land — it pastes this script's output
# instead.
#
# Environment:
#   BASE_REF   ref to compare against (default origin/main)
set -eu

BASE_REF="${BASE_REF:-origin/main}"

base=$(git merge-base HEAD "$BASE_REF" 2>/dev/null || true)
if [ -z "$base" ]; then
    echo "parity-base: no merge base with $BASE_REF (shallow clone? set BASE_REF)" >&2
    exit 2
fi

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkdir "$dir/base"
git archive "$base" | tar -x -C "$dir/base"
echo "parity-base: building merge base $base and the working tree..."
(cd "$dir/base" && go build -o "$dir/sim-base" ./cmd/flowcon-sim)
go build -o "$dir/sim-head" ./cmd/flowcon-sim

status=0
# compare <flowcon-sim args...>: one target, labelled by its arguments.
compare() {
    base_rc=0
    head_rc=0
    "$dir/sim-base" "$@" >"$dir/base.out" 2>&1 || base_rc=$?
    "$dir/sim-head" "$@" >"$dir/head.out" 2>&1 || head_rc=$?
    if [ "$base_rc" -eq 0 ] && [ "$head_rc" -eq 0 ] && cmp -s "$dir/base.out" "$dir/head.out"; then
        echo "identical  $*"
        return
    fi
    status=1
    echo "DIFF       $* (exit: base $base_rc, head $head_rc)"
    diff "$dir/base.out" "$dir/head.out" | sed 's/^/    /' || true
}

# Every experiment name `flowcon-sim all` expands to (app.experiments in
# cmd/flowcon-sim/main.go), one at a time so a DIFF names its figure.
for exp in fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 \
    fig14 fig15 fig16 fig17 table1 table2 seeds ablations; do
    compare "$exp"
done
compare -scenario all -seeds 2
compare -scenario chaos-day,chaos-day-scratch -seeds 2
compare -scenario megacluster-smoke -seeds 1
# Heavy, so "-scenario all" skips it: the only target that drives crash
# recovery, kills and periodic checkpoints across a thousand workers.
compare -scenario chaos-megacluster -seeds 1

if [ "$status" -ne 0 ]; then
    echo "parity-base: output differs from merge base $base"
fi
exit "$status"
