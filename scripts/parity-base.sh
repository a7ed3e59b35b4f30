#!/bin/sh
# Output-parity check against the merge base.
#
# Simulations are deterministic, so a change that claims "same behaviour,
# less code" can be held to it byte for byte: this script builds
# cmd/flowcon-sim at the merge base and from the working tree, runs every
# target below through both binaries, and compares stdout+stderr with cmp
# (and, for the -record and -trace-out targets, the recorded trace
# directories and the span files).
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
# run <bin> <flowcon-sim args...>: one run into $dir/<bin>.out, exit code
# in rc. With RECORD set, the run also writes -record traces into
# $dir/rec, moved to $dir/art-<bin> after the run; with SPANS set, it
# writes -trace-out spans into $dir/spans.jsonl, copied to $dir/art-<bin>
# without the per-span wall-clock stamp. Both binaries write to the same
# path, so the output line naming it matches.
run() {
    bin=$1
    shift
    rc=0
    rm -rf "$dir/art-$bin"
    if [ -n "${RECORD:-}" ]; then
        rm -rf "$dir/rec"
        "$dir/sim-$bin" -record "$dir/rec" "$@" >"$dir/$bin.out" 2>&1 || rc=$?
        mkdir -p "$dir/rec"
        mv "$dir/rec" "$dir/art-$bin"
    elif [ -n "${SPANS:-}" ]; then
        rm -f "$dir/spans.jsonl"
        "$dir/sim-$bin" -trace-out "$dir/spans.jsonl" "$@" >"$dir/$bin.out" 2>&1 || rc=$?
        sed 's/"wall":"[^"]*",//' "$dir/spans.jsonl" >"$dir/art-$bin" 2>/dev/null || true
    else
        "$dir/sim-$bin" "$@" >"$dir/$bin.out" 2>&1 || rc=$?
    fi
}

# compare <flowcon-sim args...>: one target, labelled by its arguments.
# With RECORD or SPANS set, the recorded traces or spans must match too,
# so a schedule or lifecycle change that moves no summary still shows.
compare() {
    run base "$@"
    base_rc=$rc
    run head "$@"
    head_rc=$rc
    label="${RECORD:+-record }${SPANS:+-trace-out }$*"
    art="${RECORD:-}${SPANS:-}"
    if [ "$base_rc" -eq 0 ] && [ "$head_rc" -eq 0 ] && cmp -s "$dir/base.out" "$dir/head.out" &&
        { [ -z "$art" ] || diff -r "$dir/art-base" "$dir/art-head" >/dev/null; }; then
        echo "identical  $label"
        return
    fi
    status=1
    echo "DIFF       $label (exit: base $base_rc, head $head_rc)"
    diff "$dir/base.out" "$dir/head.out" | sed 's/^/    /' || true
    if [ -n "$art" ]; then
        diff -r "$dir/art-base" "$dir/art-head" | head -n 40 | sed 's/^/    /' || true
    fi
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
# The run-shaping flags, each of which edits every expanded Spec.
compare -scenario hotspot,hotspot-rebalance,rolling-drain -seeds 2 -rebalance -migration-cost 4
compare -scenario bursty,hotspot-rebalance -seeds 2
SPANS=1
compare -scenario poisson,chaos-day -seeds 1
SPANS=
# The schedules themselves, not only what they summarize to.
RECORD=1
compare -scenario all -seeds 2
# Keep one trace the leg above wrote, for the -replay target.
cp "$dir/art-head/poisson-seed1.jsonl" "$dir/replay.jsonl" || true
compare -scenario megacluster-smoke -seeds 1
RECORD=
compare -replay "$dir/replay.jsonl" -workers 2

if [ "$status" -ne 0 ]; then
    echo "parity-base: output differs from merge base $base"
fi
exit "$status"
