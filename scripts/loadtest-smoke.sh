#!/bin/sh
# loadtest-smoke: boot a real flowcon-worker, drive its /v1 API with
# concurrent submitters for a few seconds, and gate on zero errors plus a
# bounded p99 submit latency. The run also scrapes the worker's live
# /v1/metrics endpoint (loadtest -assert-metrics) and fails unless the
# agent-side submit counters are non-zero and consistent with the
# client's view. A flowcon-manager then governs the same worker for a few
# seconds in -demo mode and must exit 0 having run Algorithm 1 at least
# once.
#
# Env knobs: ADDR (:7177), SUBMITTERS (8), JOBS (25), P99_BUDGET (500ms).
set -eu

ADDR="${ADDR:-127.0.0.1:7177}"
SUBMITTERS="${SUBMITTERS:-8}"
JOBS="${JOBS:-25}"
P99_BUDGET="${P99_BUDGET:-500ms}"

dir=$(mktemp -d)
worker_pid=""
cleanup() {
    if [ -n "$worker_pid" ]; then
        kill -TERM "$worker_pid" 2>/dev/null || true
        wait "$worker_pid" 2>/dev/null || true
    fi
    rm -rf "$dir"
}
trap cleanup EXIT INT TERM

go build -o "$dir/flowcon-worker" ./cmd/flowcon-worker
go build -o "$dir/loadtest" ./cmd/loadtest
go build -o "$dir/flowcon-manager" ./cmd/flowcon-manager

"$dir/flowcon-worker" -addr "$ADDR" >"$dir/worker.log" 2>&1 &
worker_pid=$!

if ! "$dir/loadtest" -worker "http://$ADDR" \
    -submitters "$SUBMITTERS" -jobs "$JOBS" \
    -p99-budget "$P99_BUDGET" -assert-metrics; then
    echo "--- worker log ---"
    cat "$dir/worker.log"
    exit 1
fi

# Manager leg: the binary that governs a worker over /v1 must connect,
# submit the demo schedule and run Algorithm 1 before its deadline.
if ! "$dir/flowcon-manager" -worker "http://$ADDR" -demo -duration 6s \
    -poll 200ms -itval 2s >"$dir/manager.log" 2>&1; then
    echo "flowcon-manager failed"; cat "$dir/manager.log"; exit 1
fi
runs=$(sed -n 's/.*algorithm1_runs=\([0-9][0-9]*\).*/\1/p' "$dir/manager.log" | tail -n 1)
if [ "${runs:-0}" -lt 1 ]; then
    echo "flowcon-manager ran Algorithm 1 ${runs:-0} times, want >= 1"
    cat "$dir/manager.log"; exit 1
fi

# Graceful-shutdown leg: SIGTERM must stop the worker cleanly.
kill -TERM "$worker_pid"
wait "$worker_pid" || { echo "worker did not exit cleanly"; cat "$dir/worker.log"; exit 1; }
worker_pid=""
grep -q "flowcon-worker: stopped" "$dir/worker.log" || {
    echo "graceful shutdown message missing"; cat "$dir/worker.log"; exit 1; }
echo "loadtest-smoke passed ($SUBMITTERS submitters x $JOBS jobs, p99 budget $P99_BUDGET, manager ran Algorithm 1 $runs times, clean shutdown)"
