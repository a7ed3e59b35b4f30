#!/bin/sh
# loadtest-smoke: boot a real flowcon-worker, drive its /v1 API with
# concurrent submitters for a few seconds, and gate on zero errors plus a
# bounded p99 submit latency. The run also scrapes the worker's live
# /v1/metrics endpoint (loadtest -assert-metrics) and fails unless the
# agent-side submit counters are non-zero and consistent with the
# client's view. The worker runs FlowCon itself, at -itval 100ms here and
# for two more seconds after the load, so the paced executor ticks as well
# as the start and exit listeners firing; after the SIGTERM its stopped
# line must report algorithm1_runs >= 1, and the script prints that line
# with the paced loop's worst lateness. Ticks alone would satisfy that
# count, so the worker's debug log must also show an Algorithm 1 run
# triggered by an arrival before the shutdown began, and none after the
# worker logged that its controller stopped (stopping the containers
# must not wake FlowCon).
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

"$dir/flowcon-worker" -addr "$ADDR" -itval 100ms -log-level debug >"$dir/worker.log" 2>&1 &
worker_pid=$!

if ! "$dir/loadtest" -worker "http://$ADDR" \
    -submitters "$SUBMITTERS" -jobs "$JOBS" \
    -p99-budget "$P99_BUDGET" -assert-metrics; then
    echo "--- worker log ---"
    cat "$dir/worker.log"
    exit 1
fi

# Graceful-shutdown leg: SIGTERM must stop the worker cleanly, after
# enough executor ticks to measure how late the paced loop runs them.
# The load above cancels its jobs; four more are left running here, so
# the shutdown has containers to stop.
for i in 0 1 2 3; do
    curl -sSf -o /dev/null -H 'Content-Type: application/json' \
        -d "{\"name\": \"left-$i\", \"model\": \"MNIST (Pytorch)\"}" "http://$ADDR/v1/jobs" || {
        echo "submitting job left-$i failed"; cat "$dir/worker.log"; exit 1; }
done
sleep 2
kill -TERM "$worker_pid"
wait "$worker_pid" || { echo "worker did not exit cleanly"; cat "$dir/worker.log"; exit 1; }
worker_pid=""
stopped=$(grep "flowcon-worker: stopped" "$dir/worker.log") || {
    echo "graceful shutdown message missing"; cat "$dir/worker.log"; exit 1; }
echo "$stopped"

# FlowCon leg: the worker's controller heard the submissions.
runs=$(echo "$stopped" | sed -n 's/.*algorithm1_runs=\([0-9][0-9]*\).*/\1/p')
if [ "${runs:-0}" -lt 1 ]; then
    echo "the worker ran Algorithm 1 ${runs:-0} times, want >= 1"
    cat "$dir/worker.log"; exit 1
fi
# The controller heard a submission itself, not only its ticks, and the
# shutdown's container stops ran nothing once it had stopped.
grep -q "flowcon-worker: controller stopped" "$dir/worker.log" || {
    echo "controller-stopped message missing"; cat "$dir/worker.log"; exit 1; }
arrivals=$(awk '/flowcon-worker: shutting down/ {exit}
    /msg="algorithm 1"/ && / trigger=arrival / {n++} END {print n+0}' "$dir/worker.log")
if [ "$arrivals" -lt 1 ]; then
    echo "no Algorithm 1 run was triggered by an arrival before the shutdown"
    cat "$dir/worker.log"; exit 1
fi
late=$(awk '/flowcon-worker: controller stopped/ {stopped=1; next}
    stopped && /msg="algorithm 1"/ {n++} END {print n+0}' "$dir/worker.log")
if [ "$late" -ne 0 ]; then
    echo "Algorithm 1 ran $late times after the controller stopped"
    cat "$dir/worker.log"; exit 1
fi
echo "loadtest-smoke passed ($SUBMITTERS submitters x $JOBS jobs, p99 budget $P99_BUDGET, Algorithm 1 ran $runs times, $arrivals on arrivals, none after the controller stopped, clean shutdown)"
