#!/usr/bin/env bash
# End-to-end smoke test for `pvsim serve`: boots the real binary on a
# temp data dir, drives it with curl the way a client would, kills it,
# and restarts it to prove disk-backed retention.
#
#   1. submit a grid, stream it — streamed bytes must equal the serial
#      `pvsim sweep -format json` report byte for byte
#   2. kill the server (SIGTERM, graceful drain)
#   3. restart on the same data dir, resubmit — must answer 200 from
#      disk (source=disk, no re-simulation) with identical bytes
#   4. sharded: boot two `pvsim shard` workers and a coordinator pointed
#      at them, kill one worker before submitting, and prove the
#      dead-worker retry still streams bytes identical to the serial
#      report — the kill/retry fault-injection pin at the process level
#
# Usage: scripts/e2e_serve.sh [addr]   (default localhost:8399)
set -euo pipefail

ADDR="${1:-localhost:8399}"
SHARD1_ADDR="localhost:8398"
SHARD2_ADDR="localhost:8397"
GRID='{"specs":["16-11a","PV-8"],"workloads":["Apache"],"seeds":[42],"scale":0.0025}'

WORK="$(mktemp -d)"
DATA="$WORK/data"
SERVER_PID=""
SHARD_PIDS=""
cleanup() {
    if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    for pid in $SHARD_PIDS; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

cd "$(dirname "$0")/.."
go build -o "$WORK/pvsim" ./cmd/pvsim

start_server() {
    "$WORK/pvsim" serve -addr "$ADDR" -p 4 -data-dir "$DATA" >"$WORK/serve.log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 100); do
        if curl -fsS "http://$ADDR/sweeps" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: server did not come up on $ADDR" >&2
    cat "$WORK/serve.log" >&2
    exit 1
}

stop_server() {
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID"
    SERVER_PID=""
}

# The reference: the same grid run serially through the CLI.
echo "$GRID" >"$WORK/grid.json"
"$WORK/pvsim" sweep -grid "$WORK/grid.json" -format json -p 1 >"$WORK/serial.json"

echo "== first server: submit + stream =="
start_server
SUBMIT="$(curl -fsS -X POST --data-binary "$GRID" "http://$ADDR/sweeps")"
ID="$(echo "$SUBMIT" | sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p')"
[ -n "$ID" ] || { echo "FAIL: no sweep id in $SUBMIT" >&2; exit 1; }
echo "   sweep $ID submitted"

# The stream blocks until the sweep finishes; its concatenated bytes must
# equal the serial report exactly.
curl -fsS "http://$ADDR/sweeps/$ID/stream" >"$WORK/streamed.json"
cmp "$WORK/streamed.json" "$WORK/serial.json" || {
    echo "FAIL: streamed bytes differ from serial sweep report" >&2
    diff "$WORK/streamed.json" "$WORK/serial.json" | head -20 >&2
    exit 1
}
echo "   stream is byte-identical to the serial report"

# The row-oriented framings answer too.
curl -fsS "http://$ADDR/sweeps/$ID/stream?format=ndjson" | grep -q '"done": *true' || {
    echo "FAIL: ndjson stream lacks the done marker" >&2; exit 1; }

echo "== kill and restart on the same data dir =="
stop_server
grep -q "drained" "$WORK/serve.log" || {
    echo "FAIL: server did not drain gracefully" >&2
    cat "$WORK/serve.log" >&2
    exit 1
}
[ -f "$DATA/results/$ID.json" ] || {
    echo "FAIL: finished result not retained under $DATA/results" >&2; exit 1; }

start_server
# Resubmitting the identical grid must be a disk hit: done immediately,
# tagged source=disk, never re-simulated.
RESTORED="$(curl -fsS -X POST --data-binary "$GRID" "http://$ADDR/sweeps")"
echo "$RESTORED" | grep -q '"status": "done"' || {
    echo "FAIL: restarted server did not serve the finished sweep: $RESTORED" >&2; exit 1; }
echo "$RESTORED" | grep -q '"source": "disk"' || {
    echo "FAIL: restored sweep not tagged as disk-served: $RESTORED" >&2; exit 1; }
curl -fsS "http://$ADDR/sweeps/$ID/result" >"$WORK/restored.json"
cmp "$WORK/restored.json" "$WORK/serial.json" || {
    echo "FAIL: disk-served result differs from the original report" >&2; exit 1; }
echo "   restart served the grid from disk, byte-identical"

stop_server

echo "== sharded: two workers, one killed before the sweep =="
wait_up() {
    local url="$1" what="$2" log="$3"
    for _ in $(seq 1 100); do
        if curl -fsS "$url" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "FAIL: $what did not come up" >&2
    cat "$log" >&2
    exit 1
}

"$WORK/pvsim" shard -addr "$SHARD1_ADDR" -p 2 >"$WORK/shard1.log" 2>&1 &
SHARD_PIDS="$!"
SHARD1_PID=$!
"$WORK/pvsim" shard -addr "$SHARD2_ADDR" -p 2 >"$WORK/shard2.log" 2>&1 &
SHARD_PIDS="$SHARD_PIDS $!"
wait_up "http://$SHARD1_ADDR/healthz" "shard worker 1" "$WORK/shard1.log"
wait_up "http://$SHARD2_ADDR/healthz" "shard worker 2" "$WORK/shard2.log"

# A fresh coordinator (no data dir: nothing served from disk) that plans
# its shards across both workers.
"$WORK/pvsim" serve -addr "$ADDR" -p 4 \
    -shard-workers "http://$SHARD1_ADDR,http://$SHARD2_ADDR" \
    >"$WORK/coord.log" 2>&1 &
SERVER_PID=$!
wait_up "http://$ADDR/sweeps" "coordinator" "$WORK/coord.log"

# Kill worker 1 before submitting: the coordinator still believes in it,
# so the sweep is planned across both, the dead dispatch fails, and the
# retry path must re-dispatch worker 1's range to worker 2 — with the
# stream still byte-identical to the serial report.
kill "$SHARD1_PID"
wait "$SHARD1_PID" 2>/dev/null || true

SUBMIT="$(curl -fsS -X POST --data-binary "$GRID" "http://$ADDR/sweeps")"
ID="$(echo "$SUBMIT" | sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p')"
[ -n "$ID" ] || { echo "FAIL: no sweep id in $SUBMIT" >&2; exit 1; }
curl -fsS "http://$ADDR/sweeps/$ID/stream" >"$WORK/sharded.json"
cmp "$WORK/sharded.json" "$WORK/serial.json" || {
    echo "FAIL: sharded stream (with a killed worker) differs from serial report" >&2
    cat "$WORK/coord.log" >&2
    exit 1
}
curl -fsS "http://$ADDR/workers" >"$WORK/workers.json"
grep -q '"healthy": false' "$WORK/workers.json" || {
    echo "FAIL: killed worker not marked unhealthy: $(cat "$WORK/workers.json")" >&2; exit 1; }
echo "   killed-worker retry streamed byte-identical output"

stop_server
echo "PASS: e2e serve smoke"
